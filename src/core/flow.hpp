#pragma once

/// \file flow.hpp
/// The end-to-end BoolGebra flow (§III-D): (1) sample a large batch of
/// Boolean-manipulation decision vectors, (2) prune the batch with the
/// GNN predictor (cheap inference; dynamic features are estimated from
/// per-node transformability instead of running the graph updates),
/// (3) evaluate only the top-k predictions exactly and report BG-Mean /
/// BG-Best (Table I's columns).

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "core/metrics.hpp"
#include "core/model.hpp"
#include "core/sampling.hpp"
#include "opt/objective.hpp"
#include "util/parallel.hpp"
#include "verify/portfolio.hpp"

namespace bg::core {

struct FlowConfig {
    std::size_t num_samples = 600;  ///< paper: 600 per design
    std::size_t top_k = 10;         ///< paper: evaluate the top 10
    bool guided = true;             ///< priority-guided sampling
    std::uint64_t seed = 1;
    opt::OptParams opt;
    FeatureConfig features;
    /// Cost model ranking the evaluated candidates and gating their
    /// orchestration (shared read-only across concurrent flows).  Null
    /// means size — the paper's metric and the pre-objective behavior,
    /// bit-identical to it.
    opt::ObjectivePtr objective;
    /// Optional override of the learned head used for pruning: rank the
    /// sampled candidates with this metric head regardless of the
    /// objective (A/B baselines — e.g. forcing the PR-4 size-as-proxy
    /// ranking on a multi-head model).  The objective still decides which
    /// evaluated candidate wins.  Falls back to the size head when the
    /// model lacks the requested head.
    std::optional<MetricHead> ranking_head;
    /// Verify the result: after its last round, run_design_flow proves
    /// the final graph (a single round's winner, else the committed graph)
    /// equivalent to the input design with the portfolio CEC and records
    /// the verdict in DesignFlowResult::verification; run_flow never
    /// proves.  Every transform is correct by construction, so this is the
    /// production gate against orchestration bugs, not a per-sample cost.
    bool verify = false;
    /// Budgets for the verification gate (ignored when the caller passes
    /// run_design_flow a prover, which carries its own options).
    verify::PortfolioOptions verify_opts;
    /// Intra-design parallelism: when >= 2, each top-k evaluation (the
    /// only orchestration a flow runs) takes the speculate/ordered-commit
    /// path (opt::orchestrate_parallel) on run_flow's pool, nesting-safe
    /// with the outer candidate loop and bit-identical to the sequential
    /// pass at any worker count.  The pool's size sets the speculation
    /// width; without a pool, and at 0/1, the sequential pass runs.
    std::size_t intra_workers = 0;
};

/// The objective a config resolves to (size when unset).
const opt::Objective& flow_objective(const FlowConfig& cfg);

/// How run_flow turns the objective's prediction weights into scores from
/// the model's actual heads.  `single_head` is set when one head's raw
/// column suffices (bit-identical to the single-head predictor path —
/// this is what keeps size flows on legacy checkpoints pinned to PR-4
/// behavior); otherwise `weights` (model head order) drive a blended
/// score.  `describe` is the name recorded in FlowResult::ranked_by.
struct RankingPlan {
    std::optional<std::size_t> single_head;
    std::vector<double> weights;
    std::string describe;
};

/// Resolve the ranking plan for a model/objective pair: map the
/// objective's prediction_weights() onto the heads the model carries,
/// dropping absent heads and falling back to the size head (suffix
/// "-proxy") when none of the requested heads exist.  `override_head`
/// (FlowConfig::ranking_head) short-circuits the objective mapping.
RankingPlan plan_ranking(const BoolGebraModel& model,
                         const opt::Objective& objective,
                         std::optional<MetricHead> override_head = {});

/// Extension beyond the paper's single-shot flow: run the flow, commit
/// the best candidate's graph, and repeat on the optimized graph
/// (run_design_flow with rounds > 1).  Ratios accumulate against the
/// *original* size.
struct IteratedFlowResult {
    std::size_t original_size = 0;
    std::size_t final_size = 0;
    std::uint32_t original_depth = 0;
    std::uint32_t final_depth = 0;
    std::vector<int> per_round_reduction;
    double final_ratio = 1.0;
    double final_depth_ratio = 1.0;

    std::size_t rounds() const { return per_round_reduction.size(); }
};

struct FlowResult {
    std::size_t original_size = 0;
    std::uint32_t original_depth = 0;
    /// Objective used for ranking ("size" unless configured otherwise)
    /// and the original graph's measurement under it.
    std::string objective = "size";
    opt::CostVector original_cost;
    /// Decision vectors actually scored by the predictor in this run —
    /// measured, not the configured budget, so throughput accounting
    /// downstream (FlowEngine/FlowService samples/s) reports real work.
    std::size_t samples_evaluated = 0;
    /// Model scores for every sampled decision vector (lower = better).
    std::vector<double> predictions;
    /// How the pruning scores were produced: a head name ("size",
    /// "depth", "luts"), "blend(size:a,depth:b)" when a weighted
    /// objective combines heads, with "-proxy" appended when the model
    /// lacks the requested head(s) and the size head stood in (the PR-4
    /// behavior on legacy single-head checkpoints).
    std::string ranked_by = "size";
    /// Indices (into the sample batch) of the evaluated top-k.
    std::vector<std::size_t> selected;
    /// Exact reductions of the evaluated top-k, same order as `selected`.
    std::vector<int> reductions;
    /// Exact per-candidate measurements, same order as `selected`.
    std::vector<opt::CostVector> costs;

    /// Size reduction of the objective-best candidate (under the default
    /// size objective: the best size reduction, as before the redesign).
    int best_reduction = 0;
    double mean_reduction = 0.0;
    /// Measurement of the objective-best candidate.
    opt::CostVector best_cost;
    /// Optimized/original size ratios — the numbers Table I reports.
    double bg_best_ratio = 1.0;
    double bg_mean_ratio = 1.0;
    /// Per-metric companions: depth and objective-scalar ratios of the
    /// same evaluated top-k ("best" is always the objective-best).
    double bg_best_depth_ratio = 1.0;
    double bg_mean_depth_ratio = 1.0;
    double bg_best_value_ratio = 1.0;
    double bg_mean_value_ratio = 1.0;
    /// The objective-best decision vector.
    opt::DecisionVector best_decisions;
    /// The objective-best candidate's optimized graph, as its top-k
    /// evaluation left it (uncompacted); the other candidates' graphs are
    /// freed.  run_design_flow's commit, its returned graph and (for a
    /// single round) its proof all read this one graph, so the winner is
    /// never re-run.
    std::shared_ptr<const aig::Aig> best_graph;
};

/// Estimate the applied-op trace without running Algorithm 1: operation
/// D[v] is predicted to apply wherever the static features say it is
/// transformable.  This is what makes flow inference cheap.
std::vector<opt::OpKind> predicted_applied(const aig::Aig& g,
                                           const opt::DecisionVector& d,
                                           const StaticFeatures& st);

/// Run one round of the sample -> prune -> evaluate flow on one design:
/// the static features and CSR adjacency of `design`, step 1
/// (generate_decisions, core/sampling.hpp), inference and the top-k
/// evaluation.  It never proves the result; run_design_flow does, once per
/// job.  Every inner loop runs on `pool`, or inline on the calling thread
/// when it is null.  The model is shared read-only: inference goes
/// through the const predict_batch_head/_blend path, so one instance (or
/// one FlowService snapshot) can serve many concurrent flows without
/// copies.
FlowResult run_flow(const aig::Aig& design, const BoolGebraModel& model,
                    const FlowConfig& cfg = {}, ThreadPool* pool = nullptr);

}  // namespace bg::core
