#pragma once

/// \file flow_engine.hpp
/// Batched multi-design flow execution.  The paper evaluates BoolGebra per
/// design (Table I); production use runs the sample -> prune -> evaluate
/// flow over a whole design suite.  The FlowEngine is a thin batch facade
/// over the long-lived FlowService (flow_service.hpp): run() binds the
/// caller's model as a non-owning snapshot, submits every job to the
/// service queue and waits for the futures, so the batch path and the
/// serving path exercise the same internals.  Inside each job the shared
/// pool parallelizes the per-sample loops (caller-participating fork-join,
/// so nesting cannot deadlock).  Each round's run_flow computes the
/// static features and CSR adjacency of the round's graph once; candidate
/// features are assembled in place into a stacked batch matrix that
/// BoolGebraModel::predict_batch_head scores in one call, and the pool
/// also shards the SAGE row panels and GEMM row panels inside inference
/// (bit-stable, see nn/matrix.hpp and nn/sage.hpp).
///
/// The model is shared read-only across every concurrent job — inference
/// runs the const eval path, so no per-job model copy is made.  Output is bit-identical to running run_design_flow per design
/// without a pool (every loop inline on the calling thread) with the
/// same FlowConfig, independent of the worker count (everything is
/// written to per-index slots).

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "util/cancel.hpp"
#include "util/parallel.hpp"

namespace bg::core {

class FlowService;  // flow_service.hpp

struct EngineConfig {
    std::size_t workers = 0;  ///< pool threads (0 = default_worker_count())
    std::size_t rounds = 1;   ///< >1 = iterated flow, committing each best
    FlowConfig flow;          ///< per-design flow parameters (same seed each)
};

/// One unit of work: a named design.
struct DesignJob {
    std::string name;
    aig::Aig design;
};

/// Cooperative controls for one design-flow job, threaded by the serving
/// stack (FlowService tenancy, the network front end).  All members are
/// optional; the default object reproduces the uncontrolled run exactly.
struct JobControl {
    /// Cancel point polled at round boundaries, after the proof and, via
    /// OptParams::cancel, inside every orchestrate node walk and run_flow
    /// stage.  A stopped token aborts the job with bg::CancelledError.
    const bg::CancelToken* cancel = nullptr;
    /// Invoked on the executing thread after each completed round with
    /// (1-based round, AND count of the graph after that round): the
    /// committed size for iterated flows, the best candidate's size for
    /// single-shot flows (which commit nothing).  It runs before the
    /// proof, which follows the last round.
    std::function<void(std::size_t round, std::size_t ands)> on_progress;
    /// Return the final optimized graph in DesignFlowResult::final_graph:
    /// the committed graph for rounds > 1 (the input design when no round
    /// was productive), the round's winner (FlowResult::best_graph) for a
    /// single round.
    bool want_graph = false;
};

struct DesignFlowResult {
    std::string name;
    std::size_t original_size = 0;
    /// Round-1 flow result: the BG-Mean / BG-Best source (Table I columns).
    FlowResult flow;
    /// Round trace.  For rounds == 1 no commit happens and final_* reflect
    /// the best evaluated candidate; for rounds > 1 every productive
    /// round's best candidate is committed and final_* describe the
    /// committed graph.
    IteratedFlowResult iterated;
    /// Decision vectors actually scored across all executed rounds —
    /// accumulated from each round's FlowResult::samples_evaluated, not
    /// from the configured budget, so an early-breaking iterated flow
    /// reports only the work it really did.
    std::size_t samples_run = 0;
    /// Portfolio-CEC verdict of the final graph against the input design
    /// (the committed graph for rounds > 1, the best round-1 candidate
    /// otherwise); set exactly when FlowConfig::verify was on.
    std::optional<verify::VerifyReport> verification;
    /// The final optimized graph, the one final_* describe; set exactly
    /// when JobControl::want_graph was on (shared_ptr keeps the result
    /// cheap to copy through futures and callbacks).  For rounds > 1 this
    /// is the committed graph (the unchanged input design when no round
    /// was productive).  For rounds == 1 it is flow.best_graph itself,
    /// the best evaluated candidate, whether or not it beats the input.
    std::shared_ptr<const aig::Aig> final_graph;
    double seconds = 0.0;
};

struct BatchFlowResult {
    std::vector<DesignFlowResult> designs;
    /// Objective the whole batch ranked under ("size" by default).
    std::string objective = "size";
    /// How candidates were scored (FlowResult::ranked_by of the batch —
    /// e.g. "depth" on a multi-head model under the depth objective,
    /// "size-proxy" on a legacy single-head checkpoint).
    std::string ranked_by = "size";
    /// Arithmetic means of the per-design ratios (Table I "Avg." row).
    double avg_bg_best_ratio = 1.0;
    double avg_bg_mean_ratio = 1.0;
    double avg_final_ratio = 1.0;
    /// Per-metric companions under the configured objective.
    double avg_bg_best_depth_ratio = 1.0;
    double avg_bg_best_value_ratio = 1.0;
    double avg_final_depth_ratio = 1.0;
    std::size_t total_samples = 0;
    /// Verification tally (all zero when FlowConfig::verify is off):
    /// verified = proven equivalent, refuted = counterexample found,
    /// unknown = every stage degraded within its budget.
    std::size_t jobs_verified = 0;
    std::size_t jobs_refuted = 0;
    std::size_t jobs_unknown = 0;
    double total_seconds = 0.0;
    double designs_per_second = 0.0;
    double samples_per_second = 0.0;
};

/// The per-design unit of work shared by FlowEngine and FlowService, and
/// the one round driver: run `rounds` flow rounds (committing each
/// productive best when rounds > 1, stopping at the first round that
/// does not improve).  A commit compacts the round's
/// FlowResult::best_graph; no winner is re-run.  Every loop runs on
/// `pool` when given and inline on the calling thread when it is null.
/// The model is read-only; results are bit-identical at any pool size,
/// and for rounds == 1 equal run_flow with the same config.
/// The only proof site: when flow.verify is on, the final graph (the
/// round's winner for rounds == 1, else the committed graph) is proven
/// against the input design once, after the last progress callback.
/// `prover` is the shared portfolio instance for it (null => a transient
/// prover is built from flow.verify_opts).  The proof runs under the
/// round's cancel token, and a proof the token stopped raises
/// CancelledError rather than reporting ProbablyEquivalent.
/// `control` (optional) carries the cooperative cancel token, the
/// per-round progress callback, and the want_graph switch; see JobControl.
DesignFlowResult run_design_flow(const DesignJob& job,
                                 const BoolGebraModel& model,
                                 const FlowConfig& flow, std::size_t rounds,
                                 ThreadPool* pool,
                                 verify::PortfolioCec* prover = nullptr,
                                 const JobControl* control = nullptr);

class FlowEngine {
public:
    explicit FlowEngine(EngineConfig cfg = {});
    ~FlowEngine();

    const EngineConfig& config() const { return cfg_; }
    std::size_t workers() const;

    /// Run the flow over every job.  `model` is shared read-only across
    /// the whole batch (bound as a non-owning service snapshot for the
    /// duration of the call); results equal the sequential single-model
    /// run bit for bit.
    BatchFlowResult run(std::span<const DesignJob> jobs,
                        const BoolGebraModel& model);

private:
    EngineConfig cfg_;
    std::unique_ptr<FlowService> service_;
};

/// Registry names -> jobs, optionally scaled (scale < 1.0 shrinks for
/// quick runs, > 1.0 grows).  Every scale goes through
/// make_benchmark_scaled — an identity at scale 1.0 — so there is no
/// float-equality special case.  Unknown names throw std::out_of_range.
std::vector<DesignJob> jobs_from_registry(std::span<const std::string> names,
                                          double scale = 1.0);

/// Expand a shell-style pattern ('*' and '?') against the registry names;
/// a literal name matches itself.  Returns names in registry order.
std::vector<std::string> expand_registry_pattern(const std::string& pattern);

/// Full design-spec resolution (circuits::resolve_design_specs semantics:
/// registry names, name@scale, registry globs, file:<path|glob>, bare
/// netlist paths; `all` prepends the whole registry) with every design
/// loaded into a job.  Throws circuits::DesignSourceError on unknown
/// names, empty globs, or unreadable/malformed files.
std::vector<DesignJob> jobs_from_specs(const std::vector<std::string>& specs,
                                       bool all, double scale = 1.0);

}  // namespace bg::core
