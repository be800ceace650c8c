#include "core/flow.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <utility>

#include "util/contracts.hpp"
#include "util/parallel.hpp"

namespace bg::core {

using aig::Aig;
using aig::Var;
using opt::DecisionVector;
using opt::OpKind;

std::vector<OpKind> predicted_applied(const Aig& g, const DecisionVector& d,
                                      const StaticFeatures& st) {
    BG_EXPECTS(d.size() >= g.num_slots() && st.size() >= g.num_slots(),
               "decisions and features must cover every var");
    std::vector<OpKind> applied(g.num_slots(), OpKind::None);
    for (Var v = 0; v < g.num_slots(); ++v) {
        if (!g.is_and(v) || g.is_dead(v) || d[v] == OpKind::None) {
            continue;
        }
        // Feature layout: applicability flags at columns 2 (rw), 4 (rs),
        // 6 (rf).
        const int col = 2 + 2 * opt::op_index(d[v]);
        if (st[v][static_cast<std::size_t>(col)] > 0.5F) {
            applied[v] = d[v];
        }
    }
    return applied;
}

const opt::Objective& flow_objective(const FlowConfig& cfg) {
    return cfg.objective != nullptr ? *cfg.objective : opt::size_objective();
}

namespace {

double weight_for(const opt::PredictionWeights& w, MetricHead head) {
    switch (head) {
        case MetricHead::Size:
            return w.size;
        case MetricHead::Depth:
            return w.depth;
        case MetricHead::Luts:
            return w.luts;
    }
    return 0.0;
}

std::string format_weight(double w) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", w);
    return buf;
}

}  // namespace

RankingPlan plan_ranking(const BoolGebraModel& model,
                         const opt::Objective& objective,
                         std::optional<MetricHead> override_head) {
    RankingPlan plan;
    plan.weights.assign(model.num_heads(), 0.0);
    // The size head is the universal fallback (every model carries it).
    const std::size_t size_head =
        model.head_index(MetricHead::Size).value();

    if (override_head) {
        if (const auto idx = model.head_index(*override_head)) {
            plan.single_head = *idx;
            plan.describe = to_string(*override_head);
        } else {
            plan.single_head = size_head;
            plan.describe = std::string(to_string(MetricHead::Size)) +
                            "-proxy";
        }
        plan.weights[*plan.single_head] = 1.0;
        return plan;
    }

    const opt::PredictionWeights want = objective.prediction_weights();
    std::vector<std::pair<std::size_t, double>> terms;
    bool dropped = false;
    for (const MetricHead head :
         {MetricHead::Size, MetricHead::Depth, MetricHead::Luts}) {
        const double w = weight_for(want, head);
        if (w == 0.0) {
            continue;
        }
        if (const auto idx = model.head_index(head)) {
            terms.emplace_back(*idx, w);
        } else {
            dropped = true;  // the model was not trained with this head
        }
    }
    if (terms.empty()) {
        // None of the requested heads exist: size-as-proxy, the PR-4
        // behavior on legacy single-head checkpoints.
        plan.single_head = size_head;
        plan.weights[size_head] = 1.0;
        plan.describe = std::string(to_string(MetricHead::Size)) + "-proxy";
        return plan;
    }
    if (terms.size() == 1) {
        // One head suffices: use its raw column (bit-identical to the
        // single-head predictor path — no weight multiplication).
        plan.single_head = terms.front().first;
        plan.weights[terms.front().first] = 1.0;
        plan.describe = to_string(model.heads()[terms.front().first]);
        if (dropped) {
            plan.describe += "-proxy";
        }
        return plan;
    }
    std::string name = "blend(";
    for (std::size_t t = 0; t < terms.size(); ++t) {
        plan.weights[terms[t].first] = terms[t].second;
        if (t != 0) {
            name += ',';
        }
        name += to_string(model.heads()[terms[t].first]);
        name += ':';
        name += format_weight(terms[t].second);
    }
    name += ')';
    if (dropped) {
        name += "-proxy";
    }
    plan.describe = std::move(name);
    return plan;
}

FlowResult run_flow(const Aig& design, const BoolGebraModel& model,
                    const FlowConfig& cfg, ThreadPool* pool) {
    BG_EXPECTS(cfg.num_samples > 0 && cfg.top_k > 0,
               "flow needs samples and a positive top-k");
    cfg.opt.validate();
    // Stage-boundary cancel points (the exact-evaluation inner loops poll
    // the same token through OptParams inside orchestrate).
    poll_cancel(cfg.opt.cancel, "run_flow entry");
    const opt::Objective& obj = flow_objective(cfg);
    FlowResult res;
    res.original_size = design.num_ands();
    res.objective = obj.name();
    res.original_cost = obj.measure(design);  // runs lut_map for `luts`
    res.original_depth = res.original_cost.depth;

    // Intra-design parallel orchestration for the exact-evaluation steps
    // speculates on the pool (for_each nests safely inside the outer
    // candidate loop); without a pool the sequential pass runs.  Results
    // are bit-identical either way.
    opt::IntraParallel intra;
    if (cfg.intra_workers >= 2) {
        intra.pool = pool;
    }

    // Step 1: sample decision vectors from the design's static features.
    const StaticFeatures st = compute_static_features(design, cfg.opt, pool);
    poll_cancel(cfg.opt.cancel, "run_flow sampling");
    const auto decisions = generate_decisions(design, cfg.num_samples,
                                              cfg.guided, cfg.seed, st);

    // Step 2: prune with the predictor (cheap estimated dynamic features).
    // Candidate features are assembled directly into the stacked batch
    // matrix so inference sees one contiguous block.
    const GraphCsr csr = build_csr(design);
    const std::size_t num_nodes = design.num_slots();
    nn::Matrix stacked(decisions.size() * num_nodes,
                       static_cast<std::size_t>(feature_dim));
    bg::for_each_index(pool, decisions.size(), [&](std::size_t i) {
        const auto applied = predicted_applied(design, decisions[i], st);
        const auto dy = compute_dynamic_features(design, applied);
        assemble_features_into(
            st, dy, cfg.features,
            {stacked.row(i * num_nodes),
             num_nodes * static_cast<std::size_t>(feature_dim)});
    });
    // Head selection: rank under the head(s) the objective asks for,
    // falling back to the size head when the model lacks them (legacy
    // single-head checkpoints keep the PR-4 size-as-proxy ranking bit for
    // bit — plan.single_head reads the raw column, no reweighting).
    const RankingPlan plan =
        plan_ranking(model, obj, cfg.ranking_head);
    poll_cancel(cfg.opt.cancel, "run_flow prediction");
    res.ranked_by = plan.describe;
    res.predictions =
        plan.single_head
            ? model.predict_batch_head(csr, num_nodes, stacked,
                                       *plan.single_head,
                                       BoolGebraModel::kPredictBatch,
                                       pool)
            : model.predict_batch_blend(csr, num_nodes, stacked,
                                        plan.weights,
                                        BoolGebraModel::kPredictBatch,
                                        pool);
    res.samples_evaluated = res.predictions.size();

    // Step 3: evaluate the top-k exactly (smaller score = better).
    poll_cancel(cfg.opt.cancel, "run_flow evaluation");
    std::vector<std::size_t> order(decisions.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return res.predictions[a] < res.predictions[b];
                     });
    const std::size_t k = std::min(cfg.top_k, order.size());
    res.selected.assign(order.begin(),
                        order.begin() + static_cast<std::ptrdiff_t>(k));

    // Each candidate's optimized graph stays in its slot until the winner
    // is picked; run_design_flow reads the winner's.
    std::vector<SampleRecord> evaluated(k);
    std::vector<opt::CostVector> costs(k);
    std::vector<Aig> graphs(k);
    bg::for_each_index(pool, k, [&](std::size_t i) {
        evaluated[i] =
            evaluate_decisions(design, decisions[res.selected[i]], cfg.opt,
                               obj, &graphs[i], &intra);
        costs[i] = obj.measure(graphs[i]);
    });
    double sum_ratio = 0.0;
    double sum_reduction = 0.0;
    double sum_depth_ratio = 0.0;
    double sum_value_ratio = 0.0;
    std::size_t best_idx = k;  // none yet; the first candidate claims it
    for (std::size_t i = 0; i < evaluated.size(); ++i) {
        const auto& rec = evaluated[i];
        res.reductions.push_back(rec.reduction);
        res.costs.push_back(costs[i]);
        // First strictly-better wins, so ties keep prediction order —
        // under size this reproduces the pre-objective "max reduction,
        // first index" selection exactly.
        if (best_idx == k || obj.better(costs[i], costs[best_idx])) {
            best_idx = i;
        }
        sum_reduction += rec.reduction;
        sum_ratio += static_cast<double>(rec.final_size) /
                     static_cast<double>(res.original_size);
        sum_depth_ratio += res.original_depth != 0
                               ? static_cast<double>(rec.final_depth) /
                                     static_cast<double>(res.original_depth)
                               : 1.0;
        sum_value_ratio += res.original_cost.value > 0.0
                               ? costs[i].value / res.original_cost.value
                               : 1.0;
    }
    res.best_cost = costs[best_idx];
    res.best_decisions = evaluated[best_idx].decisions;
    res.best_graph = std::make_shared<const Aig>(std::move(graphs[best_idx]));
    graphs.clear();
    res.best_reduction =
        std::max(evaluated[best_idx].reduction, res.best_reduction);
    res.mean_reduction = sum_reduction / static_cast<double>(k);
    res.bg_mean_ratio = sum_ratio / static_cast<double>(k);
    res.bg_best_ratio =
        static_cast<double>(static_cast<int>(res.original_size) -
                            res.best_reduction) /
        static_cast<double>(res.original_size);
    res.bg_mean_depth_ratio = sum_depth_ratio / static_cast<double>(k);
    res.bg_best_depth_ratio =
        res.original_depth != 0
            ? static_cast<double>(res.best_cost.depth) /
                  static_cast<double>(res.original_depth)
            : 1.0;
    res.bg_mean_value_ratio = sum_value_ratio / static_cast<double>(k);
    res.bg_best_value_ratio = res.original_cost.value > 0.0
                                  ? res.best_cost.value /
                                        res.original_cost.value
                                  : 1.0;
    return res;
}

}  // namespace bg::core
