#include "core/sampling.hpp"

#include <span>

#include "util/contracts.hpp"
#include "util/parallel.hpp"

namespace bg::core {

using aig::Aig;
using aig::Var;
using opt::DecisionVector;
using opt::OpKind;

namespace {

OpKind random_op(bg::Rng& rng) {
    return opt::op_from_index(static_cast<int>(rng.next_below(3)));
}

}  // namespace

DecisionVector random_decisions(const Aig& g, bg::Rng& rng) {
    DecisionVector d(g.num_slots(), OpKind::None);
    for (Var v = 0; v < g.num_slots(); ++v) {
        if (g.is_and(v) && !g.is_dead(v)) {
            d[v] = random_op(rng);
        }
    }
    return d;
}

DecisionVector priority_decisions(const Aig& g, const StaticFeatures& st,
                                  bg::Rng& rng) {
    BG_EXPECTS(st.size() == g.num_slots(),
               "static features must cover every var");
    DecisionVector d(g.num_slots(), OpKind::None);
    for (Var v = 0; v < g.num_slots(); ++v) {
        if (!g.is_and(v) || g.is_dead(v)) {
            continue;
        }
        // Priority rw > rs > rf (feature layout: rw at [2], rs [4], rf [6]).
        if (st[v][2] > 0.5F) {
            d[v] = OpKind::Rewrite;
        } else if (st[v][4] > 0.5F) {
            d[v] = OpKind::Resub;
        } else if (st[v][6] > 0.5F) {
            d[v] = OpKind::Refactor;
        } else {
            d[v] = random_op(rng);
        }
    }
    return d;
}

DecisionVector mutate_decisions(const Aig& g, const DecisionVector& base,
                                double fraction, bg::Rng& rng) {
    BG_EXPECTS(fraction >= 0.0 && fraction <= 1.0,
               "mutation fraction must lie in [0, 1]");
    DecisionVector d = base;
    std::vector<Var> and_vars;
    for (Var v = 0; v < g.num_slots(); ++v) {
        if (g.is_and(v) && !g.is_dead(v)) {
            and_vars.push_back(v);
        }
    }
    const auto k = static_cast<std::size_t>(
        fraction * static_cast<double>(and_vars.size()) + 0.5);
    const auto idx = rng.sample_indices(and_vars.size(), k);
    for (const auto i : idx) {
        d[and_vars[i]] = random_op(rng);
    }
    return d;
}

SampleRecord evaluate_decisions(const Aig& design, DecisionVector decisions,
                                const opt::OptParams& params,
                                const opt::Objective& objective,
                                Aig* optimized_out,
                                const opt::IntraParallel* intra) {
    Aig copy = design;
    const auto res = opt::orchestrate_parallel(
        copy, decisions, params, objective,
        intra != nullptr ? *intra : opt::IntraParallel{});
    SampleRecord rec;
    rec.decisions = std::move(decisions);
    rec.applied = res.applied;
    rec.reduction = res.reduction();
    rec.depth_reduction = res.depth_reduction();
    rec.final_size = res.final_size;
    rec.final_depth = res.final_depth;
    if (optimized_out != nullptr) {
        *optimized_out = std::move(copy);
    }
    return rec;
}

namespace {

/// Mutation fractions for the guided mutants.  The flow cycles evenly
/// through the paper's 10%..90% range; the sample generators weight
/// toward small mutations so the batch stays anchored near the guided
/// base (that anchoring is what shifts the Fig 2 distribution left).
constexpr double kFlowFractions[] = {0.1, 0.2, 0.3, 0.4, 0.5,
                                     0.6, 0.7, 0.8, 0.9};
constexpr double kSampleFractions[] = {0.1, 0.1, 0.2, 0.2, 0.3, 0.3,
                                       0.4, 0.5, 0.6, 0.7, 0.8, 0.9};

/// The one decision sampler, drawing everything from Rng(seed) in sample
/// order: n random vectors when `guided_by` is null, else the
/// priority-guided base followed by mutants of it whose fractions cycle
/// through `fractions`.
std::vector<DecisionVector> draw_decisions(const Aig& design, std::size_t n,
                                           std::uint64_t seed,
                                           const StaticFeatures* guided_by,
                                           std::span<const double> fractions) {
    bg::Rng rng(seed);
    std::vector<DecisionVector> out;
    out.reserve(n);
    if (guided_by == nullptr) {
        for (std::size_t i = 0; i < n; ++i) {
            out.push_back(random_decisions(design, rng));
        }
        return out;
    }
    const DecisionVector base = priority_decisions(design, *guided_by, rng);
    if (n > 0) {
        out.push_back(base);
    }
    for (std::size_t i = 1; i < n; ++i) {
        const double frac = fractions[(i - 1) % fractions.size()];
        out.push_back(mutate_decisions(design, base, frac, rng));
    }
    return out;
}

/// Evaluate a batch of decision vectors on `pool` (inline when null); the
/// result order matches the input order, so the outcome is deterministic.
/// When `lut_labels` is set, each record's optimized graph is
/// technology-mapped and the LUT count recorded as the sample's LUT-head
/// label.
std::vector<SampleRecord> evaluate_batch(
    const Aig& design, std::vector<DecisionVector> batch,
    const opt::OptParams& params, const opt::LutMapParams* lut_labels,
    ThreadPool* pool) {
    std::vector<SampleRecord> out(batch.size());
    bg::for_each_index(pool, batch.size(), [&](std::size_t i) {
        if (lut_labels == nullptr) {
            out[i] = evaluate_decisions(design, std::move(batch[i]), params);
            return;
        }
        Aig optimized;
        out[i] = evaluate_decisions(design, std::move(batch[i]), params,
                                    opt::size_objective(), &optimized);
        out[i].lut_count = static_cast<long long>(
            opt::map_to_luts(optimized, *lut_labels).num_luts());
    });
    return out;
}

}  // namespace

std::vector<DecisionVector> generate_decisions(const Aig& design,
                                               std::size_t n, bool guided,
                                               std::uint64_t seed,
                                               const StaticFeatures& st) {
    return draw_decisions(design, n, seed, guided ? &st : nullptr,
                          kFlowFractions);
}

std::vector<SampleRecord> generate_random_samples(
    const Aig& design, std::size_t n, std::uint64_t seed,
    const opt::OptParams& params, const opt::LutMapParams* lut_labels,
    ThreadPool* pool) {
    return evaluate_batch(design,
                          draw_decisions(design, n, seed, nullptr, {}),
                          params, lut_labels, pool);
}

std::vector<SampleRecord> generate_guided_samples(
    const Aig& design, std::size_t n, std::uint64_t seed,
    const opt::OptParams& params, const StaticFeatures* precomputed_static,
    const opt::LutMapParams* lut_labels, ThreadPool* pool) {
    StaticFeatures local;
    if (precomputed_static == nullptr) {
        local = compute_static_features(design, params, pool);
        precomputed_static = &local;
    }
    return evaluate_batch(
        design,
        draw_decisions(design, n, seed, precomputed_static, kSampleFractions),
        params, lut_labels, pool);
}

}  // namespace bg::core
