#include "core/dataset.hpp"

#include <algorithm>

#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace bg::core {

float normalize_label(int reduction, int best_reduction) {
    if (best_reduction <= 0) {
        return 0.0F;  // degenerate dataset: nothing was ever reduced
    }
    const float label = static_cast<float>(best_reduction - reduction) /
                        static_cast<float>(best_reduction);
    return std::clamp(label, 0.0F, 1.0F);
}

float range_label(double value, double best, double worst) {
    if (worst <= best) {
        return 0.0F;  // degenerate range: every sample measured the same
    }
    return std::clamp(static_cast<float>((value - best) / (worst - best)),
                      0.0F, 1.0F);
}

Dataset build_dataset(const aig::Aig& design,
                      std::span<const SampleRecord> records,
                      const opt::OptParams& params, const FeatureConfig& cfg,
                      ThreadPool* pool) {
    Dataset ds;
    ds.num_nodes_ = design.num_slots();
    ds.csr_ = build_csr(design);

    const StaticFeatures st = compute_static_features(design, params, pool);

    // Per-metric normalization statistics.  Size keeps the paper's
    // best-reduction scheme; depth and LUTs are range-normalized (see the
    // file comment) so the columns rank usefully even when no sample
    // improves on the original graph.
    int best = 0;
    std::uint32_t depth_best = UINT32_MAX;
    std::uint32_t depth_worst = 0;
    long long lut_best = 0;
    long long lut_worst = 0;
    bool have_luts = false;
    for (const auto& rec : records) {
        best = std::max(best, rec.reduction);
        depth_best = std::min(depth_best, rec.final_depth);
        depth_worst = std::max(depth_worst, rec.final_depth);
        if (rec.lut_count >= 0) {
            lut_best = have_luts ? std::min(lut_best, rec.lut_count)
                                 : rec.lut_count;
            lut_worst = have_luts ? std::max(lut_worst, rec.lut_count)
                                  : rec.lut_count;
            have_luts = true;
        }
    }
    ds.best_reduction_ = best;

    constexpr auto kSize = static_cast<std::size_t>(MetricHead::Size);
    constexpr auto kDepth = static_cast<std::size_t>(MetricHead::Depth);
    constexpr auto kLuts = static_cast<std::size_t>(MetricHead::Luts);
    ds.samples_.reserve(records.size());
    for (const auto& rec : records) {
        DatasetSample s;
        const DynamicFeatures dy =
            compute_dynamic_features(design, rec.applied);
        s.features = assemble_features(st, dy, cfg);
        s.label = normalize_label(rec.reduction, best);
        s.reduction = rec.reduction;
        s.labels[kSize] = s.label;
        s.mask[kSize] = 1.0F;
        s.labels[kDepth] = range_label(rec.final_depth, depth_best,
                                       depth_worst);
        s.mask[kDepth] = 1.0F;
        if (rec.lut_count >= 0) {
            s.labels[kLuts] = range_label(static_cast<double>(rec.lut_count),
                                          static_cast<double>(lut_best),
                                          static_cast<double>(lut_worst));
            s.mask[kLuts] = 1.0F;
        }
        ds.samples_.push_back(std::move(s));
    }
    ds.labelled_[kSize] = !ds.samples_.empty();
    ds.labelled_[kDepth] = !ds.samples_.empty();
    ds.labelled_[kLuts] = have_luts;
    return ds;
}

Dataset::Split Dataset::split(double train_fraction,
                              std::uint64_t seed) const {
    BG_EXPECTS(train_fraction > 0.0 && train_fraction <= 1.0,
               "train fraction must lie in (0, 1]");
    std::vector<std::size_t> idx(samples_.size());
    for (std::size_t i = 0; i < idx.size(); ++i) {
        idx[i] = i;
    }
    bg::Rng rng(seed);
    rng.shuffle(idx);
    const auto cut = static_cast<std::size_t>(
        train_fraction * static_cast<double>(idx.size()));
    Split s;
    s.train.assign(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(cut));
    s.test.assign(idx.begin() + static_cast<std::ptrdiff_t>(cut), idx.end());
    return s;
}

}  // namespace bg::core
