#pragma once

/// \file dataset.hpp
/// Training-data assembly (§III-C.1 "Data Normalization"): one design
/// yields one graph (CSR + static features) and many samples (dynamic
/// features + labels).  The size label is normalized against the best
/// reduction in the dataset:  label = (best_red − red) / best_red, so 0
/// is the best sample and 1 the worst; the model learns to *rank*
/// candidates.  The depth and mapped-LUT labels are range-normalized over
/// the dataset ((v − best) / (worst − best), 0 = best) — a pure ranking
/// signal that stays informative even when no sample beats the original
/// graph on that metric — and each label column carries a mask so samples
/// missing a measurement (e.g. records evaluated without LUT mapping)
/// still train the heads they do have.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "aig/aig.hpp"
#include "core/features.hpp"
#include "core/metrics.hpp"
#include "core/sampling.hpp"

namespace bg::core {

struct DatasetSample {
    std::vector<float> features;  ///< N x feature_dim, row-major
    float label = 0.0F;           ///< the size label (labels[Size])
    int reduction = 0;            ///< raw node reduction
    /// Per-metric labels, indexed by MetricHead; 0 = best, normalized
    /// per the scheme above.  `mask[h]` is 1 when labels[h] was measured.
    std::array<float, kNumMetricHeads> labels{};
    std::array<float, kNumMetricHeads> mask{};
};

class Dataset {
public:
    Dataset() = default;

    std::size_t num_nodes() const { return num_nodes_; }
    const GraphCsr& csr() const { return csr_; }
    std::span<const DatasetSample> samples() const { return samples_; }
    std::size_t size() const { return samples_.size(); }
    int best_reduction() const { return best_reduction_; }
    /// True when at least one sample carries a measured label for `head`
    /// (size and depth always do; LUT labels are opt-in at sampling time).
    bool has_labels(MetricHead head) const {
        return labelled_[static_cast<std::size_t>(head)];
    }

    /// Split into train/test by a deterministic shuffle.
    struct Split {
        std::vector<std::size_t> train;
        std::vector<std::size_t> test;
    };
    Split split(double train_fraction, std::uint64_t seed) const;

    friend Dataset build_dataset(const aig::Aig& design,
                                 std::span<const SampleRecord> records,
                                 const opt::OptParams& params,
                                 const FeatureConfig& cfg, ThreadPool* pool);

private:
    std::size_t num_nodes_ = 0;
    GraphCsr csr_;
    std::vector<DatasetSample> samples_;
    int best_reduction_ = 0;
    std::array<bool, kNumMetricHeads> labelled_{};
};

/// Build a dataset for one design from evaluated sample records.  The
/// design's static features are computed on `pool` when given, else
/// inline.
Dataset build_dataset(const aig::Aig& design,
                      std::span<const SampleRecord> records,
                      const opt::OptParams& params = {},
                      const FeatureConfig& cfg = {},
                      ThreadPool* pool = nullptr);

/// Normalized label for a raw reduction given the dataset's best.
float normalize_label(int reduction, int best_reduction);

/// Range-normalized label: (value − best) / (worst − best) clamped to
/// [0, 1]; 0 when the range is degenerate.  Lower value = better, so 0 is
/// the best sample.  Used for the depth and mapped-LUT label columns.
float range_label(double value, double best, double worst);

}  // namespace bg::core
