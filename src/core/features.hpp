#pragma once

/// \file features.hpp
/// The paper's attributed-graph feature embedding (§III-C.1):
///
/// Static features (8 per node, design-dependent only):
///   [0..1]  fanin-edge complementation bits (left, right)
///   [2..3]  rw transformability (0/1) and local gain (−1 when n/a)
///   [4..5]  rs transformability and local gain
///   [6..7]  rf transformability and local gain
/// PI (and constant) rows are filled with −99.
///
/// Dynamic features (4 per node, sample-dependent): one-hot of the
/// operation *actually applied* at the node under the sampled decisions —
/// [none, rw, rs, rf]; PIs are −99-filled.

#include <array>
#include <span>
#include <vector>

#include "aig/aig.hpp"
#include "nn/sage.hpp"
#include "opt/orchestrate.hpp"
#include "opt/transform.hpp"

namespace bg::core {

inline constexpr int static_dim = 8;
inline constexpr int dynamic_dim = 4;
inline constexpr int feature_dim = static_dim + dynamic_dim;
inline constexpr float pi_fill = -99.0F;

/// Feature-set selection, used by the ablation benchmarks.  Disabled
/// groups are zero-filled so the model input width stays `feature_dim`.
struct FeatureConfig {
    bool use_static = true;
    bool use_dynamic = true;
};

/// Per-var static rows for a design (index = Var id; size = num_slots).
using StaticFeatures = std::vector<std::array<float, static_dim>>;
/// Per-var dynamic rows for one sample.
using DynamicFeatures = std::vector<std::array<float, dynamic_dim>>;

/// Compute static features; runs the three read-only transformability
/// checks at every AND node (the dominant cost, cached per design).  The
/// row loop runs on `pool` when given, else inline; it polls
/// `params.cancel` once per row.
StaticFeatures compute_static_features(const aig::Aig& g,
                                       const opt::OptParams& params = {},
                                       ThreadPool* pool = nullptr);

/// Dynamic one-hot rows from an orchestration trace (`applied` indexed by
/// original var id, as produced by opt::orchestrate).
DynamicFeatures compute_dynamic_features(const aig::Aig& g,
                                         std::span<const opt::OpKind> applied);

/// Assemble the flat N x 12 model input for one sample.
std::vector<float> assemble_features(const StaticFeatures& st,
                                     const DynamicFeatures& dy,
                                     const FeatureConfig& cfg = {});
/// Same, written directly into `out` (size N * feature_dim) — batched
/// callers assemble straight into their stacked matrix rows, no
/// per-sample temporary.
void assemble_features_into(const StaticFeatures& st,
                            const DynamicFeatures& dy,
                            const FeatureConfig& cfg, std::span<float> out);

/// Undirected CSR adjacency of the AIG (all slots; PIs/const included,
/// dead slots isolated).  Consumed by the GraphSAGE layers.
using GraphCsr = nn::Csr;

GraphCsr build_csr(const aig::Aig& g);

}  // namespace bg::core
