#pragma once

/// \file feature_cache.hpp
/// Incremental static-feature / CSR maintenance for iterated flows.
///
/// A full static-feature rebuild runs three transformability checks at
/// every AND node — the dominant per-round cost once a design reaches
/// tens of thousands of nodes.  Between rounds an iterated flow commits
/// one decision vector, which structurally touches a small cone; every
/// feature row whose *recorded read-set* is disjoint from that touched
/// set is bit-for-bit unchanged, because the footprint instrumentation
/// (aig/footprint.hpp) covers every graph read the row's checks perform.
///
/// The cache stores a 256-bit Bloom signature of each row's read-set and
/// recomputes exactly the rows whose signature intersects the commit's
/// touched set.  Conservative by construction: a Bloom collision only
/// ever recomputes *more* rows, never fewer, so incremental results are
/// bit-identical to a full rebuild (the parity test pins this).
///
/// The CSR adjacency is rebuilt whole each update: it is a linear,
/// allocation-bound pass, noise next to the feature checks.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/features.hpp"

namespace bg {
class ThreadPool;
}  // namespace bg

namespace bg::core {

class FeatureCache {
public:
    bool valid() const { return valid_; }
    void invalidate() { valid_ = false; }

    const StaticFeatures& features() const { return rows_; }
    const GraphCsr& csr() const { return csr_; }
    /// Rows recomputed by the last rebuild()/update() (diagnostics).
    std::size_t last_recomputed() const { return last_recomputed_; }

    /// Full rebuild: every row recomputed (with read-set recording) and
    /// the CSR rebuilt.  The row loop runs on `pool` when given, else
    /// inline.  A row whose read-set overflows aig::kFootprintCap gets a
    /// saturated signature, so it is recomputed after every commit (still
    /// correct, just not incremental for that row).
    void rebuild(const aig::Aig& g, const opt::OptParams& params,
                 ThreadPool* pool = nullptr);

    /// Incremental update after a commit that structurally touched
    /// `touched` (OrchestrationResult::touched): recomputes the rows
    /// whose recorded read-set may intersect it, plus any slots the
    /// commit created.  Requires valid(); the graph must be the same one
    /// the cache was built from, un-compacted (compaction remaps ids —
    /// invalidate() and rebuild instead).
    void update(const aig::Aig& g, const opt::OptParams& params,
                std::span<const aig::Var> touched,
                ThreadPool* pool = nullptr);

private:
    using Bloom = std::array<std::uint64_t, 4>;

    void recompute_rows(const aig::Aig& g, const opt::OptParams& params,
                        std::span<const aig::Var> vars, ThreadPool* pool);

    StaticFeatures rows_;
    GraphCsr csr_;
    std::vector<Bloom> blooms_;
    bool valid_ = false;
    std::size_t last_recomputed_ = 0;
};

}  // namespace bg::core
