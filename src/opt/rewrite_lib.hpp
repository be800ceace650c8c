#pragma once

/// \file rewrite_lib.hpp
/// Pre-computed replacement structures for 4-input cut functions, the
/// ingredient that makes `rw` fast (ABC ships an equivalent table of
/// optimized subgraphs per NPN class).
///
/// Structures are built lazily: a function is NPN-canonized, the canonical
/// class is synthesized once by a memoized decomposition search (Shannon /
/// AND / OR / XOR special cases, plus factored-ISOP candidates), and the
/// result is mapped back through the inverse transform.  Every structure
/// is verified by evaluation before being cached, so a transform-direction
/// bug cannot silently corrupt a network.

#include <cstdint>
#include <unordered_map>  // bg-lint: allow(container): lazy NPN caches

#include "opt/transform.hpp"

namespace bg::opt {

class RewriteLibrary {
public:
    /// A recipe over exactly four leaf slots (operand indices 0..3).
    struct Structure {
        std::vector<Candidate::Step> steps;
        aig::Lit out = 0;

        std::size_t num_gates() const { return steps.size(); }
    };

    RewriteLibrary() = default;

    /// Structure computing the 4-variable function `func` over the leaf
    /// slots.  Cached; subsequent calls are O(1).
    const Structure& structure_for(std::uint16_t func);

    /// Number of fully cached functions (diagnostics).
    std::size_t cache_size() const { return cache_.size(); }
    /// Number of canonical classes synthesized so far (diagnostics).
    std::size_t classes_built() const { return canon_cache_.size(); }

    /// This thread's instance: one library per thread (thread_local), so
    /// its unsynchronized caches are never shared between threads.
    static RewriteLibrary& instance();

    /// Evaluate a structure over the four projection functions; exposed
    /// for tests.
    static std::uint16_t evaluate(const Structure& s);

private:
    Structure decompose(std::uint16_t func);

    // Lazily grown, never walked on the hot path (one O(1) probe per
    // structure_for call); a 64k-slot direct-index array per cache per
    // thread would trade ~6 MB/thread for nothing measurable.
    // bg-lint: allow(container): lazy NPN caches, O(1) probes only
    std::unordered_map<std::uint16_t, Structure> cache_;
    // bg-lint: allow(container): lazy NPN caches, O(1) probes only
    std::unordered_map<std::uint16_t, Structure> canon_cache_;
    // bg-lint: allow(container): lazy NPN caches, O(1) probes only
    std::unordered_map<std::uint16_t, Structure> decomp_cache_;
};

}  // namespace bg::opt
