#pragma once

/// \file generators.hpp
/// Synthetic benchmark-circuit generation.  The paper evaluates on
/// ISCAS85 / ITC-ISCAS99 netlists, which are not redistributable inside
/// this repository; these generators produce deterministic stand-ins with
/// the properties the experiments actually exercise:
///
///  * sizes matched to the paper's designs,
///  * mixed per-node applicability of rw / rs / rf,
///  * a few percent of *semantic* redundancy (naively expanded SOPs,
///    distributed products, re-derived cones, degenerate muxes) that
///    structural hashing cannot remove but DAG-aware optimization can.
///
/// Users with the real netlists can load them through bg::io::read_bench.

#include <cstddef>
#include <cstdint>
#include <string>

#include "aig/aig.hpp"

namespace bg::circuits {

/// Family knob: ITC'99 b* designs are control-dominated, ISCAS85 c*
/// designs are arithmetic/mux-rich.  The mix of generated blocks differs.
enum class Family {
    Control,     ///< b07..b12-like
    Arithmetic,  ///< c2670 / c5315-like
};

struct GeneratorParams {
    unsigned num_pis = 32;
    /// Stop adding logic blocks once the AND count reaches this value
    /// (the compacted result lands within a few percent of it).
    std::size_t target_ands = 400;
    std::size_t max_pos = 32;
    Family family = Family::Control;
    std::uint64_t seed = 1;
};

/// Generate one circuit; deterministic in `params`.
aig::Aig generate_circuit(const GeneratorParams& params);

/// Dense random AIG for scale tests and benches: `ands` two-input ANDs
/// over a growing pool of randomly complemented literals with only `pis`
/// PIs, so the graph is deep and fanout-heavy like real netlists; the 32
/// newest nodes drive the POs.  Returned uncompacted, so ANDs that reach
/// no PO are still counted in num_ands(); deterministic in `seed`.
aig::Aig dense_random_aig(std::size_t pis, std::size_t ands,
                          std::uint64_t seed);

}  // namespace bg::circuits
