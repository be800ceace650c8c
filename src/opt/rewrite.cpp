#include <algorithm>

#include "cut/cut_enum.hpp"
#include "opt/rewrite_lib.hpp"
#include "opt/transform.hpp"
#include "util/contracts.hpp"

/// \file rewrite.cpp
/// `rw` — DAG-aware 4-cut rewriting (Mishchenko et al., DAC'06): enumerate
/// the 4-feasible cuts of a node, look the cut function up in the
/// pre-optimized structure library, and keep the cut whose replacement
/// (with structural-hash reuse) frees the most nodes.

namespace bg::opt {

using aig::Aig;
using aig::Lit;
using aig::Var;

CheckResult check_rewrite(const Aig& g, Var v, const OptParams& params) {
    params.validate();
    if (!g.is_and(v) || g.is_dead(v)) {
        return {};
    }
    const auto cuts = cut::enumerate_cuts(g, v, params.rewrite_cut_size,
                                          params.rewrite_max_cuts);
    auto& lib = RewriteLibrary::instance();

    CheckResult best;
    for (const auto& c : cuts) {
        const auto& structure = lib.structure_for(c.function);

        Candidate cand;
        // Pad operands to the library's four slots; padding slots are
        // never referenced (the function does not depend on them).
        cand.operands = c.leaves;
        while (cand.operands.size() < 4) {
            cand.operands.push_back(c.leaves.front());
        }
        cand.steps = structure.steps;
        cand.out = structure.out;

        const MffcResult dying = mffc(g, v, c.leaves);
        const int added = count_added_nodes(g, v, cand, dying);
        if (added < 0) {
            continue;  // recipe resolves to the root itself
        }
        const int gain = dying.size() - added;
        if (!best.applicable || gain > best.gain) {
            best.applicable = true;
            best.gain = gain;
            best.cand = std::move(cand);
        }
    }
    const int min_gain = params.allow_zero_gain ? 0 : 1;
    if (!best.applicable || best.gain < min_gain) {
        return {};
    }
    return best;
}

}  // namespace bg::opt
