#include "cut/cut_enum.hpp"
#include "opt/transform.hpp"
#include "tt/factor.hpp"
#include "tt/isop.hpp"
#include "util/contracts.hpp"

/// \file refactor.cpp
/// `rf` — refactoring (Brayton, IWLS'06 style): grow one large
/// reconvergence-driven cut, collapse the cone into a truth table, extract
/// an irredundant SOP in the cheaper phase, factor it algebraically, and
/// replace the cone when the factored form is smaller.

namespace bg::opt {

using aig::Aig;
using aig::Lit;
using aig::Var;

namespace {

Candidate candidate_from_factor_form(const tt::FactorForm& ff,
                                     std::vector<Var> operands,
                                     bool complement_out) {
    RecipeBuilder b(operands.size());
    std::vector<Lit> map(ff.nodes().size(), 0);
    for (std::size_t i = 0; i < ff.nodes().size(); ++i) {
        const auto& n = ff.nodes()[i];
        switch (n.kind) {
            case tt::FactorNode::Kind::Const0:
                map[i] = 0;
                break;
            case tt::FactorNode::Kind::Const1:
                map[i] = 1;
                break;
            case tt::FactorNode::Kind::Lit:
                map[i] = Candidate::operand_lit(n.var, n.negated);
                break;
            case tt::FactorNode::Kind::And:
                map[i] = b.add_and(map[static_cast<std::size_t>(n.left)],
                                   map[static_cast<std::size_t>(n.right)]);
                break;
            case tt::FactorNode::Kind::Or:
                map[i] = b.add_or(map[static_cast<std::size_t>(n.left)],
                                  map[static_cast<std::size_t>(n.right)]);
                break;
        }
    }
    Lit out = ff.root() >= 0 ? map[static_cast<std::size_t>(ff.root())] : 0;
    if (complement_out) {
        out = aig::lit_not(out);
    }
    return std::move(b).build(std::move(operands), out);
}

}  // namespace

CheckResult check_refactor(const Aig& g, Var v, const OptParams& params) {
    params.validate();
    if (!g.is_and(v) || g.is_dead(v)) {
        return {};
    }
    const auto leaves = cut::reconv_cut(g, v, params.refactor_max_leaves);
    if (leaves.size() < 2) {
        return {};
    }
    const auto f = cut::cone_function(g, v, leaves);

    bool complement_out = false;
    const auto cover = tt::isop_best_phase(f, complement_out);
    const auto ff = tt::factor(cover);
    Candidate cand = candidate_from_factor_form(ff, leaves, complement_out);

    const MffcResult dying = mffc(g, v, leaves);
    const int added = count_added_nodes(g, v, cand, dying);
    if (added < 0) {
        return {};
    }
    const int gain = dying.size() - added;
    const int min_gain = params.allow_zero_gain ? 0 : 1;
    if (gain < min_gain) {
        return {};
    }
    CheckResult res;
    res.applicable = true;
    res.gain = gain;
    res.cand = std::move(cand);
    return res;
}

}  // namespace bg::opt
