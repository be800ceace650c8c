#include "sat/cnf.hpp"

#include "util/contracts.hpp"

namespace bg::sat {

std::vector<Var> encode_aig(Solver& solver, const aig::Aig& g) {
    std::vector<Var> map(g.num_slots(), -1);
    // Constant-FALSE node: a variable forced to 0.
    map[0] = solver.new_var();
    solver.add_clause({mk_lit(map[0], true)});
    for (std::size_t i = 0; i < g.num_pis(); ++i) {
        map[g.pi(i)] = solver.new_var();
    }
    for (const aig::Var v : g.topo_ands()) {
        map[v] = solver.new_var();
        const Lit x = mk_lit(map[v]);
        const auto [f0, f1] = g.fanin_refs(v);
        const Lit a = lit_for(map, f0);
        const Lit b = lit_for(map, f1);
        solver.add_clause({lit_neg(x), a});
        solver.add_clause({lit_neg(x), b});
        solver.add_clause({x, lit_neg(a), lit_neg(b)});
    }
    return map;
}

Lit lit_for(const std::vector<Var>& mapping, aig::Lit l) {
    const Var v = mapping[aig::lit_var(l)];
    BG_EXPECTS(v >= 0, "AIG literal was not encoded");
    return mk_lit(v, aig::lit_is_compl(l));
}

Lit lit_for(const std::vector<Var>& mapping, aig::NodeRef r) {
    const Var v = mapping[r.index()];
    BG_EXPECTS(v >= 0, "AIG reference was not encoded");
    return mk_lit(v, r.complemented());
}

namespace {

/// Copy the live ANDs of `g` into `u` over the PIs `pis` through
/// Aig::and_, so nodes matching existing ones are shared; returns g's PO
/// literals in `u`.
std::vector<aig::Lit> strash_into(aig::Aig& u, const std::vector<aig::Lit>& pis,
                                  const aig::Aig& g) {
    std::vector<aig::Lit> map(g.num_slots(), aig::null_lit);
    map[0] = aig::lit_false;
    for (std::size_t i = 0; i < g.num_pis(); ++i) {
        map[g.pi(i)] = pis[i];
    }
    for (const aig::Var v : g.topo_ands()) {
        const auto [f0, f1] = g.fanin_refs(v);
        map[v] = u.and_(aig::lit_not_cond(map[f0.index()], f0.complemented()),
                        aig::lit_not_cond(map[f1.index()], f1.complemented()));
    }
    std::vector<aig::Lit> pos(g.num_pos());
    for (std::size_t i = 0; i < g.num_pos(); ++i) {
        const aig::NodeRef po = g.po_ref(i);
        pos[i] = aig::lit_not_cond(map[po.index()], po.complemented());
    }
    return pos;
}

}  // namespace

MiterEncoding encode_miter(Solver& solver, const aig::Aig& a,
                           const aig::Aig& b) {
    BG_EXPECTS(a.num_pis() == b.num_pis(),
               "miter requires matching PI counts");
    BG_EXPECTS(a.num_pos() == b.num_pos(),
               "miter requires matching PO counts");
    aig::Aig u;
    u.reserve(1 + a.num_pis() + a.num_ands() + b.num_ands());
    const std::vector<aig::Lit> pis = u.add_pis(a.num_pis());
    const std::vector<aig::Lit> po_a = strash_into(u, pis, a);
    const std::vector<aig::Lit> po_b = strash_into(u, pis, b);
    MiterEncoding enc;
    if (po_a == po_b) {
        return enc;  // every pair is proven: no solve reads the union
    }
    const std::vector<Var> map = encode_aig(solver, u);

    enc.pi_vars.reserve(u.num_pis());
    for (std::size_t i = 0; i < u.num_pis(); ++i) {
        enc.pi_vars.push_back(map[u.pi(i)]);
    }
    // XOR selector per PO pair left open (nothing asserted about them).
    for (std::size_t i = 0; i < po_a.size(); ++i) {
        if (po_a[i] == po_b[i]) {
            continue;
        }
        const Lit pa = lit_for(map, po_a[i]);
        const Lit pb = lit_for(map, po_b[i]);
        const Lit xl = mk_lit(solver.new_var());
        // xl <-> (pa XOR pb)
        solver.add_clause({lit_neg(xl), pa, pb});
        solver.add_clause({lit_neg(xl), lit_neg(pa), lit_neg(pb)});
        solver.add_clause({xl, lit_neg(pa), pb});
        solver.add_clause({xl, pa, lit_neg(pb)});
        enc.diff_lits.push_back(xl);
    }
    return enc;
}

}  // namespace bg::sat
