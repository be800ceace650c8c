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

MiterEncoding encode_miter(Solver& solver, const aig::Aig& a,
                           const aig::Aig& b) {
    BG_EXPECTS(a.num_pis() == b.num_pis(),
               "miter requires matching PI counts");
    BG_EXPECTS(a.num_pos() == b.num_pos(),
               "miter requires matching PO counts");
    MiterEncoding enc;
    enc.map_a = encode_aig(solver, a);

    // Encode b over the SAME input variables.
    enc.map_b.assign(b.num_slots(), -1);
    enc.map_b[0] = enc.map_a[0];
    for (std::size_t i = 0; i < b.num_pis(); ++i) {
        enc.map_b[b.pi(i)] = enc.map_a[a.pi(i)];
    }
    for (const aig::Var v : b.topo_ands()) {
        enc.map_b[v] = solver.new_var();
        const Lit x = mk_lit(enc.map_b[v]);
        const auto [f0, f1] = b.fanin_refs(v);
        const Lit fa = lit_for(enc.map_b, f0);
        const Lit fb = lit_for(enc.map_b, f1);
        solver.add_clause({lit_neg(x), fa});
        solver.add_clause({lit_neg(x), fb});
        solver.add_clause({x, lit_neg(fa), lit_neg(fb)});
    }

    // XOR selector per PO pair (nothing asserted about the selectors).
    for (std::size_t i = 0; i < a.num_pos(); ++i) {
        const Lit pa = lit_for(enc.map_a, a.po(i));
        const Lit pb = lit_for(enc.map_b, b.po(i));
        const Var x = solver.new_var();
        const Lit xl = mk_lit(x);
        // x <-> (pa XOR pb)
        solver.add_clause({lit_neg(xl), pa, pb});
        solver.add_clause({lit_neg(xl), lit_neg(pa), lit_neg(pb)});
        solver.add_clause({xl, lit_neg(pa), pb});
        solver.add_clause({xl, pa, lit_neg(pb)});
        enc.diff_lits.push_back(xl);
    }
    return enc;
}

}  // namespace bg::sat
