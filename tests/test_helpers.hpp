#pragma once

/// Shared helpers for the optimization-layer tests: constructing AIGs with
/// *semantic* redundancy (structural hashing cannot see it) so rewrite /
/// resub / refactor have something real to find.

#include <vector>

#include "aig/aig.hpp"
#include "util/rng.hpp"

namespace bg::test {

using aig::Aig;
using aig::Lit;
using aig::lit_not;
using aig::lit_not_cond;

/// Random structurally-hashed AIG (little redundancy; baseline graphs).
inline Aig random_aig(unsigned num_pis, int num_nodes, unsigned num_pos,
                      std::uint64_t seed) {
    bg::Rng rng(seed);
    Aig g;
    const auto pis = g.add_pis(num_pis);
    std::vector<Lit> pool(pis.begin(), pis.end());
    for (int k = 0; k < num_nodes; ++k) {
        const Lit u =
            lit_not_cond(pool[rng.next_below(pool.size())], rng.next_bool());
        const Lit v =
            lit_not_cond(pool[rng.next_below(pool.size())], rng.next_bool());
        pool.push_back(g.and_(u, v));
    }
    for (unsigned k = 0; k < num_pos; ++k) {
        g.add_po(lit_not_cond(pool[pool.size() - 1 - k], (k & 1) != 0));
    }
    return g;
}

/// AIG with planted semantic redundancy:
///  * muxes with agreeing branches   (rw/rf food: f = xa + !xa == a)
///  * distributed products            (rf food: ab + ac vs a(b+c))
///  * re-derived signals              (rs food: two cones computing equal
///                                     functions through different shapes)
inline Aig redundant_aig(unsigned num_pis, int rounds, unsigned num_pos,
                         std::uint64_t seed) {
    bg::Rng rng(seed);
    Aig g;
    const auto pis = g.add_pis(num_pis);
    std::vector<Lit> pool(pis.begin(), pis.end());
    const auto pick = [&] {
        return lit_not_cond(pool[rng.next_below(pool.size())],
                            rng.next_bool());
    };
    for (int k = 0; k < rounds; ++k) {
        switch (rng.next_below(4)) {
            case 0: {  // mux with equal data inputs: c?a:a == a
                const Lit c = pick();
                const Lit a = pick();
                pool.push_back(g.or_(g.and_(c, a), g.and_(lit_not(c), a)));
                break;
            }
            case 1: {  // distributed product ab + ac (factorable)
                const Lit a = pick();
                const Lit b = pick();
                const Lit c = pick();
                pool.push_back(g.or_(g.and_(a, b), g.and_(a, c)));
                break;
            }
            case 2: {  // re-derived: (a&b)&c and a&(b&c) (strash-distinct)
                const Lit a = pick();
                const Lit b = pick();
                const Lit c = pick();
                const Lit left = g.and_(g.and_(a, b), c);
                const Lit right = g.and_(a, g.and_(b, c));
                pool.push_back(g.or_(g.and_(left, pick()), right));
                break;
            }
            default: {  // plain node to keep the graph growing
                pool.push_back(g.and_(pick(), pick()));
                break;
            }
        }
    }
    for (unsigned k = 0; k < num_pos && k < pool.size(); ++k) {
        g.add_po(lit_not_cond(pool[pool.size() - 1 - k], (k & 1) != 0));
    }
    return g;
}

/// Rebuild `source` with the first PO complemented: a definitively
/// inequivalent twin (single-gate mutation at the output boundary).
inline Aig flip_first_po(const Aig& source) {
    const Aig src = source.compact();
    Aig out;
    std::vector<Lit> translate(src.num_slots(), 0);
    translate[0] = aig::lit_false;
    for (std::size_t i = 0; i < src.num_pis(); ++i) {
        translate[src.pi(i)] = out.add_pi();
    }
    for (const aig::Var v : src.topo_ands()) {
        const Lit f0 = src.fanin0(v);
        const Lit f1 = src.fanin1(v);
        translate[v] = out.and_(
            lit_not_cond(translate[aig::lit_var(f0)], aig::lit_is_compl(f0)),
            lit_not_cond(translate[aig::lit_var(f1)], aig::lit_is_compl(f1)));
    }
    for (std::size_t i = 0; i < src.num_pos(); ++i) {
        Lit po = lit_not_cond(translate[aig::lit_var(src.po(i))],
                              aig::lit_is_compl(src.po(i)));
        if (i == 0) {
            po = lit_not(po);
        }
        out.add_po(po);
    }
    return out;
}

}  // namespace bg::test
