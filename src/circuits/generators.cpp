#include "circuits/generators.hpp"

#include <algorithm>

#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace bg::circuits {

using aig::Aig;
using aig::Lit;
using aig::lit_not;
using aig::lit_not_cond;

namespace {

/// Working state threaded through the block builders.
struct Gen {
    Aig g;
    std::vector<Lit> pool;     ///< signals available as block inputs
    std::vector<Lit> outputs;  ///< block outputs, future PO candidates
    bg::Rng rng;

    explicit Gen(std::uint64_t seed) : rng(seed) {}

    Lit pick() {
        return lit_not_cond(pool[rng.next_below(pool.size())],
                            rng.next_bool(0.4));
    }
    /// k distinct pool signals (random polarity).
    std::vector<Lit> pick_distinct(std::size_t k) {
        const auto idx = rng.sample_indices(pool.size(), std::min(k, pool.size()));
        std::vector<Lit> out;
        out.reserve(idx.size());
        for (const auto i : idx) {
            out.push_back(lit_not_cond(pool[i], rng.next_bool(0.4)));
        }
        return out;
    }
    void publish(Lit l) {
        pool.push_back(l);
        outputs.push_back(l);
    }
};

/// Naively expanded SOP: OR of random cubes built with arbitrary literal
/// association, no sharing.  ISOP+factoring (rf) usually shrinks these.
void block_plain_sop(Gen& s) {
    const auto vars = s.pick_distinct(3 + s.rng.next_below(3));
    if (vars.size() < 2) {
        return;
    }
    const std::size_t num_cubes = 2 + s.rng.next_below(4);
    std::vector<Lit> cubes;
    for (std::size_t c = 0; c < num_cubes; ++c) {
        // Random subset of the vars, random polarities, random association.
        std::vector<Lit> lits;
        for (const Lit v : vars) {
            if (s.rng.next_bool(0.7)) {
                lits.push_back(lit_not_cond(v, s.rng.next_bool()));
            }
        }
        if (lits.empty()) {
            lits.push_back(vars[0]);
        }
        s.rng.shuffle(lits);
        Lit acc = lits[0];
        for (std::size_t i = 1; i < lits.size(); ++i) {
            acc = s.g.and_(acc, lits[i]);  // left-assoc: misses sharing
        }
        cubes.push_back(acc);
    }
    s.rng.shuffle(cubes);
    Lit acc = cubes[0];
    for (std::size_t i = 1; i < cubes.size(); ++i) {
        acc = s.g.or_(acc, cubes[i]);
    }
    s.publish(acc);
}

/// Distributed product a·b + a·c (+ a·d): factoring food.
void block_distributed(Gen& s) {
    const Lit a = s.pick();
    const std::size_t terms = 2 + s.rng.next_below(2);
    Lit acc = aig::lit_false;
    for (std::size_t i = 0; i < terms; ++i) {
        acc = s.g.or_(acc, s.g.and_(a, s.pick()));
    }
    s.publish(acc);
}

/// Mux tree of depth 2; often with agreeing data inputs (c ? x : x == x),
/// which 4-cut rewriting collapses.
void block_mux_tree(Gen& s) {
    const Lit s0 = s.pick();
    const Lit s1 = s.pick();
    const Lit a = s.pick();
    const Lit b = s.rng.next_bool(0.45) ? a : s.pick();  // planted degeneracy
    const Lit c = s.pick();
    const Lit d = s.rng.next_bool(0.45) ? c : s.pick();
    const Lit m0 = s.g.mux_(s0, a, b);
    const Lit m1 = s.g.mux_(s0, c, d);
    s.publish(s.g.mux_(s1, m0, m1));
}

/// Four-input-cone redundancies that 4-cut rewriting resolves locally:
/// absorption (a + a b), consensus (a b + !a c + b c), and distributed
/// two-literal products.
void block_rewrite_food(Gen& s) {
    const Lit a = s.pick();
    const Lit b = s.pick();
    const Lit c = s.pick();
    switch (s.rng.next_below(3)) {
        case 0:  // absorption: a + a b == a (2 gates removable)
            s.publish(s.g.and_(s.g.or_(a, s.g.and_(a, b)), c));
            break;
        case 1: {  // consensus: ab + !a c + b c has a redundant term
            const Lit t0 = s.g.and_(a, b);
            const Lit t1 = s.g.and_(lit_not(a), c);
            const Lit t2 = s.g.and_(b, c);
            s.publish(s.g.or_(t0, s.g.or_(t1, t2)));
            break;
        }
        default: {  // a b + a c, a 3-leaf cut that factors to a (b + c)
            s.publish(s.g.or_(s.g.and_(a, b), s.g.and_(a, c)));
            break;
        }
    }
}

/// Ripple-carry adder slice chain with deliberately unfactored majority
/// carries (ab + ac + bc).
void block_adder(Gen& s) {
    const std::size_t bits = 2 + s.rng.next_below(3);
    Lit carry = s.pick();
    for (std::size_t i = 0; i < bits; ++i) {
        const Lit a = s.pick();
        const Lit b = s.pick();
        const Lit axb = s.g.or_(s.g.and_(a, lit_not(b)),
                                s.g.and_(lit_not(a), b));
        const Lit sum = s.g.or_(s.g.and_(axb, lit_not(carry)),
                                s.g.and_(lit_not(axb), carry));
        const Lit new_carry =
            s.g.or_(s.g.and_(a, b),
                    s.g.or_(s.g.and_(a, carry), s.g.and_(b, carry)));
        s.publish(sum);
        carry = new_carry;
    }
    s.publish(carry);
}

/// The same conjunction derived twice with different association orders —
/// resubstitution finds the equal cone.
void block_rederive(Gen& s) {
    auto vars = s.pick_distinct(3 + s.rng.next_below(2));
    if (vars.size() < 3) {
        return;
    }
    Lit left = vars[0];
    for (std::size_t i = 1; i < vars.size(); ++i) {
        left = s.g.and_(left, vars[i]);
    }
    std::reverse(vars.begin(), vars.end());
    Lit right = vars[0];
    for (std::size_t i = 1; i < vars.size(); ++i) {
        right = s.g.and_(right, vars[i]);
    }
    // Use the two derivations in different contexts so both stay alive.
    s.publish(s.g.and_(left, s.pick()));
    s.publish(s.g.or_(right, s.pick()));
}

/// Parity chain realized through expanded AND/OR forms.
void block_parity(Gen& s) {
    const auto vars = s.pick_distinct(3 + s.rng.next_below(2));
    if (vars.size() < 2) {
        return;
    }
    Lit acc = vars[0];
    for (std::size_t i = 1; i < vars.size(); ++i) {
        const Lit x = vars[i];
        acc = s.g.or_(s.g.and_(acc, lit_not(x)), s.g.and_(lit_not(acc), x));
    }
    s.publish(acc);
}

/// Comparator-ish block: equality of two small vectors, expanded naively.
void block_compare(Gen& s) {
    const std::size_t bits = 2 + s.rng.next_below(2);
    Lit acc = aig::lit_true;
    for (std::size_t i = 0; i < bits; ++i) {
        const Lit a = s.pick();
        const Lit b = s.pick();
        const Lit eq = s.g.or_(s.g.and_(a, b),
                               s.g.and_(lit_not(a), lit_not(b)));
        acc = s.g.and_(acc, eq);
    }
    s.publish(acc);
}

/// Control-style next-state logic: wide OR of guarded conditions.
void block_control(Gen& s) {
    const std::size_t guards = 3 + s.rng.next_below(3);
    Lit acc = aig::lit_false;
    for (std::size_t i = 0; i < guards; ++i) {
        acc = s.g.or_(acc, s.g.and_(s.pick(), s.pick()));
    }
    s.publish(acc);
}

}  // namespace

Aig generate_circuit(const GeneratorParams& params) {
    BG_EXPECTS(params.num_pis >= 4, "need at least 4 PIs");
    BG_EXPECTS(params.target_ands >= 16, "target too small");

    Gen s(params.seed);
    for (unsigned i = 0; i < params.num_pis; ++i) {
        s.pool.push_back(s.g.add_pi());
    }

    // Weighted block mix per family.  Rewrite-findable redundancy is the
    // most common kind (as on the real ITC/ISCAS designs, where ABC's
    // rewrite is the strongest single pass — Table I of the paper).
    using BlockFn = void (*)(Gen&);
    std::vector<BlockFn> mix;
    if (params.family == Family::Control) {
        mix = {block_rewrite_food, block_rewrite_food, block_rewrite_food,
               block_mux_tree,     block_mux_tree,     block_control,
               block_control,      block_plain_sop,    block_distributed,
               block_rederive,     block_parity};
    } else {
        mix = {block_rewrite_food, block_rewrite_food, block_mux_tree,
               block_mux_tree,     block_adder,        block_adder,
               block_compare,      block_distributed,  block_plain_sop,
               block_rederive};
    }

    while (s.g.num_ands() < params.target_ands) {
        mix[s.rng.next_below(mix.size())](s);
    }

    // Primary outputs: the most recent block outputs first (they depend on
    // the deepest logic), folded into at most max_pos outputs.
    std::vector<Lit> pos(s.outputs.rbegin(), s.outputs.rend());
    if (pos.size() > params.max_pos) {
        // Fold the overflow into the last slot with an OR spine so all
        // logic stays observable.
        std::vector<Lit> keep(pos.begin(),
                              pos.begin() +
                                  static_cast<std::ptrdiff_t>(params.max_pos - 1));
        Lit spine = aig::lit_false;
        for (std::size_t i = params.max_pos - 1; i < pos.size(); ++i) {
            spine = s.g.or_(spine, pos[i]);
        }
        keep.push_back(spine);
        pos = std::move(keep);
    }
    for (const Lit l : pos) {
        s.g.add_po(l);
    }
    return s.g.compact();
}

Aig dense_random_aig(std::size_t pis, std::size_t ands, std::uint64_t seed) {
    Aig g;
    g.reserve(1 + pis + ands);
    bg::Rng rng(seed);
    std::vector<Lit> pool = g.add_pis(pis);
    pool.reserve(pis + ands);
    while (g.num_ands() < ands) {
        const Lit x = pool[rng.next_u64() % pool.size()];
        const Lit y = pool[rng.next_u64() % pool.size()];
        const Lit z = g.and_(lit_not_cond(x, rng.next_u64() % 2 != 0),
                             lit_not_cond(y, rng.next_u64() % 2 != 0));
        if (!g.is_and(aig::lit_var(z))) {
            continue;  // trivial simplification, no new node
        }
        pool.push_back(z);
    }
    for (std::size_t i = 0; i < 32 && i < pool.size(); ++i) {
        g.add_po(pool[pool.size() - 1 - i]);
    }
    return g;
}

}  // namespace bg::circuits
