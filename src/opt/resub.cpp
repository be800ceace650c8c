#include <algorithm>

#include "aig/footprint.hpp"
#include "cut/cut_enum.hpp"
#include "opt/transform.hpp"
#include "util/contracts.hpp"

/// \file resub.cpp
/// `rs` — window-based resubstitution: express a node as a small function
/// of *divisors* (other nodes already present in the window) so its MFFC
/// can be freed.  Checks 0-resub (equal / complemented divisor), 1-resub
/// (AND/OR of two divisors in any polarity) and 2-resub (three-divisor
/// two-level forms).  Divisor and root functions are computed over the
/// same window leaves, so a truth-table match implies global equivalence.
///
/// The window is bounded, as in ABC's resubstitution (Mishchenko et al.,
/// IWLS'06): its tables live in a per-thread WindowTables, and a side
/// node joins only when both fanins are in the window and neither is the
/// root.  No walk of the root's transitive fanout (TFO) is needed: every
/// window node but the root lies in the root's fanin cone, so by
/// induction no admitted divisor is in the TFO.  The match loops run on
/// flat word buffers, and a divisor polarity that covers neither the
/// target nor its complement is never matched.

namespace bg::opt {

using aig::Aig;
using aig::Lit;
using aig::Var;

namespace {

/// Number of (j, k) pairs times the 8 polarities that the 2-resub scan
/// visits for its first divisor i of nd.
std::size_t triple_row_steps(std::size_t nd, std::size_t i) {
    const std::size_t rest = nd - 1 - i;
    return rest < 2 ? 0 : rest * (rest - 1) / 2 * 8;
}

}  // namespace

CheckResult check_resub(const Aig& g, Var v, const OptParams& params) {
    params.validate();
    if (!g.is_and(v) || g.is_dead(v)) {
        return {};
    }
    const auto leaves = cut::reconv_cut(g, v, params.resub_max_leaves);
    if (leaves.size() < 2) {
        return {};
    }
    thread_local cut::WindowTables window;
    window.reset(g, leaves);
    const std::uint32_t root_row = window.add_cone(g, v);
    // The dying cone lies inside the window, so it is marked per row.
    const MffcResult dying = mffc(g, v, leaves);
    thread_local std::vector<char> dying_row;
    dying_row.assign(window.num_rows(), 0);
    for (const Var d : dying.nodes) {
        BG_ASSERT(window.contains(d), "the MFFC escaped the window");
        dying_row[window.row(d)] = 1;
    }

    // Divisors: window nodes outside the dying cone, plus side nodes whose
    // fanins lie in the window and that are not in the root's TFO.
    thread_local std::vector<Var> divisors;
    divisors.clear();
    for (std::uint32_t r = 0; r < window.num_rows(); ++r) {
        if (r != root_row && dying_row[r] == 0) {
            divisors.push_back(window.var(r));
        }
    }
    std::sort(divisors.begin(), divisors.end());  // deterministic order

    bool grew = true;
    while (grew && divisors.size() < params.resub_max_divisors) {
        grew = false;
        // Each round scans the divisors present when it began.
        const std::size_t scanned = divisors.size();
        for (std::size_t i = 0; i < scanned; ++i) {
            const Var d = divisors[i];
            aig::fp_touch(d, aig::Read::Fanout);  // scans d's fanout list
            for (const Var w : g.fanouts(d)) {
                aig::fp_touch(w, aig::Read::Struct);  // reads w's fanins
                if (window.contains(w)) {
                    continue;
                }
                const auto [f0, f1] = g.fanin_refs(w);
                if (!window.contains(f0.index()) ||
                    !window.contains(f1.index())) {
                    continue;
                }
                // Both fanins are window nodes, and only the root among
                // them is in its own TFO, so w is in the TFO iff one of
                // its fanins is the root.
                if (f0.index() == v || f1.index() == v) {
                    continue;
                }
                window.add_and(w, f0, f1);
                divisors.push_back(w);
                grew = true;
                if (divisors.size() >= params.resub_max_divisors) {
                    break;
                }
            }
            if (divisors.size() >= params.resub_max_divisors) {
                break;
            }
        }
    }

    const int saved = dying.size();
    const int min_gain = params.allow_zero_gain ? 0 : 1;

    CheckResult best;
    const auto consider = [&](Candidate cand) {
        const int added = count_added_nodes(g, v, cand, dying);
        if (added < 0) {
            return;
        }
        const int gain = saved - added;
        if (!best.applicable || gain > best.gain) {
            best.applicable = true;
            best.gain = gain;
            best.cand = std::move(cand);
        }
    };

    // Gather the divisor functions, in divisor order, into one contiguous
    // word buffer so the pair/triple matching loops below run without
    // heap allocation (this is the hot path of the whole library).
    const std::size_t words = window.num_words();
    const std::size_t nd = divisors.size();
    thread_local std::vector<std::uint64_t> div_words;
    div_words.resize(nd * words);
    for (std::size_t i = 0; i < nd; ++i) {
        const std::uint64_t* t = window.words(window.row(divisors[i]));
        std::copy(t, t + words, div_words.begin() +
                                    static_cast<std::ptrdiff_t>(i * words));
    }
    const std::uint64_t* tgt = window.words(root_row);
    const auto dw = [&](std::size_t i) { return &div_words[i * words]; };

    // match: value == target (r=+1), == ~target (r=-1), else 0; where
    // value[w] = (a[w]^ca) & (b[w]^cb)  [cb2/c used for the 3-input forms].
    const auto match2 = [&](const std::uint64_t* a, std::uint64_t ca,
                            const std::uint64_t* b, std::uint64_t cb) -> int {
        bool pos = true;
        bool neg = true;
        for (std::size_t w = 0; w < words; ++w) {
            const std::uint64_t val = (a[w] ^ ca) & (b[w] ^ cb);
            pos &= val == tgt[w];
            neg &= val == ~tgt[w];
            if (!pos && !neg) {
                return 0;
            }
        }
        return pos ? 1 : -1;
    };
    const auto match3 = [&](const std::uint64_t* a, std::uint64_t ca,
                            const std::uint64_t* b, std::uint64_t cb,
                            const std::uint64_t* c, std::uint64_t cc,
                            bool inner_or) -> int {
        bool pos = true;
        bool neg = true;
        for (std::size_t w = 0; w < words; ++w) {
            const std::uint64_t bb = b[w] ^ cb;
            const std::uint64_t ccw = c[w] ^ cc;
            const std::uint64_t inner = inner_or ? (bb | ccw) : (bb & ccw);
            const std::uint64_t val = (a[w] ^ ca) & inner;
            pos &= val == tgt[w];
            neg &= val == ~tgt[w];
            if (!pos && !neg) {
                return 0;
            }
        }
        return pos ? 1 : -1;
    };
    constexpr std::uint64_t cmask[2] = {0ULL, ~0ULL};

    // --- 0-resub: a single divisor already computes the function. -------
    for (std::size_t i = 0; i < nd; ++i) {
        bool pos = true;
        bool neg = true;
        for (std::size_t w = 0; w < words; ++w) {
            pos &= dw(i)[w] == tgt[w];
            neg &= dw(i)[w] == ~tgt[w];
        }
        if (pos || neg) {
            if (saved < min_gain) {
                return {};
            }
            CheckResult res;
            res.applicable = true;
            res.gain = saved;
            res.cand.operands = {divisors[i]};
            res.cand.out = Candidate::operand_lit(0, neg);
            return res;
        }
    }

    // covers[2 * i + c]: bit 0 is set when divisor i in polarity c (1 =
    // complemented) covers the target, bit 1 when it covers ~target.  An
    // AND equals +-target only if each of its inputs covers that side, so
    // a tuple whose cover bits share no side cannot match.
    thread_local std::vector<unsigned> covers;
    covers.resize(2 * nd);
    for (std::size_t i = 0; i < nd; ++i) {
        bool pos_covers_tgt = true;
        bool pos_covers_not = true;
        bool neg_covers_tgt = true;
        bool neg_covers_not = true;
        for (std::size_t w = 0; w < words; ++w) {
            const std::uint64_t d = dw(i)[w];
            pos_covers_tgt &= (tgt[w] & ~d) == 0;
            pos_covers_not &= (~tgt[w] & ~d) == 0;
            neg_covers_tgt &= (tgt[w] & d) == 0;
            neg_covers_not &= (~tgt[w] & d) == 0;
        }
        covers[2 * i] = (pos_covers_tgt ? 1U : 0U) | (pos_covers_not ? 2U : 0U);
        covers[2 * i + 1] =
            (neg_covers_tgt ? 1U : 0U) | (neg_covers_not ? 2U : 0U);
    }
    const auto cov = [&](std::size_t i, unsigned pol_bit) {
        return covers[2 * i + pol_bit];
    };

    // --- 1-resub: target == (d1^p1 & d2^p2) ^ q ------------------------
    for (std::size_t i = 0; i < nd; ++i) {
        for (std::size_t j = i + 1; j < nd; ++j) {
            for (unsigned pol = 0; pol < 4; ++pol) {
                if ((cov(i, pol & 1U) & cov(j, (pol >> 1) & 1U)) == 0) {
                    continue;
                }
                const int m = match2(dw(i), cmask[pol & 1U], dw(j),
                                     cmask[(pol >> 1) & 1U]);
                if (m == 0) {
                    continue;
                }
                Candidate cand;
                cand.operands = {divisors[i], divisors[j]};
                cand.steps = {{Candidate::operand_lit(0, (pol & 1U) != 0),
                               Candidate::operand_lit(1, (pol & 2U) != 0)}};
                cand.out = cand.step_lit(0, m < 0);
                consider(std::move(cand));
            }
        }
    }
    if (best.applicable && best.gain >= saved) {
        // Cannot do better than freeing the whole MFFC.
        if (best.gain < min_gain) {
            return {};
        }
        return best;
    }

    // --- 2-resub: three-divisor two-level forms -------------------------
    // target == (d1^p1 & (d2^p2 & d3^p3)) ^ q      (3-input AND)
    // target == (d1^p1 & (d2^p2 | d3^p3)) ^ q      (AND-OR)
    // Budgeted: windows are small, but the cube of divisors is not.  Each
    // (i, j, k, polarity) step costs one unit of budget whether it is
    // matched or pruned, and a pruned row is charged its steps, so the
    // same tuples reach `consider` in the same order as a full scan.
    //
    // Beyond the cover bits, the AND-OR form needs (d_i^p1) & (d_x^px)
    // inside the side it matches, for x = j and x = k:
    // inside[4 * x + 2 * p1 + px] holds those sides for the current i.
    thread_local std::vector<unsigned> inside;
    inside.resize(4 * nd);
    const auto in = [&](std::size_t x, unsigned p1, unsigned px) {
        return inside[4 * x + 2 * p1 + px];
    };
    std::size_t budget = 20000;
    for (std::size_t i = 0; i < nd && budget > 0; ++i) {
        if ((cov(i, 0) | cov(i, 1)) == 0) {
            // No polarity of d_i covers either side: no tuple it leads
            // can match.
            budget -= std::min(budget, triple_row_steps(nd, i));
            continue;
        }
        for (std::size_t x = i + 1; x < nd; ++x) {
            for (unsigned p = 0; p < 4; ++p) {
                bool in_tgt = true;
                bool in_not = true;
                for (std::size_t w = 0; w < words; ++w) {
                    const std::uint64_t val = (dw(i)[w] ^ cmask[p >> 1]) &
                                              (dw(x)[w] ^ cmask[p & 1U]);
                    in_tgt &= (val & ~tgt[w]) == 0;
                    in_not &= (val & tgt[w]) == 0;
                }
                inside[4 * x + p] = (in_tgt ? 1U : 0U) | (in_not ? 2U : 0U);
            }
        }
        for (std::size_t j = i + 1; j < nd && budget > 0; ++j) {
            unsigned reach = 0;
            for (unsigned p = 0; p < 4; ++p) {
                reach |= cov(i, p >> 1) &
                         (cov(j, p & 1U) | in(j, p >> 1, p & 1U));
            }
            if (reach == 0) {
                // No tuple led by (d_i, d_j) can match.
                budget -= std::min(budget, (nd - 1 - j) * 8);
                continue;
            }
            for (std::size_t k = j + 1; k < nd && budget > 0; ++k) {
                for (unsigned pol = 0; pol < 8 && budget > 0; ++pol) {
                    --budget;
                    const unsigned pa = pol & 1U;
                    const unsigned pb = (pol >> 1) & 1U;
                    const unsigned pc = (pol >> 2) & 1U;
                    const unsigned and_sides = cov(i, pa) & cov(j, pb) &
                                               cov(k, pc);
                    const unsigned or_sides = cov(i, pa) & in(j, pa, pb) &
                                              in(k, pa, pc);
                    if ((and_sides | or_sides) == 0) {
                        continue;
                    }
                    const std::uint64_t ca = cmask[pa];
                    const std::uint64_t cb = cmask[pb];
                    const std::uint64_t cc = cmask[pc];
                    for (const bool inner_or : {false, true}) {
                        if ((inner_or ? or_sides : and_sides) == 0) {
                            continue;
                        }
                        const int m = match3(dw(i), ca, dw(j), cb, dw(k), cc,
                                             inner_or);
                        if (m == 0) {
                            continue;
                        }
                        Candidate cand;
                        cand.operands = {divisors[i], divisors[j],
                                         divisors[k]};
                        const Lit la =
                            Candidate::operand_lit(0, (pol & 1U) != 0);
                        const Lit lb =
                            Candidate::operand_lit(1, (pol & 2U) != 0);
                        const Lit lc =
                            Candidate::operand_lit(2, (pol & 4U) != 0);
                        if (inner_or) {
                            // b | c == !(!b & !c)
                            cand.steps = {{aig::lit_not(lb), aig::lit_not(lc)},
                                          {la, 0}};
                            cand.steps[1].in1 = cand.step_lit(0, true);
                        } else {
                            cand.steps = {{lb, lc}, {la, 0}};
                            cand.steps[1].in1 = cand.step_lit(0, false);
                        }
                        cand.out = cand.step_lit(1, m < 0);
                        consider(std::move(cand));
                    }
                }
            }
        }
    }

    if (!best.applicable || best.gain < min_gain) {
        return {};
    }
    return best;
}

}  // namespace bg::opt
