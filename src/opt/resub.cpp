#include <algorithm>

#include "aig/footprint.hpp"
#include "aig/visited.hpp"
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

namespace bg::opt {

using aig::Aig;
using aig::Lit;
using aig::Var;
using tt::TruthTable;

namespace {

/// Transitive fanout of v (including v) marked into epoch scratch —
/// replaces the per-call hash set; thread_local at the call site keeps
/// concurrently speculated checks independent.  Every member's fanout list is
/// read, so every member is footprint-touched: a later fanout change
/// anywhere in the TFO invalidates a speculated check.
void tfo_mark(const Aig& g, Var v, aig::EpochMarks& out) {
    out.reset(g.num_slots());
    out.set(v);
    std::vector<Var> stack{v};
    while (!stack.empty()) {
        const Var u = stack.back();
        stack.pop_back();
        aig::fp_touch(u, aig::Read::Fanout);
        for (const Var w : g.fanouts(u)) {
            if (out.insert(w)) {
                stack.push_back(w);
            }
        }
    }
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
    auto fns = cut::cone_functions(g, v, leaves);
    const MffcResult dying = mffc(g, v, leaves);
    thread_local aig::EpochMarks dying_set;
    dying_set.reset(g.num_slots());
    for (const Var d : dying.nodes) {
        dying_set.set(d);
    }

    // Divisors: window nodes outside the dying cone, plus side nodes whose
    // support lies inside the window and that are not in the root's TFO.
    std::vector<Var> divisors;
    for (const auto& [var, fn] : fns) {
        if (var != v && !dying_set.test(var)) {
            divisors.push_back(var);
        }
    }
    std::sort(divisors.begin(), divisors.end());  // deterministic order

    thread_local aig::EpochMarks tfo;
    tfo_mark(g, v, tfo);
    bool grew = true;
    while (grew && divisors.size() < params.resub_max_divisors) {
        grew = false;
        const auto snapshot = divisors;
        for (const Var d : snapshot) {
            aig::fp_touch(d, aig::Read::Fanout);  // scans d's fanout list
            for (const Var w : g.fanouts(d)) {
                aig::fp_touch(w, aig::Read::Struct);  // reads w's fanins
                if (fns.contains(w) || tfo.test(w) ||
                    dying_set.test(w)) {
                    continue;
                }
                const auto [f0, f1] = g.fanin_refs(w);
                if (!fns.contains(f0.index()) || !fns.contains(f1.index())) {
                    continue;
                }
                const auto val = [&](aig::NodeRef r) {
                    const auto t = fns.at(r.index());
                    return r.complemented() ? ~t : t;
                };
                fns.emplace(w, val(f0) & val(f1));
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

    const TruthTable& target = fns.at(v);
    const int saved = dying.size();
    const int min_gain = params.allow_zero_gain ? 0 : 1;

    CheckResult best;
    const auto consider = [&](Candidate cand) {
        const int added = count_added_nodes(g, v, cand, dying);
        if (added < 0) {
            return;
        }
        const int gain = saved - added;
        if (!best.applicable || gain > best.gain.size_delta) {
            best.applicable = true;
            best.gain.size_delta = gain;
            cand.est_gain = gain;
            best.cand = std::move(cand);
        }
    };

    // Flatten the divisor functions into contiguous word buffers so the
    // pair/triple matching loops below run without heap allocation (this
    // is the hot path of the whole library).
    const std::size_t words = target.num_words();
    const std::size_t nd = divisors.size();
    std::vector<std::uint64_t> div_words(nd * words);
    for (std::size_t i = 0; i < nd; ++i) {
        const auto& w = fns.at(divisors[i]).words();
        std::copy(w.begin(), w.end(), div_words.begin() +
                                          static_cast<std::ptrdiff_t>(i * words));
    }
    const std::uint64_t* tgt = target.words().data();
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
            Candidate cand;
            cand.operands = {divisors[i]};
            cand.out = Candidate::operand_lit(0, neg);
            cand.est_gain = saved;
            CheckResult res;
            res.applicable = saved >= min_gain;
            res.gain.size_delta = saved;
            res.cand = std::move(cand);
            if (res.applicable) {
                res.gain.depth_delta = estimate_depth_delta(g, v, res.cand);
                return res;
            }
            return {};
        }
    }

    // --- 1-resub: target == (d1^p1 & d2^p2) ^ q ------------------------
    for (std::size_t i = 0; i < nd; ++i) {
        for (std::size_t j = i + 1; j < nd; ++j) {
            for (unsigned pol = 0; pol < 4; ++pol) {
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
    if (best.applicable && best.gain.size_delta >= saved) {
        // Cannot do better than freeing the whole MFFC.
        if (best.gain.size_delta < min_gain) {
            return {};
        }
        best.gain.depth_delta = estimate_depth_delta(g, v, best.cand);
        return best;
    }

    // --- 2-resub: three-divisor two-level forms -------------------------
    // target == (d1^p1 & (d2^p2 & d3^p3)) ^ q      (3-input AND)
    // target == (d1^p1 & (d2^p2 | d3^p3)) ^ q      (AND-OR)
    // Budgeted: windows are small, but the cube of divisors is not.
    std::size_t budget = 20000;
    for (std::size_t i = 0; i < nd && budget > 0; ++i) {
        for (std::size_t j = i + 1; j < nd && budget > 0; ++j) {
            for (std::size_t k = j + 1; k < nd && budget > 0; ++k) {
                for (unsigned pol = 0; pol < 8 && budget > 0; ++pol) {
                    --budget;
                    const std::uint64_t ca = cmask[pol & 1U];
                    const std::uint64_t cb = cmask[(pol >> 1) & 1U];
                    const std::uint64_t cc = cmask[(pol >> 2) & 1U];
                    for (const bool inner_or : {false, true}) {
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

    if (!best.applicable || best.gain.size_delta < min_gain) {
        return {};
    }
    best.gain.depth_delta = estimate_depth_delta(g, v, best.cand);
    return best;
}

}  // namespace bg::opt
