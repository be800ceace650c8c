#include "tt/isop.hpp"

#include <algorithm>
#include <vector>

#include "util/contracts.hpp"

namespace bg::tt {

namespace {

/// True iff the `nw`-word table `t` changes when x_v flips.
bool depends_on(const std::uint64_t* t, std::size_t nw, unsigned v) {
    if (v < 6) {
        const unsigned shift = 1U << v;
        for (std::size_t w = 0; w < nw; ++w) {
            if (((t[w] >> shift) ^ t[w]) & ~kProjectionWords[v]) {
                return true;
            }
        }
        return false;
    }
    const std::size_t block = std::size_t{1} << (v - 6);
    for (std::size_t w = 0; w < nw; w += 2 * block) {
        if (!std::equal(t + w, t + w + block, t + w + block)) {
            return true;
        }
    }
    return false;
}

/// The split variable: the highest of x_0..x_{m-1} that `on` or `on_dc`
/// depends on.
unsigned split_var(const std::uint64_t* on, const std::uint64_t* on_dc,
                   std::size_t nw, unsigned m) {
    for (unsigned v = m; v-- > 0;) {
        if (depends_on(on, nw, v) || depends_on(on_dc, nw, v)) {
            return v;
        }
    }
    BG_ASSERT(false, "non-constant interval must have support");
    return 0;
}

/// Mark the cubes [first, last) of `out` with literal `lit_bit` in the
/// positive or negative field.
void add_literal(std::vector<Cube>& out, std::size_t first, std::size_t last,
                 std::uint32_t lit_bit, bool positive) {
    for (std::size_t i = first; i < last; ++i) {
        (positive ? out[i].pos : out[i].neg) |= lit_bit;
    }
}

/// Minato–Morreale on one word, for intervals whose support lies in
/// x_0..x_{m-1} with m <= 6.  `on` must imply `on_dc`.  Appends the cover's
/// cubes to `out` and returns its table.
std::uint64_t isop_word(std::uint64_t on, std::uint64_t on_dc, unsigned m,
                        std::vector<Cube>& out) {
    if (on == 0) {
        return 0;
    }
    if (on_dc == ~0ULL) {
        out.push_back(Cube{});  // constant-1 cube
        return ~0ULL;
    }
    const unsigned var = split_var(&on, &on_dc, 1, m);
    const unsigned shift = 1U << var;
    const std::uint64_t lo = ~kProjectionWords[var];  // x_var = 0
    const auto cof0 = [&](std::uint64_t t) {
        return (t & lo) | ((t & lo) << shift);
    };
    const auto cof1 = [&](std::uint64_t t) {
        return (t & ~lo) | ((t & ~lo) >> shift);
    };
    const std::uint64_t on0 = cof0(on);
    const std::uint64_t on1 = cof1(on);
    const std::uint64_t dc0 = cof0(on_dc);
    const std::uint64_t dc1 = cof1(on_dc);

    // Cubes that must carry the literal !var / var, then the remaining
    // minterms, coverable without the split variable.
    const std::size_t first0 = out.size();
    const std::uint64_t tt0 = isop_word(on0 & ~dc1, dc0, var, out);
    const std::size_t first1 = out.size();
    const std::uint64_t tt1 = isop_word(on1 & ~dc0, dc1, var, out);
    add_literal(out, first0, first1, 1U << var, false);
    add_literal(out, first1, out.size(), 1U << var, true);
    const std::uint64_t tt2 =
        isop_word((on0 & ~tt0) | (on1 & ~tt1), dc0 & dc1, var, out);

    const std::uint64_t cover = (lo & tt0) | (~lo & tt1) | tt2;
    BG_ASSERT((on & ~cover) == 0, "ISOP cover must include the onset");
    BG_ASSERT((cover & ~on_dc) == 0, "ISOP cover must stay within DC bound");
    return cover;
}

/// Minato–Morreale over word arrays.  `on` and `on_dc` hold
/// words_for(m) words and depend on x_0..x_{m-1} only; `on` must imply
/// `on_dc`.  Appends the cover's cubes to `out` and writes its table to
/// `cover`.  Temporaries come from `scratch`, which must hold
/// 5 * words_for(m) words: a frame splitting on var takes five
/// words_for(var)-word tables and hands the rest to its children, whose
/// frames split on lower variables.
void isop_words(const std::uint64_t* on, const std::uint64_t* on_dc,
                unsigned m, std::uint64_t* cover, std::uint64_t* scratch,
                std::vector<Cube>& out) {
    const std::size_t nw = words_for(m);
    if (m <= 6) {
        cover[0] = isop_word(on[0], on_dc[0], m, out);
        return;
    }
    const auto all = [nw](const std::uint64_t* t, std::uint64_t value) {
        return std::all_of(t, t + nw,
                           [value](std::uint64_t w) { return w == value; });
    };
    if (all(on, 0)) {
        std::fill(cover, cover + nw, 0);
        return;
    }
    if (all(on_dc, ~0ULL)) {
        out.push_back(Cube{});  // constant-1 cube
        std::fill(cover, cover + nw, ~0ULL);
        return;
    }
    const unsigned var = split_var(on, on_dc, nw, m);
    if (var < 6) {
        // Every word is the same 6-variable function.
        std::fill(cover, cover + nw,
                  isop_word(on[0], on_dc[0], var + 1, out));
        return;
    }

    // The cofactors of x_var are the two halves of the first
    // words_for(var + 1) words; the words above repeat them.
    const std::size_t half = words_for(var);
    const std::uint64_t* on0 = on;
    const std::uint64_t* on1 = on + half;
    const std::uint64_t* dc0 = on_dc;
    const std::uint64_t* dc1 = on_dc + half;
    std::uint64_t* lo_on = scratch;       // on-set of the first child
    std::uint64_t* lo_dc = lo_on + half;  // bound of the third child
    std::uint64_t* hi_on = lo_dc + half;  // on-set of the second child
    std::uint64_t* tt0 = hi_on + half;
    std::uint64_t* tt1 = tt0 + half;
    std::uint64_t* child_scratch = tt1 + half;

    const std::size_t first0 = out.size();
    for (std::size_t w = 0; w < half; ++w) {
        lo_on[w] = on0[w] & ~dc1[w];
        hi_on[w] = on1[w] & ~dc0[w];
    }
    isop_words(lo_on, dc0, var, tt0, child_scratch, out);
    const std::size_t first1 = out.size();
    isop_words(hi_on, dc1, var, tt1, child_scratch, out);
    add_literal(out, first0, first1, 1U << var, false);
    add_literal(out, first1, out.size(), 1U << var, true);

    // The third child covers what is left; its table goes to hi_on,
    // which the second child no longer needs.
    for (std::size_t w = 0; w < half; ++w) {
        lo_on[w] = (on0[w] & ~tt0[w]) | (on1[w] & ~tt1[w]);
        lo_dc[w] = dc0[w] & dc1[w];
    }
    std::uint64_t* tt2 = hi_on;
    isop_words(lo_on, lo_dc, var, tt2, child_scratch, out);

    for (std::size_t w = 0; w < half; ++w) {
        cover[w] = tt0[w] | tt2[w];
        cover[half + w] = tt1[w] | tt2[w];
    }
    for (std::size_t w = 2 * half; w < nw; w += 2 * half) {
        std::copy(cover, cover + 2 * half, cover + w);
    }
    for (std::size_t w = 0; w < nw; ++w) {
        BG_ASSERT((on[w] & ~cover[w]) == 0,
                  "ISOP cover must include the onset");
        BG_ASSERT((cover[w] & ~on_dc[w]) == 0,
                  "ISOP cover must stay within DC bound");
    }
}

/// Cover of [on, on | dc] (no don't-cares when `dc` is null), or of ~on
/// when `complement_on` is set.  The tables live in one per-thread arena,
/// sized here and never grown while the recursion holds pointers into it.
Sop isop_interval(const TruthTable& on, const TruthTable* dc,
                  bool complement_on) {
    const unsigned nv = on.num_vars();
    const std::size_t nw = on.num_words();
    thread_local std::vector<std::uint64_t> arena;
    if (arena.size() < 8 * nw) {
        arena.resize(8 * nw);
    }
    std::uint64_t* lo = arena.data();
    std::uint64_t* hi = lo + nw;
    std::uint64_t* cover = hi + nw;
    const std::uint64_t flip = complement_on ? ~0ULL : 0;
    for (std::size_t w = 0; w < nw; ++w) {
        lo[w] = on.words()[w] ^ flip;
        hi[w] = lo[w] | (dc != nullptr ? dc->words()[w] : 0);
    }
    std::vector<Cube> cubes;
    isop_words(lo, hi, nv, cover, cover + nw, cubes);
    return Sop(nv, std::move(cubes));
}

}  // namespace

Sop isop(const TruthTable& on, const TruthTable& dc) {
    BG_EXPECTS(on.num_vars() == dc.num_vars(), "width mismatch");
    BG_EXPECTS(on.num_vars() <= 32, "ISOP limited to 32 variables");
    for (std::size_t w = 0; w < on.num_words(); ++w) {
        BG_EXPECTS((on.words()[w] & dc.words()[w]) == 0,
                   "onset and DC-set must be disjoint");
    }
    return isop_interval(on, &dc, false);
}

Sop isop(const TruthTable& f) { return isop_interval(f, nullptr, false); }

Sop isop_best_phase(const TruthTable& f, bool& complemented) {
    Sop pos = isop_interval(f, nullptr, false);
    Sop neg = isop_interval(f, nullptr, true);
    // Compare by literal count, then cube count.
    const auto cost = [](const Sop& s) {
        return std::make_pair(s.num_literals(), s.num_cubes());
    };
    if (cost(neg) < cost(pos)) {
        complemented = true;
        return neg;
    }
    complemented = false;
    return pos;
}

}  // namespace bg::tt
