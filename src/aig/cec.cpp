#include "aig/cec.hpp"

#include <algorithm>
#include <bit>

#include "aig/simulation.hpp"
#include "util/rng.hpp"

namespace bg::aig {

std::string to_string(CecVerdict v) {
    switch (v) {
        case CecVerdict::Equivalent:
            return "equivalent";
        case CecVerdict::ProbablyEquivalent:
            return "probably-equivalent";
        case CecVerdict::NotEquivalent:
            return "NOT-equivalent";
    }
    return "?";
}

namespace {

/// Location of the first differing pattern between two PO signature sets.
struct Mismatch {
    bool found = false;
    std::size_t word = 0;
    unsigned bit = 0;
};

Mismatch find_mismatch(const Aig& a, const Aig& b, const SimVectors& pats,
                       std::uint64_t valid_mask_last_word) {
    const auto sa = po_signatures(a, simulate(a, pats));
    const auto sb = po_signatures(b, simulate(b, pats));
    for (std::size_t i = 0; i < sa.size(); ++i) {
        const auto& ra = sa[i];
        const auto& rb = sb[i];
        for (std::size_t w = 0; w < ra.size(); ++w) {
            std::uint64_t diff = ra[w] ^ rb[w];
            if (w + 1 == ra.size()) {
                diff &= valid_mask_last_word;
            }
            if (diff != 0) {
                Mismatch mm;
                mm.found = true;
                mm.word = w;
                mm.bit = static_cast<unsigned>(
                    std::countr_zero(diff));
                return mm;
            }
        }
    }
    return {};
}

}  // namespace

CecResult check_equivalence_full(const Aig& a, const Aig& b,
                                 const CecOptions& opts) {
    BG_EXPECTS(a.num_pis() == b.num_pis(),
               "equivalence check requires matching PI counts");
    BG_EXPECTS(a.num_pos() == b.num_pos(),
               "equivalence check requires matching PO counts");

    CecResult res;
    const std::size_t n = a.num_pis();
    if (n <= opts.exhaustive_pi_limit) {
        const auto pats = exhaustive_patterns(n);
        const std::uint64_t mask =
            n >= 6 ? ~0ULL : ((1ULL << (std::size_t{1} << n)) - 1);
        const Mismatch mm = find_mismatch(a, b, pats, mask);
        if (!mm.found) {
            res.verdict = CecVerdict::Equivalent;
            return res;
        }
        // Minterm index encodes the PI assignment directly.
        const std::uint64_t minterm = 64 * mm.word + mm.bit;
        res.counterexample.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            res.counterexample[i] = ((minterm >> i) & 1ULL) != 0;
        }
        res.verdict = CecVerdict::NotEquivalent;
        return res;
    }

    // Counterexample-guided pre-pass: simulate the caller's seed patterns
    // (refutations pooled from earlier jobs) before spending any of the
    // random budget — a recurring near-miss bug falls here immediately.
    if (opts.seed_patterns != nullptr && !opts.seed_patterns->empty()) {
        std::vector<const std::vector<bool>*> seeds;
        for (const auto& s : *opts.seed_patterns) {
            if (s.size() == n) {
                seeds.push_back(&s);
            }
        }
        if (!seeds.empty()) {
            const std::size_t words = (seeds.size() + 63) / 64;
            SimVectors pats(n, std::vector<std::uint64_t>(words, 0));
            for (std::size_t p = 0; p < seeds.size(); ++p) {
                for (std::size_t i = 0; i < n; ++i) {
                    if ((*seeds[p])[i]) {
                        pats[i][p / 64] |= 1ULL << (p % 64);
                    }
                }
            }
            const std::uint64_t mask =
                seeds.size() % 64 == 0
                    ? ~0ULL
                    : (1ULL << (seeds.size() % 64)) - 1;
            res.words_simulated += words;
            const Mismatch mm = find_mismatch(a, b, pats, mask);
            if (mm.found) {
                res.counterexample.resize(n);
                for (std::size_t i = 0; i < n; ++i) {
                    res.counterexample[i] =
                        ((pats[i][mm.word] >> mm.bit) & 1ULL) != 0;
                }
                res.verdict = CecVerdict::NotEquivalent;
                return res;
            }
        }
    }

    bg::Rng rng(opts.seed);
    // Chunk the budget to bound peak memory, but honor opts.random_words
    // exactly: the final chunk carries whatever remainder is left (the old
    // fixed-round split silently dropped remainders and over-ran budgets
    // smaller than the round count).
    const std::size_t chunk =
        std::max<std::size_t>(1, (opts.random_words + 3) / 4);
    std::size_t remaining = opts.random_words;
    while (remaining > 0) {
        if (opts.cancel != nullptr && opts.cancel->should_stop()) {
            return res;  // ProbablyEquivalent, words so far
        }
        const std::size_t words = std::min(chunk, remaining);
        const auto pats = random_patterns(n, words, rng);
        res.words_simulated += words;
        remaining -= words;
        const Mismatch mm = find_mismatch(a, b, pats, ~0ULL);
        if (mm.found) {
            res.counterexample.resize(n);
            for (std::size_t i = 0; i < n; ++i) {
                res.counterexample[i] =
                    ((pats[i][mm.word] >> mm.bit) & 1ULL) != 0;
            }
            res.verdict = CecVerdict::NotEquivalent;
            return res;
        }
    }
    return res;  // ProbablyEquivalent after the full budget
}

CecVerdict check_equivalence(const Aig& a, const Aig& b,
                             const CecOptions& opts) {
    return check_equivalence_full(a, b, opts).verdict;
}

bool likely_equivalent(const Aig& a, const Aig& b, const CecOptions& opts) {
    return check_equivalence(a, b, opts) != CecVerdict::NotEquivalent;
}

std::uint64_t structural_fingerprint(const Aig& g) {
    // splitmix64-style mixing over a numbering-independent rendering:
    // nodes are renumbered densely (const = 0, PI i = 1 + i, ANDs in
    // topological order after), so tombstones and historical var ids do
    // not perturb the fingerprint.
    std::uint64_t h = 0x9E3779B97F4A7C15ULL;
    const auto mix = [&h](std::uint64_t v) {
        v += 0x9E3779B97F4A7C15ULL;
        v = (v ^ (v >> 30)) * 0xBF58476D1CE4E5B9ULL;
        v = (v ^ (v >> 27)) * 0x94D049BB133111EBULL;
        v ^= v >> 31;
        h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    };
    std::vector<std::uint32_t> renum(g.num_slots(), 0);
    for (std::size_t i = 0; i < g.num_pis(); ++i) {
        renum[g.pi(i)] = static_cast<std::uint32_t>(1 + i);
    }
    std::uint32_t next = static_cast<std::uint32_t>(1 + g.num_pis());
    mix(g.num_pis());
    mix(g.num_pos());
    const auto mapped = [&renum](NodeRef r) {
        return (static_cast<std::uint64_t>(renum[r.index()]) << 1) |
               (r.complemented() ? 1ULL : 0ULL);
    };
    for (const Var v : g.topo_ands()) {
        const auto [f0, f1] = g.fanin_refs(v);
        mix((mapped(f0) << 32) | mapped(f1));
        renum[v] = next++;
    }
    for (std::size_t i = 0; i < g.num_pos(); ++i) {
        mix(mapped(g.po_ref(i)));
    }
    return h;
}

}  // namespace bg::aig
