#include "cut/cut_enum.hpp"

#include <algorithm>
#include <array>

#include "aig/footprint.hpp"
#include "util/contracts.hpp"

namespace bg::cut {

using aig::Aig;
using aig::Lit;
using aig::Var;
using tt::TruthTable;

namespace {

/// A sorted set of at most four cut leaves, plus room for the fifth var
/// an expansion may add before it is rejected.
struct LeafSet {
    std::array<Var, 5> v{};
    unsigned n = 0;

    const Var* begin() const { return v.data(); }
    const Var* end() const { return v.data() + n; }
    bool contains(Var u) const {
        return std::find(begin(), end(), u) != end();
    }
    void sort() {  // insertion sort: at most five vars
        for (unsigned a = 1; a < n; ++a) {
            for (unsigned b = a; b > 0 && v[b - 1] > v[b]; --b) {
                std::swap(v[b - 1], v[b]);
            }
        }
    }
    bool operator==(const LeafSet& o) const {
        return n == o.n && std::equal(begin(), end(), o.begin());
    }
};

/// Per-thread scratch of enumerate_cuts: the BFS queue (`frontier` from
/// `head` on) and the leaf sets seen so far.  The expansion budget keeps
/// both short (a few hundred leaf sets at most), so lookups are linear.
struct CutScratch {
    std::vector<LeafSet> frontier;
    std::vector<LeafSet> seen;
};

/// This thread's window for cut and cone functions; enumerate_cuts and
/// cone_function each use it only within one call.
WindowTables& cone_window() {
    thread_local WindowTables window;
    return window;
}

}  // namespace

std::vector<Cut> enumerate_cuts(const Aig& g, Var root, unsigned k,
                                std::size_t max_cuts) {
    BG_EXPECTS(k >= 2 && k <= 4, "cut size must be in [2, 4]");
    BG_EXPECTS(g.is_and(root), "cuts are enumerated for AND nodes");

    aig::fp_touch(root, aig::Read::Struct);
    std::vector<Cut> out;
    thread_local CutScratch s;
    LeafSet trivial;
    trivial.v[0] = root;
    trivial.n = 1;
    s.frontier.assign(1, trivial);
    s.seen.assign(1, trivial);
    std::size_t head = 0;

    // Bound the total expansion work independently of max_cuts.
    std::size_t budget = std::max<std::size_t>(max_cuts * 8, 256);

    while (head < s.frontier.size() && out.size() < max_cuts &&
           budget-- > 0) {
        const LeafSet cut = s.frontier[head++];
        // Try expanding each AND leaf.
        for (unsigned i = 0; i < cut.n; ++i) {
            const Var leaf = cut.v[i];
            aig::fp_touch(leaf, aig::Read::Struct);
            if (!g.is_and(leaf)) {
                continue;
            }
            LeafSet next;
            for (unsigned j = 0; j < cut.n; ++j) {
                if (j != i) {
                    next.v[next.n++] = cut.v[j];
                }
            }
            for (const aig::NodeRef f : g.fanin_refs(leaf)) {
                const Var u = f.index();
                aig::fp_touch(u, aig::Read::Struct);
                if (u != 0 && !next.contains(u)) {
                    next.v[next.n++] = u;
                }
            }
            if (next.n > k) {
                continue;
            }
            next.sort();
            if (std::find(s.seen.begin(), s.seen.end(), next) !=
                s.seen.end()) {
                continue;
            }
            s.seen.push_back(next);
            s.frontier.push_back(next);
            // The trivial cut {root} is skipped; everything else is real.
            if (!(next.n == 1 && next.v[0] == root)) {
                Cut c;
                c.leaves.assign(next.begin(), next.end());
                // At most four leaves: the table is one replicated word.
                WindowTables& window = cone_window();
                window.reset(g, c.leaves);
                c.function = static_cast<std::uint16_t>(
                    window.words(window.add_cone(g, root))[0]);
                out.push_back(std::move(c));
                if (out.size() >= max_cuts) {
                    break;
                }
            }
        }
    }
    return out;
}

std::vector<Var> reconv_cut(const Aig& g, Var root, unsigned max_leaves) {
    BG_EXPECTS(max_leaves >= 2, "a cut needs at least two leaves");
    aig::fp_touch(root, aig::Read::Struct);
    if (!g.is_and(root)) {
        return {};
    }
    std::vector<Var> leaves{root};

    const auto expansion_cost = [&](Var leaf) {
        aig::fp_touch(leaf, aig::Read::Struct);
        int fresh = 0;
        for (const aig::NodeRef f : g.fanin_refs(leaf)) {
            const Var u = f.index();
            aig::fp_touch(u, aig::Read::Struct);
            if (u != 0 &&
                std::find(leaves.begin(), leaves.end(), u) == leaves.end()) {
                ++fresh;
            }
        }
        return fresh - 1;  // removing the leaf itself
    };

    while (true) {
        Var best = aig::null_var;
        int best_cost = 1000;
        for (const Var leaf : leaves) {
            if (!g.is_and(leaf)) {
                continue;
            }
            const int cost = expansion_cost(leaf);
            if (cost < best_cost) {
                best_cost = cost;
                best = leaf;
            }
        }
        if (best == aig::null_var) {
            break;  // all leaves are PIs
        }
        if (leaves.size() + static_cast<std::size_t>(
                                std::max(best_cost, 0)) > max_leaves &&
            best_cost > 0) {
            break;
        }
        // Expand `best`.
        leaves.erase(std::find(leaves.begin(), leaves.end(), best));
        for (const aig::NodeRef f : g.fanin_refs(best)) {
            const Var u = f.index();
            aig::fp_touch(u, aig::Read::Struct);
            if (u != 0 &&
                std::find(leaves.begin(), leaves.end(), u) == leaves.end()) {
                leaves.push_back(u);
            }
        }
        BG_ASSERT(leaves.size() <= max_leaves, "cut expansion overflow");
    }
    if (leaves.size() == 1 && leaves[0] == root) {
        return {};
    }
    std::sort(leaves.begin(), leaves.end());
    return leaves;
}

void WindowTables::reset(const Aig& g, std::span<const Var> leaves) {
    BG_EXPECTS(leaves.size() <= 16, "window tables capped at 16 leaves");
    const unsigned nv = static_cast<unsigned>(leaves.size());
    num_words_ = tt::words_for(nv);
    row_of_.reset(g.num_slots());
    vars_.assign(leaves.begin(), leaves.end());
    arena_.resize(nv * num_words_);
    for (unsigned i = 0; i < nv; ++i) {
        BG_EXPECTS(!row_of_.contains(leaves[i]),
                   "window leaves must be distinct");
        row_of_.slot(leaves[i]) = i;
        std::uint64_t* x = arena_.data() + i * num_words_;
        for (std::size_t w = 0; w < num_words_; ++w) {
            x[w] = i < 6 ? tt::kProjectionWords[i]
                         : (((w >> (i - 6)) & 1U) != 0 ? ~0ULL : 0);
        }
    }
}

std::uint32_t WindowTables::add_and(Var v, aig::NodeRef f0,
                                    aig::NodeRef f1) {
    static constexpr std::uint64_t kZeros[std::size_t{1} << 10] = {};
    const auto r = static_cast<std::uint32_t>(vars_.size());
    arena_.resize(arena_.size() + num_words_);
    const auto table = [&](aig::NodeRef f) {
        return f.index() == 0 ? kZeros : words(row(f.index()));
    };
    const std::uint64_t* a = table(f0);
    const std::uint64_t* b = table(f1);
    const std::uint64_t ca = f0.complemented() ? ~0ULL : 0;
    const std::uint64_t cb = f1.complemented() ? ~0ULL : 0;
    std::uint64_t* out = arena_.data() + r * num_words_;
    for (std::size_t w = 0; w < num_words_; ++w) {
        out[w] = (a[w] ^ ca) & (b[w] ^ cb);
    }
    row_of_.slot(v) = r;
    vars_.push_back(v);
    return r;
}

std::uint32_t WindowTables::add_cone(const Aig& g, Var root) {
    // Iterative post-order evaluation from the root.
    aig::fp_touch(root, aig::Read::Struct);
    stack_.assign(1, root);
    while (!stack_.empty()) {
        const Var v = stack_.back();
        if (contains(v)) {
            stack_.pop_back();
            continue;
        }
        BG_ASSERT(g.is_and(v),
                  "cone walk escaped the cut (leaves do not form a cut)");
        const auto [f0, f1] = g.fanin_refs(v);
        aig::fp_touch(v, aig::Read::Struct);
        const Var u0 = f0.index();
        const Var u1 = f1.index();
        aig::fp_touch(u0, aig::Read::Struct);
        aig::fp_touch(u1, aig::Read::Struct);
        const bool need0 = u0 != 0 && !contains(u0);
        const bool need1 = u1 != 0 && !contains(u1);
        if (need0) {
            stack_.push_back(u0);
        }
        if (need1) {
            stack_.push_back(u1);
        }
        if (need0 || need1) {
            continue;
        }
        stack_.pop_back();
        add_and(v, f0, f1);
    }
    return row(root);
}

TruthTable cone_function(const Aig& g, Var root,
                         std::span<const Var> leaves) {
    WindowTables& window = cone_window();
    window.reset(g, leaves);
    const std::uint32_t r = window.add_cone(g, root);
    TruthTable t(static_cast<unsigned>(leaves.size()));
    std::copy_n(window.words(r), window.num_words(), t.words().begin());
    return t;
}

}  // namespace bg::cut
