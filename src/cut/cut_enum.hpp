#pragma once

/// \file cut_enum.hpp
/// K-feasible cut enumeration and cone-function computation.  Rewriting
/// consumes 4-feasible cuts; refactoring and resubstitution consume one
/// reconvergence-driven cut per node (ABC's Abc_NodeFindCut heuristic).
///
/// Cone functions are computed in a WindowTables: one flat word arena
/// with an epoch-stamped var-to-row index, kept per thread, so a warm
/// caller allocates nothing per cut or window beyond what it returns.  A
/// 4-feasible cut's table is one word, stored as a 16-bit function.  Every
/// walk declares the vars it reads with fp_touch.

#include <cstdint>
#include <span>
#include <vector>

#include "aig/aig.hpp"
#include "aig/visited.hpp"
#include "tt/truth_table.hpp"

namespace bg::cut {

/// A cut of some root node: the sorted leaf variables plus the root's
/// function over those leaves (leaf i = variable i) as a 4-variable
/// table.  A cut of L < 4 leaves repeats its 2^L-bit pattern across the
/// 16 bits, TruthTable's replication convention.
struct Cut {
    std::vector<aig::Var> leaves;
    std::uint16_t function = 0;
};

/// Enumerate the k-feasible cuts of `root` (excluding the trivial cut
/// {root}) by leaf-expansion closure, for k in [2, 4].  At most
/// `max_cuts` cuts are returned, discovered in BFS order (small cuts
/// first).  Functions are computed for every returned cut.
std::vector<Cut> enumerate_cuts(const aig::Aig& g, aig::Var root, unsigned k,
                                std::size_t max_cuts);

/// Grow one reconvergence-driven cut of `root` with at most `max_leaves`
/// leaves: repeatedly expand the leaf whose expansion adds the fewest new
/// leaves.  Returns an empty vector when the root cannot be expanded at
/// all (e.g. root is a PI).
std::vector<aig::Var> reconv_cut(const aig::Aig& g, aig::Var root,
                                 unsigned max_leaves);

/// Truth tables of one window's nodes over its L leaf variables, in one
/// flat word arena: row r holds the table of var(r), and rows 0..L-1 are
/// the leaves' projections.  add_cone() evaluates a root's cone bounded by
/// the leaves; add_and() appends one more node whose fanins have rows.
/// Keep an instance per thread (thread_local at the call site): once its
/// arrays have grown, a window costs no allocation.  Appending may move
/// the arena, so take words() pointers only after the last append.
class WindowTables {
public:
    /// Start a window over `leaves` (at most 16) of `g`.
    void reset(const aig::Aig& g, std::span<const aig::Var> leaves);

    /// Add every node of the cone of `root` bounded by the leaves, in post
    /// order, and return the root's row.  Every path from root to a PI
    /// must cross a leaf; violations throw.
    std::uint32_t add_cone(const aig::Aig& g, aig::Var root);

    /// Append `v` = f0 & f1; both fanins must have rows (var 0 is the
    /// constant).  Returns v's row.
    std::uint32_t add_and(aig::Var v, aig::NodeRef f0, aig::NodeRef f1);

    bool contains(aig::Var v) const { return row_of_.contains(v); }
    std::uint32_t row(aig::Var v) const { return row_of_.at(v); }
    std::size_t num_rows() const { return vars_.size(); }
    aig::Var var(std::uint32_t row) const { return vars_[row]; }
    std::size_t num_words() const { return num_words_; }
    const std::uint64_t* words(std::uint32_t row) const {
        return arena_.data() + row * num_words_;
    }

private:
    aig::EpochMap<std::uint32_t> row_of_;
    std::vector<aig::Var> vars_;
    std::vector<std::uint64_t> arena_;
    std::vector<aig::Var> stack_;
    std::size_t num_words_ = 1;
};

/// Truth table of `root` over the given leaves (leaf i maps to variable
/// i).  Every path from root to a PI must cross a leaf; violations throw.
tt::TruthTable cone_function(const aig::Aig& g, aig::Var root,
                             std::span<const aig::Var> leaves);

}  // namespace bg::cut
