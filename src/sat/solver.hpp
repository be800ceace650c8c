#pragma once

/// \file solver.hpp
/// A compact CDCL SAT solver (two-watched literals, 1UIP clause learning,
/// VSIDS-style activities, phase saving, geometric restarts) — the engine
/// behind the SAT stage of the equivalence-checking pipeline
/// (sat/cec_sat.hpp, verify/portfolio.hpp).  Deliberately
/// minimal: no clause-database reduction or preprocessing.
///
/// Its structures are MiniSat's (Eén & Sörensson, SAT'03):
///  - decisions come from a binary order heap over the variables, keyed
///    on activity (descending) and then index (ascending).  Assigned
///    variables are popped lazily and re-inserted on backtrack; a bump
///    sifts its variable up, and the 1e-100 activity rescale rebuilds the
///    heap, because underflow can turn distinct activities into ties;
///  - every clause lives in one flat arena as `[size, lits...]`, and a
///    clause reference is the offset of its size word.
/// The heap picks exactly the variable a linear scan for the highest
/// activity, lowest index would, and the arena keeps each clause's
/// literal order, so the search (every decision, conflict and
/// propagation) is the same as with a scan and one vector per clause;
/// test_sat pins the counts.

#include <cstdint>
#include <functional>
#include <vector>

namespace bg::sat {

using Var = std::int32_t;
using Lit = std::int32_t;  ///< 2*var + sign (sign 1 = negated)

constexpr Lit mk_lit(Var v, bool negated = false) {
    return 2 * v + (negated ? 1 : 0);
}
constexpr Var lit_var(Lit l) { return l >> 1; }
constexpr bool lit_sign(Lit l) { return (l & 1) != 0; }
constexpr Lit lit_neg(Lit l) { return l ^ 1; }

enum class Result {
    Sat,
    Unsat,
    Unknown,  ///< conflict budget exhausted
};

class Solver {
public:
    Solver() = default;

    /// Allocate a fresh variable; returns its index.
    Var new_var();
    int num_vars() const { return static_cast<int>(assigns_.size()); }

    /// Add a clause (empty clause makes the instance trivially UNSAT).
    /// Returns false when the database is already known unsatisfiable.
    bool add_clause(std::vector<Lit> lits);

    /// Solve under optional assumptions.  `conflict_budget` < 0 means
    /// unlimited; the budget counts *lifetime* conflicts, so incremental
    /// callers share one budget across a sequence of solve() calls.
    /// Every return leaves the solver at decision level 0, ready for
    /// add_clause().
    Result solve(const std::vector<Lit>& assumptions = {},
                 std::int64_t conflict_budget = -1);

    /// Cooperative interruption: `cb` is polled every few hundred
    /// conflicts (and at restarts); returning true makes the current and
    /// any later solve() return Result::Unknown.  Pass nullptr to clear.
    /// The SAT CEC uses this for the caller's cancel token and wall-clock
    /// deadline.
    void set_interrupt(std::function<bool()> cb) {
        interrupt_ = std::move(cb);
    }

    /// Cap the solver's heap footprint (0 = unlimited), as measured by
    /// memory_estimate().  When a solve() crosses the cap it backtracks
    /// to level 0 and returns Result::Unknown with memory_limit_hit() set
    /// — a degrade-don't-die budget, same contract as the conflict
    /// budget.  Learned clauses dominate on hard instances, since this
    /// solver never deletes them.
    void set_memory_limit(std::size_t bytes) { memory_limit_ = bytes; }
    std::size_t memory_limit() const { return memory_limit_; }
    /// Bytes allocated for the clause arena, the watcher lists and the
    /// per-variable arrays (capacities, not sizes).
    std::size_t memory_estimate() const;
    /// True once any solve() returned Unknown because of the memory cap.
    bool memory_limit_hit() const { return memory_limit_hit_; }

    /// Model access after Result::Sat.
    bool model_value(Var v) const { return model_[static_cast<std::size_t>(v)] == 1; }

    std::uint64_t num_conflicts() const { return conflicts_; }
    std::uint64_t num_decisions() const { return decisions_; }
    std::uint64_t num_propagations() const { return propagations_; }

private:
    /// Offset of a clause's size word in arena_.
    using CRef = std::int32_t;
    static constexpr CRef kNoClause = -1;

    struct Watcher {
        CRef clause = 0;
        Lit blocker = 0;
    };

    // Values: 0 = false, 1 = true, 2 = unassigned (per literal polarity
    // handled by value()).
    std::int8_t value(Lit l) const {
        const std::int8_t a = assigns_[static_cast<std::size_t>(lit_var(l))];
        return a == 2 ? 2 : static_cast<std::int8_t>(a ^ (lit_sign(l) ? 1 : 0));
    }

    CRef alloc_clause(const std::vector<Lit>& lits);
    void attach(CRef c);
    void watch(Lit l, Watcher w);
    void enqueue(Lit l, CRef reason);
    CRef propagate();  ///< returns the conflicting clause or kNoClause
    /// 1UIP analysis of `conflict` into learned_ (asserting literal
    /// first, the highest-level other literal second).
    void analyze(CRef conflict, int& backtrack_level);
    void backtrack(int level);
    Lit pick_branch();
    void bump(Var v);
    void decay() { var_inc_ /= 0.95; }
    int decision_level() const { return static_cast<int>(trail_lim_.size()); }

    // The order heap: heap_[0] is the variable a decision would take.
    bool heap_before(Var x, Var y) const;
    void heap_up(std::size_t i);
    void heap_down(std::size_t i);
    void heap_insert(Var v);
    Var heap_pop();

    std::vector<Lit> arena_;                     // [size, lits...] per clause
    std::vector<std::vector<Watcher>> watches_;  // indexed by literal
    std::size_t watch_bytes_ = 0;                // sum of list capacities
    std::vector<std::int8_t> assigns_;           // per var: 0/1/2
    std::vector<std::int8_t> phase_;             // saved polarity
    std::vector<int> level_;
    std::vector<CRef> reason_;
    std::vector<Lit> trail_;
    std::vector<std::size_t> trail_lim_;
    std::size_t qhead_ = 0;
    std::vector<double> activity_;
    double var_inc_ = 1.0;
    std::vector<Var> heap_;
    std::vector<std::int32_t> heap_index_;  // position in heap_, -1 = absent
    std::vector<std::int8_t> seen_;         // analyze() scratch, kept clear
    std::vector<Lit> learned_;              // analyze() output
    std::vector<std::int8_t> model_;
    bool unsat_ = false;
    std::function<bool()> interrupt_;
    std::size_t memory_limit_ = 0;  ///< bytes; 0 = unlimited
    bool memory_limit_hit_ = false;

    std::uint64_t conflicts_ = 0;
    std::uint64_t decisions_ = 0;
    std::uint64_t propagations_ = 0;
};

}  // namespace bg::sat
