#pragma once

/// \file solver.hpp
/// A compact CDCL SAT solver (two-watched literals, 1UIP clause learning,
/// VSIDS-style activities, phase saving, geometric restarts) — the engine
/// behind the SAT stage of the equivalence-checking pipeline
/// (sat/cec_sat.hpp, verify/portfolio.hpp).  Deliberately
/// minimal: no clause-database reduction or preprocessing; miters from
/// this library's circuit sizes are comfortably in range.

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

    /// Cap the solver's approximate heap footprint (0 = unlimited).  The
    /// estimate (memory_estimate()) accounts variables, clause literals
    /// and watcher lists — the structures that actually grow on hard
    /// instances, dominated by learned clauses since this solver never
    /// deletes them.  When a solve() crosses the cap it backtracks to
    /// level 0 and returns Result::Unknown with memory_limit_hit() set —
    /// a degrade-don't-die budget, same contract as the conflict budget.
    void set_memory_limit(std::size_t bytes) { memory_limit_ = bytes; }
    std::size_t memory_limit() const { return memory_limit_; }
    /// Approximate bytes held by variables, clauses and watchers.
    std::size_t memory_estimate() const { return mem_bytes_; }
    /// True once any solve() returned Unknown because of the memory cap.
    bool memory_limit_hit() const { return memory_limit_hit_; }

    /// Model access after Result::Sat.
    bool model_value(Var v) const { return model_[static_cast<std::size_t>(v)] == 1; }

    std::uint64_t num_conflicts() const { return conflicts_; }
    std::uint64_t num_decisions() const { return decisions_; }
    std::uint64_t num_propagations() const { return propagations_; }

private:
    struct Clause {
        std::vector<Lit> lits;
        bool learned = false;
    };
    struct Watcher {
        std::int32_t clause = 0;
        Lit blocker = 0;
    };

    // Values: 0 = false, 1 = true, 2 = unassigned (per literal polarity
    // handled by value()).
    std::int8_t value(Lit l) const {
        const std::int8_t a = assigns_[static_cast<std::size_t>(lit_var(l))];
        return a == 2 ? 2 : static_cast<std::int8_t>(a ^ (lit_sign(l) ? 1 : 0));
    }

    void enqueue(Lit l, std::int32_t reason);
    std::int32_t propagate();  ///< returns conflicting clause idx or -1
    void analyze(std::int32_t conflict, std::vector<Lit>& learned,
                 int& backtrack_level);
    void backtrack(int level);
    Lit pick_branch();
    void bump(Var v);
    void decay() { var_inc_ /= 0.95; }
    int decision_level() const { return static_cast<int>(trail_lim_.size()); }
    void attach(std::int32_t ci);

    std::vector<Clause> clauses_;
    std::vector<std::vector<Watcher>> watches_;  // indexed by literal
    std::vector<std::int8_t> assigns_;           // per var: 0/1/2
    std::vector<std::int8_t> phase_;             // saved polarity
    std::vector<int> level_;
    std::vector<std::int32_t> reason_;
    std::vector<Lit> trail_;
    std::vector<std::size_t> trail_lim_;
    std::size_t qhead_ = 0;
    std::vector<double> activity_;
    double var_inc_ = 1.0;
    std::vector<std::int8_t> model_;
    bool unsat_ = false;
    std::function<bool()> interrupt_;
    std::size_t memory_limit_ = 0;  ///< bytes; 0 = unlimited
    std::size_t mem_bytes_ = 0;     ///< running footprint estimate
    bool memory_limit_hit_ = false;

    std::uint64_t conflicts_ = 0;
    std::uint64_t decisions_ = 0;
    std::uint64_t propagations_ = 0;
};

}  // namespace bg::sat
