#pragma once

/// \file cec_sat.hpp
/// SAT-backed combinational equivalence checking: a definitive verdict
/// for designs whose PI count is beyond exhaustive simulation.
///
/// The core is *incremental*: one solver instance holds the strashed
/// miter of sat/cnf.hpp, in which both graphs share every structurally
/// equal node and output pairs that strash to one literal are proven
/// outright.  The remaining per-output XOR selectors are discharged one
/// by one under assumptions, so learned clauses from output i prune the
/// search for output i+1 (what makes multi-output miters cheap).  Every SAT
/// counterexample is re-validated by simulating it against *all* output
/// pairs before NotEquivalent is reported — validation doubles as
/// counterexample reuse (a pattern found for output i refutes via any
/// output it distinguishes), and a solver bug can never produce a false
/// rejection: a counterexample that fails simulation degrades the verdict
/// to ProbablyEquivalent (after a bounded re-solve with that input
/// pattern blocked), it never throws.
///
/// The proving stage of bg::verify::PortfolioCec's pipeline, between
/// exhaustive or pooled-seed simulation and random simulation; `cancel`
/// carries the pipeline's token, which holds the check's deadline on top
/// of the caller's.

#include <vector>

#include "aig/cec.hpp"
#include "sat/cnf.hpp"
#include "util/cancel.hpp"

namespace bg::sat {

struct SatCecOptions {
    /// Lifetime conflict budget for the whole check, shared by every
    /// per-output solve on the incremental instance; falls back to
    /// ProbablyEquivalent when exhausted (< 0 = unlimited).
    std::int64_t conflict_budget = 200000;
    /// Bounded re-solves after a spurious (simulation-refuted)
    /// counterexample: the offending input pattern — proven non-differing
    /// by simulation — is blocked and the output re-solved at most this
    /// many times before the verdict degrades to ProbablyEquivalent.
    int max_spurious_retries = 1;
    /// Cooperative cancellation and the time budget, polled inside the
    /// solver; a stopped token (flag or deadline) degrades the verdict to
    /// ProbablyEquivalent instead of throwing.  Must outlive the call.
    const bg::CancelToken* cancel = nullptr;
    /// Heap cap for the solver instance (its clause arena, watcher lists
    /// and per-variable arrays; learned clauses, which this solver never
    /// deletes, dominate on hard miters); 0 = unlimited.  A hard
    /// miter that crosses the cap degrades to ProbablyEquivalent
    /// (SatCecStats::memory_limited) instead of growing without bound —
    /// the solver budget the multi-tenant server relies on.
    std::size_t max_memory_bytes = 512u << 20;
};

/// Work accounting of one SAT equivalence check.
struct SatCecStats {
    std::size_t outputs_total = 0;
    /// Output pairs proven: strashed to one literal, or Unsat per output.
    std::size_t outputs_proven = 0;
    std::size_t cex_found = 0;       ///< SAT models extracted
    std::size_t spurious_cex = 0;    ///< models that failed simulation
    std::uint64_t conflicts = 0;     ///< solver conflicts spent
    std::size_t memory_bytes = 0;    ///< Solver::memory_estimate()
    bool memory_limited = false;     ///< degraded by max_memory_bytes
};

/// Full outcome of a SAT equivalence check.
struct SatCecResult {
    aig::CecVerdict verdict = aig::CecVerdict::ProbablyEquivalent;
    /// Simulation-validated PI assignment; set exactly when verdict ==
    /// NotEquivalent.
    std::vector<bool> counterexample;
    SatCecStats stats;
};

/// Proven verdicts for equivalence/inequivalence; ProbablyEquivalent only
/// when the conflict budget runs out, the check is cancelled/timed out,
/// or the solver misbehaves (spurious counterexamples).
aig::CecVerdict check_equivalence_sat(const aig::Aig& a, const aig::Aig& b,
                                      const SatCecOptions& opts = {});

/// As check_equivalence_sat, additionally reporting the validated
/// counterexample and work stats.
SatCecResult check_equivalence_sat_full(const aig::Aig& a, const aig::Aig& b,
                                        const SatCecOptions& opts = {});

/// The verdict path for one solver-reported counterexample, exposed for
/// fault-injection tests: simulates `cex` (indexed by PI position) on
/// both designs and returns NotEquivalent when any output pair differs,
/// ProbablyEquivalent otherwise.  Never throws on a bogus counterexample
/// — this is the contract a buggy solver result must not be able to
/// break.
aig::CecVerdict resolve_sat_counterexample(const aig::Aig& a,
                                           const aig::Aig& b,
                                           const std::vector<bool>& cex);

}  // namespace bg::sat
