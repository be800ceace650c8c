#pragma once

/// \file cec.hpp
/// Combinational equivalence checking between two AIGs with identical
/// PI/PO interfaces.  Small-input pairs are decided exactly by exhaustive
/// simulation; larger pairs fall back to extensive random simulation,
/// which can prove inequivalence and otherwise reports "probably
/// equivalent".  Every BoolGebra transformation is additionally correct by
/// construction (window-local truth-table equality), so the random mode is
/// a safety net, not the primary argument.
///
/// This engine and the SAT one (sat/cec_sat.hpp) are the two engines of
/// bg::verify::PortfolioCec's pipeline: exhaustive or pooled-seed
/// simulation first, SAT next, random simulation only when SAT is
/// undecided.  The `cancel` option carries the pipeline's token, which
/// holds the check's deadline on top of the caller's.

#include <cstdint>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "util/cancel.hpp"

namespace bg::aig {

enum class CecVerdict {
    Equivalent,          ///< proven (exhaustive simulation / SAT)
    ProbablyEquivalent,  ///< no counterexample within the budget
    NotEquivalent,       ///< counterexample found (definitive)
};

std::string to_string(CecVerdict v);

struct CecOptions {
    /// Use exhaustive simulation when num_pis <= this bound.
    unsigned exhaustive_pi_limit = 14;
    /// Random words per PI in the fallback (64 patterns each).  Honored
    /// exactly: the budget is split into chunks to bound peak memory, but
    /// precisely this many words are simulated overall.  0 simulates only
    /// the seed patterns (the portfolio prover's first stage).
    std::size_t random_words = 2048;
    std::uint64_t seed = 0xB001'6EB2A;
    /// Cooperative cancellation and the time budget: the token (its flag
    /// or its deadline) is checked between simulation chunks; a stopped
    /// token degrades the verdict to ProbablyEquivalent instead of
    /// throwing.  The pointee must outlive the call.
    const bg::CancelToken* cancel = nullptr;
    /// Counterexample-guided seeds: PI assignments simulated *before* the
    /// random budget on the non-exhaustive path (patterns whose size does
    /// not match the design's PI count are skipped).  The portfolio
    /// prover feeds refuting patterns from earlier jobs here, so a near-
    /// miss rewrite bug that SAT once caught is refuted by simulation in
    /// microseconds on every later job.  The pointee must outlive the
    /// call.
    const std::vector<std::vector<bool>>* seed_patterns = nullptr;
};

/// Full outcome of a simulation equivalence check.
struct CecResult {
    CecVerdict verdict = CecVerdict::ProbablyEquivalent;
    /// One differing PI assignment (indexed by PI position); set exactly
    /// when verdict == NotEquivalent.  Real by construction: it was found
    /// by simulating both designs.
    std::vector<bool> counterexample;
    /// Pattern words actually simulated (seed words + random words) —
    /// equals opts.random_words plus the packed seed words unless the
    /// check refuted, was cancelled or timed out early; 0 on the
    /// exhaustive path.
    std::size_t words_simulated = 0;
};

/// Check that a and b implement the same multi-output function.
/// Throws ContractViolation when the PI/PO counts differ.
CecVerdict check_equivalence(const Aig& a, const Aig& b,
                             const CecOptions& opts = {});

/// As check_equivalence, additionally reporting the counterexample and
/// the exact pattern-budget accounting.
CecResult check_equivalence_full(const Aig& a, const Aig& b,
                                 const CecOptions& opts = {});

/// Convenience predicate: Equivalent or ProbablyEquivalent.
bool likely_equivalent(const Aig& a, const Aig& b,
                       const CecOptions& opts = {});

/// Order-stable 64-bit fingerprint of an AIG's structure: the constant,
/// PI count, every live AND's (renumbered) fanin literal pair in
/// topological order, and the PO literals.  Equal graphs always collide;
/// distinct graphs collide with 2^-64 probability — the key the portfolio
/// prover's result cache uses for "same miter asked twice".
std::uint64_t structural_fingerprint(const Aig& g);

}  // namespace bg::aig
