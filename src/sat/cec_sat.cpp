#include "sat/cec_sat.hpp"

#include <utility>

#include "aig/simulation.hpp"
#include "util/contracts.hpp"

namespace bg::sat {

aig::CecVerdict resolve_sat_counterexample(const aig::Aig& a,
                                           const aig::Aig& b,
                                           const std::vector<bool>& cex) {
    // A malformed counterexample can only come from a solver bug; treat it
    // like any other spurious model instead of propagating garbage.
    if (cex.size() != a.num_pis() || a.num_pis() != b.num_pis() ||
        a.num_pos() != b.num_pos()) {
        return aig::CecVerdict::ProbablyEquivalent;
    }
    aig::SimVectors pats(a.num_pis());
    for (std::size_t i = 0; i < a.num_pis(); ++i) {
        pats[i].assign(1, cex[i] ? 1ULL : 0ULL);
    }
    const auto pa = aig::po_signatures(a, aig::simulate(a, pats));
    const auto pb = aig::po_signatures(b, aig::simulate(b, pats));
    for (std::size_t i = 0; i < pa.size(); ++i) {
        if ((pa[i][0] & 1ULL) != (pb[i][0] & 1ULL)) {
            return aig::CecVerdict::NotEquivalent;
        }
    }
    return aig::CecVerdict::ProbablyEquivalent;
}

SatCecResult check_equivalence_sat_full(const aig::Aig& a, const aig::Aig& b,
                                        const SatCecOptions& opts) {
    BG_EXPECTS(a.num_pis() == b.num_pis(),
               "SAT CEC requires matching PI counts");
    BG_EXPECTS(a.num_pos() == b.num_pos(),
               "SAT CEC requires matching PO counts");

    SatCecResult res;
    res.stats.outputs_total = a.num_pos();

    Solver solver;
    solver.set_memory_limit(opts.max_memory_bytes);
    if (opts.cancel != nullptr) {
        solver.set_interrupt(
            [cancel = opts.cancel] { return cancel->should_stop(); });
    }

    const MiterEncoding enc = encode_miter(solver, a, b);
    // Pairs that strash to one literal need no solve.
    res.stats.outputs_proven = a.num_pos() - enc.diff_lits.size();
    res.stats.memory_bytes = solver.memory_estimate();

    // One solve per remaining output on the same instance.  Learned
    // clauses persist across iterations, and conflict_budget counts
    // lifetime conflicts, so the budget is global across all outputs.
    for (const Lit diff : enc.diff_lits) {
        int retries = 0;
        while (true) {
            const Result r = solver.solve({diff}, opts.conflict_budget);
            res.stats.conflicts = solver.num_conflicts();
            res.stats.memory_bytes = solver.memory_estimate();
            res.stats.memory_limited = solver.memory_limit_hit();
            if (r == Result::Unsat) {
                ++res.stats.outputs_proven;
                break;
            }
            if (r == Result::Unknown) {
                // Budget exhausted (conflicts or memory), cancelled, or
                // timed out.
                res.verdict = aig::CecVerdict::ProbablyEquivalent;
                return res;
            }
            ++res.stats.cex_found;
            std::vector<bool> cex(a.num_pis());
            for (std::size_t j = 0; j < a.num_pis(); ++j) {
                cex[j] = solver.model_value(enc.pi_vars[j]);
            }
            // Validate against *all* output pairs — also the reuse step:
            // a pattern found for this output refutes through any output
            // it distinguishes, skipping their solves entirely.
            if (resolve_sat_counterexample(a, b, cex) ==
                aig::CecVerdict::NotEquivalent) {
                res.verdict = aig::CecVerdict::NotEquivalent;
                res.counterexample = std::move(cex);
                return res;
            }
            // Spurious: the solver produced a model simulation refutes.
            // Never throw from a verdict path — block the offending input
            // pattern (sound: simulation just proved it non-differing),
            // re-solve a bounded number of times, then degrade honestly.
            ++res.stats.spurious_cex;
            if (retries >= opts.max_spurious_retries) {
                res.verdict = aig::CecVerdict::ProbablyEquivalent;
                return res;
            }
            ++retries;
            std::vector<Lit> block;
            block.reserve(a.num_pis());
            for (std::size_t j = 0; j < a.num_pis(); ++j) {
                block.push_back(mk_lit(enc.pi_vars[j], cex[j]));
            }
            if (!solver.add_clause(std::move(block))) {
                // Blocking collapsed the instance (e.g. zero PIs); the
                // solver state is no longer trustworthy here.
                res.verdict = aig::CecVerdict::ProbablyEquivalent;
                return res;
            }
        }
    }
    res.verdict = aig::CecVerdict::Equivalent;
    return res;
}

aig::CecVerdict check_equivalence_sat(const aig::Aig& a, const aig::Aig& b,
                                      const SatCecOptions& opts) {
    return check_equivalence_sat_full(a, b, opts).verdict;
}

}  // namespace bg::sat
