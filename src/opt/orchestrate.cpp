#include "opt/orchestrate.hpp"

#include <algorithm>
#include <array>

#include "aig/footprint.hpp"
#include "util/contracts.hpp"
#include "util/csv.hpp"
#include "util/parallel.hpp"

#ifdef BOOLGEBRA_AUDIT
// Audit builds cross-check every speculation's shadow read-set against
// its declared footprint and every commit's state diff against the
// journal (docs/static-analysis.md).  Normal builds compile none of it.
#include "aig/audit.hpp"
#include "analysis/soundness.hpp"
#endif

namespace bg::opt {

using aig::Aig;
using aig::Var;

namespace {

/// Detaches the graph's mutation journal on every exit path, so a
/// throwing check or a cancel never leaves it appending to a dead vector.
struct JournalGuard {
    Aig& g;
    ~JournalGuard() { g.set_change_log(nullptr); }
};

/// Whether `objective` accepts the applicable `check` at `v`: the one
/// place either walk reads levels.  Under needs_depth() the levels are
/// refreshed if an apply happened since the last refresh, and the gain
/// carries the candidate's estimate_depth_delta.  Both walks call this
/// between a check and its apply, with no speculation running, so the
/// estimate sees the graph the sequential walk sees at that candidate.
bool judge(Aig& g, Var v, const CheckResult& check,
           const Objective& objective, bool& levels_stale) {
    Gain gain{check.gain, 0};
    if (objective.needs_depth()) {
        if (levels_stale) {
            g.update_levels();
            levels_stale = false;
        }
        gain.depth_delta = estimate_depth_delta(g, v, check.cand);
    }
    return objective.accepts(gain);
}

}  // namespace

OrchestrationResult orchestrate(Aig& g, std::span<const OpKind> decisions,
                                const OptParams& params,
                                const Objective& objective) {
    BG_EXPECTS(decisions.size() >= g.num_slots(),
               "decision vector must cover every var id");
    params.validate();
    OrchestrationResult res;
    res.original_size = g.num_ands();
    res.original_depth = g.depth();  // freshens levels as a side effect
    res.applied.assign(g.num_slots(), OpKind::None);
    bool levels_stale = false;

#ifdef BOOLGEBRA_AUDIT
    // Audit builds journal the pass and check the journal covers every
    // write.
    std::vector<Var> journal;
    g.set_change_log(&journal);
    const JournalGuard journal_guard{g};
    analysis::WriteAudit write_audit;
    write_audit.capture(g);
#endif

    // Snapshot the traversal order; nodes created by transformations get
    // higher ids and are deliberately not revisited in this pass.
    const auto order = g.topo_ands();
    for (const Var v : order) {
        if (g.is_dead(v)) {
            continue;  // consumed by an earlier transformation
        }
        const OpKind op = decisions[v];
        if (op == OpKind::None) {
            continue;
        }
        poll_cancel(params.cancel, "orchestrate");
        ++res.num_checked;
        const CheckResult check = check_op(g, v, op, params);
        if (!check.applicable) {
            continue;
        }
        if (!judge(g, v, check, objective, levels_stale)) {
            ++res.num_rejected;
            continue;
        }
        apply_candidate(g, v, check.cand);
        levels_stale = true;
        res.applied[v] = op;
        ++res.num_applied;
    }
#ifdef BOOLGEBRA_AUDIT
    g.set_change_log(nullptr);
    write_audit.verify(g, journal, "orchestrate pass");
#endif
    res.final_size = g.num_ands();
    res.final_depth = g.depth();
    return res;
}

OrchestrationResult orchestrate_parallel(Aig& g,
                                         std::span<const OpKind> decisions,
                                         const OptParams& params,
                                         const Objective& objective,
                                         const IntraParallel& intra) {
    // Poolless calls take the sequential path, which is the definition of
    // correct.
    if (intra.pool == nullptr || intra.pool->size() < 2) {
        return orchestrate(g, decisions, params, objective);
    }
    BG_EXPECTS(decisions.size() >= g.num_slots(),
               "decision vector must cover every var id");
    params.validate();
    OrchestrationResult res;
    res.original_size = g.num_ands();
    res.original_depth = g.depth();  // freshens levels, as sequential does
    res.applied.assign(g.num_slots(), OpKind::None);
    bool levels_stale = false;

    // Candidate roots in the exact sequential visit order.
    const auto order = g.topo_ands();
    std::vector<Var> roots;
    roots.reserve(order.size());
    for (const Var v : order) {
        if (decisions[v] != OpKind::None) {
            roots.push_back(v);
        }
    }

    // One speculation slot per candidate: the check result, the recorded
    // read-set, and the commit count it was speculated against.
    struct Spec {
        CheckResult check;
        aig::ReadFootprint fp;
        std::uint64_t epoch = 0;
    };
    std::vector<Spec> specs(roots.size());

    // dirty[k][u] = index (1-based) of the last commit that changed
    // aspect k of var u; a speculation is valid iff no aspect it read was
    // changed after its epoch.  The split matters: deref walks repaint
    // reference counts across whole shared cones, and without it they
    // invalidate every neighbor that merely enumerated cuts through them.
    std::array<std::vector<std::uint64_t>, 3> dirty;
    for (auto& d : dirty) {
        d.assign(g.num_slots(), 0);
    }
    std::uint64_t commits_done = 0;
    std::vector<Var> journal;
    g.set_change_log(&journal);
    const JournalGuard journal_guard{g};

    // A speculation is consumable iff no aspect it read changed after its
    // epoch (overflowed footprints read "everything" and are never
    // consumable).
    const auto spec_valid = [&dirty](const Spec& s) {
        if (s.fp.overflow) {
            return false;
        }
        for (const auto e : s.fp.vars) {
            if (dirty[aig::fp_entry_kind(e)][aig::fp_entry_var(e)] >
                s.epoch) {
                return false;
            }
        }
        return true;
    };

    // Check candidate j against the graph as left by `epoch` commits and
    // record its read-set (audit builds also check that read-set against
    // the reads the accessors observed).  Read-only: nothing mutates the
    // graph while a speculation round runs, so concurrent calls for
    // distinct candidates see one frozen graph.
    const auto speculate = [&](std::size_t j, std::uint64_t epoch) {
        const Var v = roots[j];
        Spec& s = specs[j];
        s.fp.clear();
        s.epoch = epoch;
#ifdef BOOLGEBRA_AUDIT
        thread_local aig::audit::ShadowSet shadow;
        shadow.clear();
        const aig::audit::ShadowScope audit_scope(shadow);
#endif
        const aig::FootprintScope scope(s.fp);
        s.check = check_op(g, v, decisions[v], params);
#ifdef BOOLGEBRA_AUDIT
        analysis::verify_read_soundness(s.fp, shadow, v,
                                        to_string(decisions[v]));
#endif
    };

    // Waves cap at 16 candidates per worker: every commit inside a wave
    // can stale the wave's tail, so oversized waves just re-speculate the
    // same candidates over and over (measured ~2.7x redundant check work
    // at 2048 vs ~1.8x at 16 per worker on a 4-worker pool, with no
    // utilization win).  A fresh wave speculates at a fresh epoch, which
    // is what keeps the conflict rate low.
    const std::size_t wave_cap = 16 * intra.pool->size();
#ifdef BOOLGEBRA_AUDIT
    analysis::WriteAudit write_audit;
#endif
    std::size_t first = 0;
    std::vector<std::size_t> stale;
    while (first < roots.size()) {
        const std::size_t last = std::min(first + wave_cap, roots.size());
        const std::uint64_t epoch = commits_done;

        // One pool index per candidate: check costs vary ~10x between
        // ops, and the pool hands indices out dynamically.  Dead
        // candidates stay dead for the rest of the pass, so skipping them
        // here can never desynchronize from the commit walk.
        intra.pool->for_each(last - first, [&](std::size_t k) {
            if (!g.is_dead(roots[first + k])) {
                speculate(first + k, epoch);
            }
        });
        res.num_speculated += last - first;

        // Ordered commit: candidates in sequential order; a speculation
        // whose read-set a prior commit touched is rolled back and
        // re-checked against the current graph (speculation is read-only,
        // so rollback is just discarding the stale result) — in parallel
        // re-speculation rounds when a whole tail went stale, inline when
        // it is just a straggler.
        for (std::size_t c = first; c < last; ++c) {
            const Var v = roots[c];
            if (g.is_dead(v)) {
                continue;  // consumed by an earlier transformation
            }
            poll_cancel(params.cancel, "orchestrate_parallel");
            ++res.num_checked;
            if (!spec_valid(specs[c])) {
                ++res.num_conflicts;
                // Re-speculation round: the trip point is stale, and the
                // commits that staled it usually staled a tail of the
                // wave with it.  Re-check every stale uncommitted
                // candidate in parallel at the fresh epoch instead of
                // paying for each one inline on the commit thread; tiny
                // tails are not worth a pool barrier and stay inline.
                stale.clear();
                for (std::size_t j = c; j < last; ++j) {
                    if (!g.is_dead(roots[j]) && !spec_valid(specs[j])) {
                        stale.push_back(j);
                    }
                }
                if (stale.size() >= 4) {
                    const std::uint64_t epoch_now = commits_done;
                    intra.pool->for_each(stale.size(), [&](std::size_t k) {
                        speculate(stale[k], epoch_now);
                    });
                    res.num_speculated += stale.size();
                } else {
                    // Consumed right below, so no read-set is needed.
                    specs[c].check = check_op(g, v, decisions[v], params);
                }
            }
            CheckResult check = std::move(specs[c].check);
            if (!check.applicable) {
                continue;
            }
            // No speculation runs here, so judging may refresh levels.
            if (!judge(g, v, check, objective, levels_stale)) {
                ++res.num_rejected;
                continue;
            }
#ifdef BOOLGEBRA_AUDIT
            write_audit.capture(g);
#endif
            apply_candidate(g, v, check.cand);
#ifdef BOOLGEBRA_AUDIT
            write_audit.verify(g, journal,
                               "orchestrate_parallel commit of var " +
                                   std::to_string(v));
#endif
            levels_stale = true;
            res.applied[v] = decisions[v];
            ++res.num_applied;
            ++commits_done;
            if (g.num_slots() > dirty[0].size()) {
                for (auto& d : dirty) {
                    d.resize(g.num_slots(), 0);
                }
            }
            for (const Var e : journal) {
                dirty[aig::fp_entry_kind(e)][aig::fp_entry_var(e)] =
                    commits_done;
            }
            journal.clear();
        }
        first = last;
    }

    g.set_change_log(nullptr);
    res.final_size = g.num_ands();
    res.final_depth = g.depth();
    return res;
}

DecisionVector uniform_decisions(const Aig& g, OpKind op) {
    return DecisionVector(g.num_slots(), op);
}

void save_decisions_csv(const std::filesystem::path& path,
                        std::span<const OpKind> decisions) {
    CsvTable t;
    t.header = {"node", "decision"};
    for (std::size_t v = 0; v < decisions.size(); ++v) {
        t.rows.push_back(
            {std::to_string(v), std::to_string(op_index(decisions[v]))});
    }
    save_csv(path, t);
}

DecisionVector load_decisions_csv(const std::filesystem::path& path) {
    const auto t = load_csv(path, /*has_header=*/true);
    DecisionVector out;
    out.reserve(t.rows.size());
    for (const auto& row : t.rows) {
        if (row.size() != 2) {
            throw std::runtime_error("decision CSV rows need 2 columns");
        }
        const std::size_t v = std::stoul(row[0]);
        if (v != out.size()) {
            throw std::runtime_error("decision CSV must be densely indexed");
        }
        out.push_back(op_from_index(std::stoi(row[1])));
    }
    return out;
}

}  // namespace bg::opt
