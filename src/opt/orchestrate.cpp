#include "opt/orchestrate.hpp"

#include <algorithm>
#include <array>

#include "aig/footprint.hpp"
#include "opt/partition.hpp"
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

    // Journal the pass: `touched` is what incremental feature maintenance
    // consumes, and audit builds check the journal covers every write.
    std::vector<Var> journal;
    g.set_change_log(&journal);
    struct LogGuard {
        Aig& g;
        ~LogGuard() { g.set_change_log(nullptr); }
    } log_guard{g};
#ifdef BOOLGEBRA_AUDIT
    analysis::WriteAudit write_audit;
    write_audit.capture(g);
#endif

    // Depth-aware objectives read each check's local depth delta, which is
    // only meaningful against fresh levels; refresh lazily after applies.
    const bool track_levels = objective.needs_depth();
    bool levels_stale = false;

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
        if (track_levels && levels_stale) {
            g.update_levels();
            levels_stale = false;
        }
        const CheckResult check = check_op(g, v, op, params);
        if (!check.applicable) {
            continue;
        }
        if (!objective.accepts(check.gain)) {
            ++res.num_rejected;
            continue;
        }
        apply_candidate(g, v, check.cand);
        levels_stale = true;
        res.applied[v] = op;
        ++res.num_applied;
    }
    g.set_change_log(nullptr);
#ifdef BOOLGEBRA_AUDIT
    write_audit.verify(g, journal, "orchestrate pass");
#endif
    for (Var& e : journal) {
        e = aig::fp_entry_var(e);  // touched is var-granular
    }
    std::sort(journal.begin(), journal.end());
    journal.erase(std::unique(journal.begin(), journal.end()), journal.end());
    res.touched = std::move(journal);
    res.final_size = g.num_ands();
    res.final_depth = g.depth();
    return res;
}

OrchestrationResult orchestrate_parallel(Aig& g,
                                         std::span<const OpKind> decisions,
                                         const OptParams& params,
                                         const Objective& objective,
                                         const IntraParallel& intra) {
    // Depth-aware objectives refresh levels mid-pass, which speculative
    // checks cannot replay; they (and poolless calls) take the sequential
    // path, which is the definition of correct.  It journals too, so
    // `touched` is populated either way.
    if (intra.pool == nullptr || intra.pool->size() < 2 ||
        objective.needs_depth()) {
        return orchestrate(g, decisions, params, objective);
    }
    BG_EXPECTS(decisions.size() >= g.num_slots(),
               "decision vector must cover every var id");
    BG_EXPECTS(intra.region_roots >= 1, "region size must be positive");
    params.validate();
    OrchestrationResult res;
    res.original_size = g.num_ands();
    res.original_depth = g.depth();  // freshens levels, as sequential does
    res.applied.assign(g.num_slots(), OpKind::None);

    // Candidate roots in the exact sequential visit order.
    const auto order = g.topo_ands();
    std::vector<Var> roots;
    roots.reserve(order.size());
    for (const Var v : order) {
        if (decisions[v] != OpKind::None) {
            roots.push_back(v);
        }
    }
    PartitionOptions popts;
    popts.target_roots = intra.region_roots;
    const PartitionResult part = partition_regions(g, roots, popts);
    res.num_regions = part.regions.size();

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
    struct LogGuard {
        Aig& g;
        ~LogGuard() { g.set_change_log(nullptr); }
    } log_guard{g};

    // Dense decision vectors make every node a root, so MFFCs nest and
    // overlap merges routinely collapse most of the design into a few
    // giant regions.  Waves therefore cap at a number of *candidates* and
    // split oversized regions across waves — speculation is read-only and
    // the commit walk stays in candidate order, so slicing a region is
    // semantics-free; what it buys is a fresh epoch every wave, which is
    // what keeps the conflict rate low.
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

    // Waves cap at 16 candidates per worker: every commit inside a wave
    // can stale the wave's tail, so oversized waves just re-speculate the
    // same candidates over and over (measured ~2.7x redundant check work
    // at 2048 vs ~1.8x at 16 per worker on a 4-worker pool, with no
    // utilization win).
    const std::size_t wave_cap = 16 * intra.pool->size();
#ifdef BOOLGEBRA_AUDIT
    analysis::WriteAudit write_audit;
#endif
    std::size_t first = 0;
    std::size_t region_idx = 0;  // region containing candidate `first`
    std::vector<std::pair<std::size_t, std::size_t>> slices;
    std::vector<std::size_t> stale;
    while (first < roots.size()) {
        const std::size_t last = std::min(first + wave_cap, roots.size());
        const std::uint64_t epoch = commits_done;

        // Task slices of [first, last): aligned to region boundaries when
        // regions are small, split further when one region spans the whole
        // wave so every worker stays busy.
        slices.clear();
        const std::size_t grain = std::max<std::size_t>(
            8, (last - first) / (intra.pool->size() * 4));
        std::size_t s = first;
        while (s < last) {
            while (part.regions[region_idx].first +
                       part.regions[region_idx].count <=
                   s) {
                ++region_idx;
            }
            const Region& region = part.regions[region_idx];
            const std::size_t e =
                std::min({last, region.first + region.count, s + grain});
            slices.emplace_back(s, e);
            s = e;
        }

        // Read-only speculation: nothing mutates the graph until the
        // commit walk below, so concurrent slice checks see a frozen
        // graph.  Dead candidates stay dead for the rest of the pass, so
        // skipping them here can never desynchronize from the commit walk.
        intra.pool->for_each(slices.size(), [&](std::size_t k) {
            for (std::size_t c = slices[k].first; c < slices[k].second;
                 ++c) {
                const Var v = roots[c];
                if (g.is_dead(v)) {
                    continue;
                }
                Spec& s = specs[c];
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
                        const std::size_t j = stale[k];
                        Spec& sj = specs[j];
                        sj.fp.clear();
                        sj.epoch = epoch_now;
#ifdef BOOLGEBRA_AUDIT
                        thread_local aig::audit::ShadowSet shadow;
                        shadow.clear();
                        const aig::audit::ShadowScope audit_scope(shadow);
#endif
                        const aig::FootprintScope scope(sj.fp);
                        sj.check = check_op(g, roots[j], decisions[roots[j]],
                                            params);
#ifdef BOOLGEBRA_AUDIT
                        analysis::verify_read_soundness(
                            sj.fp, shadow, roots[j],
                            to_string(decisions[roots[j]]));
#endif
                    });
                    res.num_speculated += stale.size();
                } else {
                    Spec& sc = specs[c];
                    sc.fp.clear();
                    sc.epoch = commits_done;
                    sc.check = check_op(g, v, decisions[v], params);
                }
            }
            CheckResult check = std::move(specs[c].check);
            if (!check.applicable) {
                continue;
            }
            if (!objective.accepts(check.gain)) {
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
    // Some aspect of u stamped iff some commit journaled u: that is
    // exactly the touched set, and scanning the stamps yields it
    // pre-sorted.
    for (std::size_t u = 0; u < dirty[0].size(); ++u) {
        if (dirty[0][u] != 0 || dirty[1][u] != 0 || dirty[2][u] != 0) {
            res.touched.push_back(static_cast<Var>(u));
        }
    }
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
