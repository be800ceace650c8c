#pragma once

/// \file orchestrate.hpp
/// Algorithm 1 of the paper: a single topological traversal of the AIG in
/// which every node carries its own manipulation decision D[v] from
/// {rw, rs, rf} (or none).  Each node is checked for transformability
/// w.r.t. its assigned operation and, when applicable, the transformation
/// is applied and the graph updated before moving to the next unseen node.

#include <filesystem>
#include <span>
#include <vector>

#include "aig/aig.hpp"
#include "opt/objective.hpp"
#include "opt/transform.hpp"

namespace bg {
class ThreadPool;
}  // namespace bg

namespace bg::opt {

/// Per-node decision vector; index = Var id of the graph at entry.
using DecisionVector = std::vector<OpKind>;

struct OrchestrationResult {
    std::size_t original_size = 0;   ///< AND count before the pass
    std::size_t final_size = 0;      ///< AND count after the pass
    std::uint32_t original_depth = 0;
    std::uint32_t final_depth = 0;
    /// Operation actually applied at each original var (None elsewhere) —
    /// this is exactly the paper's *dynamic* feature source.
    std::vector<OpKind> applied;
    std::size_t num_checked = 0;
    std::size_t num_applied = 0;
    /// Applicable candidates the objective vetoed (always 0 under the
    /// default SizeObjective, which accepts whatever the check accepts).
    std::size_t num_rejected = 0;

    /// Intra-design parallel statistics (zero on the sequential path).
    std::size_t num_speculated = 0;  ///< checks speculated on the pool
    std::size_t num_conflicts = 0;   ///< speculations invalidated, re-checked

    int reduction() const {
        return static_cast<int>(original_size) -
               static_cast<int>(final_size);
    }
    int depth_reduction() const {
        return static_cast<int>(original_depth) -
               static_cast<int>(final_depth);
    }
};

/// Run Algorithm 1 in place.  `decisions` must cover every var id present
/// at entry (g.num_slots()); vars created during the pass are not visited
/// (they are "unseen" nodes in the paper's terminology).  Audit builds
/// journal the pass's writes (Aig::set_change_log) and check that journal
/// against the graph's state diff.  The objective gates which applicable
/// candidates are committed: the default SizeObjective applies every one
/// (pre-objective behavior, bit-identical results); a depth-aware one
/// judges each candidate's estimate_depth_delta against levels refreshed
/// lazily after applies, and its vetoes are counted in num_rejected.
OrchestrationResult orchestrate(aig::Aig& g,
                                std::span<const OpKind> decisions,
                                const OptParams& params = {},
                                const Objective& objective = size_objective());

/// Where the intra-design parallel orchestrator runs.  Waves speculate at
/// most 16 candidates per pool worker (commits stale their wave's tail,
/// so larger waves only buy redundant re-speculation), and a candidate
/// whose read-footprint overflows aig::kFootprintCap is re-checked at
/// commit time.
struct IntraParallel {
    /// Pool the speculation waves run on; nullptr (or a pool with fewer
    /// than two workers) runs plain `orchestrate`.
    ThreadPool* pool = nullptr;
};

/// Algorithm 1 with speculate/ordered-commit parallelism: each wave's
/// candidate checks are speculated on the pool (one task per candidate)
/// against a frozen graph, then committed one at a time in the exact
/// sequential topological order.  A commit journals every var it
/// structurally touches; a speculated check whose recorded read-set
/// intersects a later commit is invalidated and transparently re-checked,
/// so the committed result — graph, counters, applied vector — is
/// bit-identical to `orchestrate` at any worker count, under every
/// objective: checks read no levels, and depth judgements with their
/// level refreshes run on the commit thread while no speculation does.
/// Poolless calls run plain `orchestrate`.
OrchestrationResult orchestrate_parallel(
    aig::Aig& g, std::span<const OpKind> decisions,
    const OptParams& params = {},
    const Objective& objective = size_objective(),
    const IntraParallel& intra = {});

/// Uniform decision vector (the same operation everywhere).
DecisionVector uniform_decisions(const aig::Aig& g, OpKind op);

/// Persist / load a decision vector in the paper's CSV form
/// (columns: node, decision; decision in {0, 1, 2, 3} = rw/rs/rf/none).
void save_decisions_csv(const std::filesystem::path& path,
                        std::span<const OpKind> decisions);
DecisionVector load_decisions_csv(const std::filesystem::path& path);

}  // namespace bg::opt
