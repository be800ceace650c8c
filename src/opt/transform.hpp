#pragma once

/// \file transform.hpp
/// The unified transformation model shared by rewrite / resub / refactor:
///
///  * a Candidate is a small recipe that rebuilds the root's function from
///    existing nodes (cut leaves or divisors) plus fresh AND steps;
///  * check_op() evaluates one operation at one node *read-only* (its
///    structure, never its levels) and returns (applicable, size gain,
///    candidate) for the static node features and the traversal;
///  * apply_candidate() materializes a candidate through the structural
///    hash and redirects the root (ABC's Dec_GraphUpdateNetwork step).
///
/// Gain accounting is exact: gain = |MFFC(root, operands)| - nodes the
/// recipe adds, where a structural-hash hit inside the dying MFFC counts
/// as an addition (the node survives by being reused).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "opt/mffc.hpp"
#include "util/cancel.hpp"

namespace bg::opt {

/// The paper's per-node manipulation decisions (§III-B): 0=rw, 1=rs, 2=rf.
enum class OpKind : std::uint8_t {
    Rewrite = 0,
    Resub = 1,
    Refactor = 2,
    None = 3,
};

/// Encode as the paper's integer indices (rw=0, rs=1, rf=2; none=3).
int op_index(OpKind op);
OpKind op_from_index(int idx);
std::string to_string(OpKind op);

/// Tuning knobs for the three operations (defaults follow ABC's).
struct OptParams {
    unsigned rewrite_cut_size = 4;
    std::size_t rewrite_max_cuts = 24;
    unsigned refactor_max_leaves = 10;
    unsigned resub_max_leaves = 8;
    std::size_t resub_max_divisors = 48;
    /// Accept transformations with zero gain (ABC's -z); default off.
    bool allow_zero_gain = false;

    /// Cooperative cancel point, polled by the orchestrate node walks
    /// (sequential loop and parallel commit walk), once per row by
    /// compute_static_features, and by run_flow stage boundaries.  Null
    /// (the default) compiles to a pointer test and leaves results
    /// bit-identical to the cancel-free code path; a stopped token raises
    /// bg::CancelledError.  Not an optimization knob: validate() ignores
    /// it.
    const bg::CancelToken* cancel = nullptr;

    /// Largest reconvergence cut the refactor/resub windows may grow to;
    /// beyond this the 2^leaves truth tables dominate the runtime.
    static constexpr unsigned max_window_leaves = 16;

    /// Reject out-of-range limits with a ContractViolation instead of
    /// silently misbehaving (a cut size of 0 enumerates nothing, one above
    /// 4 overruns the NPN rewrite library, oversized windows explode).
    /// Every pass entry point (check_op, orchestrate, standalone_pass,
    /// compute_static_features, run_flow) validates once.
    void validate() const;
};

/// Multi-metric outcome of one local transformation, as an Objective
/// judges it.  `size_delta` is the check's exact AND-count gain;
/// `depth_delta` is the candidate's estimate_depth_delta, which the
/// orchestrate walk fills in at commit only when Objective::needs_depth()
/// is true (0 otherwise).  Positive deltas are improvements on both axes.
struct Gain {
    int size_delta = 0;
    int depth_delta = 0;
};

/// A replacement recipe for one root node.
///
/// Recipe-space literals: index 0 is constant false, indices 1..P refer to
/// operands[0..P-1] (existing live vars), index P+1+i refers to steps[i].
/// A literal is 2*index + complement, as in the AIG itself.
struct Candidate {
    struct Step {
        aig::Lit in0 = 0;
        aig::Lit in1 = 0;
    };

    std::vector<aig::Var> operands;
    std::vector<Step> steps;
    aig::Lit out = 0;  ///< recipe-space literal of the replacement

    std::size_t num_steps() const { return steps.size(); }
    /// Recipe literal for operand i.
    static aig::Lit operand_lit(std::size_t i, bool compl_edge = false) {
        return aig::make_lit(static_cast<aig::Var>(i + 1), compl_edge);
    }
    aig::Lit step_lit(std::size_t i, bool compl_edge = false) const {
        return aig::make_lit(
            static_cast<aig::Var>(operands.size() + 1 + i), compl_edge);
    }
};

/// Outcome of a read-only applicability check.
struct CheckResult {
    bool applicable = false;
    /// |MFFC| - added nodes, exact absent cascades; meaningful when
    /// applicable (>= 1, or 0 with -z).
    int gain = 0;
    Candidate cand;
};

/// Helper used by the op engines: builds recipes with local structural
/// hashing and constant folding in recipe space.
class RecipeBuilder {
public:
    explicit RecipeBuilder(std::size_t num_operands)
        : num_operands_(num_operands) {}

    aig::Lit const0() const { return 0; }
    aig::Lit operand(std::size_t i, bool compl_edge = false) const;
    aig::Lit add_and(aig::Lit a, aig::Lit b);
    aig::Lit add_or(aig::Lit a, aig::Lit b) {
        return aig::lit_not(add_and(aig::lit_not(a), aig::lit_not(b)));
    }
    aig::Lit add_xor(aig::Lit a, aig::Lit b) {
        return add_or(add_and(a, aig::lit_not(b)),
                      add_and(aig::lit_not(a), b));
    }

    /// Finish: move the accumulated steps into a candidate.
    Candidate build(std::vector<aig::Var> operands, aig::Lit out) &&;

    std::size_t num_steps() const { return steps_.size(); }

private:
    std::size_t num_operands_;
    std::vector<Candidate::Step> steps_;
    std::vector<std::uint64_t> keys_;  // parallel to steps_, for dedup
};

/// Count the AND nodes the candidate would add to `g`, treating a
/// structural-hash hit on a node in `dying` as an addition (reuse keeps it
/// alive).  Returns -1 when the recipe resolves to the root itself (no-op).
int count_added_nodes(const aig::Aig& g, aig::Var root, const Candidate& cand,
                      const MffcResult& dying);

/// Local depth delta of replacing `root` by `cand`: the root's current
/// level minus the recipe output's level, where each recipe step sits one
/// level above its deepest input and operands keep their graph levels.
/// Valid only while g's level annotation is fresh; no check calls it.
int estimate_depth_delta(const aig::Aig& g, aig::Var root,
                         const Candidate& cand);

/// Materialize the candidate and redirect `root`.  Returns the measured
/// AND-count change (positive = smaller); cascading merges can make it
/// exceed the check's gain.  When the recipe resolves to root itself the
/// graph is left untouched and 0 is returned.
int apply_candidate(aig::Aig& g, aig::Var root, const Candidate& cand);

/// Read-only applicability check of one operation at one node.
CheckResult check_op(const aig::Aig& g, aig::Var v, OpKind op,
                     const OptParams& params = {});

// Individual engines (exposed for tests and benchmarks).
CheckResult check_rewrite(const aig::Aig& g, aig::Var v,
                          const OptParams& params = {});
CheckResult check_refactor(const aig::Aig& g, aig::Var v,
                           const OptParams& params = {});
CheckResult check_resub(const aig::Aig& g, aig::Var v,
                        const OptParams& params = {});

}  // namespace bg::opt
