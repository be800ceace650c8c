#pragma once

/// \file soundness.hpp
/// The footprint soundness auditor (see docs/static-analysis.md).
///
/// `opt::orchestrate_parallel` consumes a speculated check result only
/// when no later commit changed an aspect the check *declared* it read.
/// That guarantee is exactly as strong as the hand-placed `fp_touch`
/// declarations in the cut/opt layers — this module turns it into a
/// machine-checked property:
///
///  - `verify_read_soundness` compares a speculation's declared
///    `ReadFootprint` against the shadow set of reads the Aig accessors
///    actually observed (audit builds record them via BG_AUDIT_READ) and
///    fails fast with a (var, class, op) diagnostic on under-declaration.
///  - `WriteAudit` snapshots the externally observable mutable state of
///    the graph before a commit and proves afterwards that every state
///    change is covered by a `set_change_log` journal entry of the
///    matching class — the journal is what invalidates stale
///    speculations, so an unjournaled write is the write-side twin of an
///    undeclared read.
///
/// Everything here is build-mode independent (unit-testable everywhere);
/// only the accessor hooks that *feed* the shadow recorder are gated
/// behind BOOLGEBRA_AUDIT.

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "aig/aig.hpp"
#include "aig/audit.hpp"
#include "aig/footprint.hpp"

namespace bg::analysis {

/// Human-readable Read-class name ("Struct" / "Ref" / "Fanout").
std::string_view read_class_name(aig::Read k);

/// Verify one speculation: every read the shadow recorder observed must
/// be declared in `declared` with the exact same (var, class).  Throws
/// ContractViolation naming the first undeclared read, the op and the
/// candidate root.  An overflowed declared footprint is vacuously sound
/// (the orchestrator treats it as always-stale and re-checks inline); a
/// shadow overflow or a read no class can declare (the PO array, a node
/// level) observed during speculation fails outright.
void verify_read_soundness(const aig::ReadFootprint& declared,
                           const aig::audit::ShadowSet& actual,
                           aig::Var root, std::string_view op_name);

/// Write-completeness auditor: `capture` snapshots every mutable aspect
/// the read classes cover (fanins + dead flag, ref and PO-ref counts,
/// fanout lists, the PO array) through public accessors only; `verify`
/// diffs the snapshot against the post-commit graph and requires a
/// journal entry of the matching class for every changed aspect.
///
/// The cost is O(slots + fanout edges) per capture/verify pair, which is
/// why the orchestrator only engages it in audit builds.
class WriteAudit {
public:
    void capture(const aig::Aig& g);
    /// `journal` holds `fp_encode(var, class)` entries exactly as
    /// emitted between capture() and now by the attached change log.
    void verify(const aig::Aig& g, std::span<const aig::Var> journal,
                std::string_view context) const;

private:
    std::size_t slots_ = 0;
    std::vector<std::uint64_t> fanins_;  ///< fanin0 raw << 32 | fanin1 raw
    std::vector<std::uint8_t> dead_;
    std::vector<std::uint32_t> refs_;
    std::vector<std::uint32_t> po_refs_;
    std::vector<std::uint32_t> fanout_off_;  ///< slots_ + 1 offsets
    std::vector<aig::Var> fanout_data_;
    std::vector<aig::Lit> pos_;
};

}  // namespace bg::analysis
