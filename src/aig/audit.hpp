#pragma once

/// \file audit.hpp
/// Shadow read-recording for the footprint soundness auditor.
///
/// The parallel orchestrator's bit-exactness rests on hand-maintained
/// `fp_touch` declarations in the cut/opt layers: a forgotten tag lets a
/// stale speculation be consumed silently.  Audit builds
/// (`-DBOOLGEBRA_AUDIT=ON`) close that gap: every `Aig` accessor that
/// reads a mutable aspect of a node reports the *actual* read
/// `(var, Read-class)` to a thread-local shadow recorder via the
/// `BG_AUDIT_READ` hook, and `analysis::verify_read_soundness` checks the
/// shadow set against the declared footprint after every speculation.
///
/// Two layers keep normal builds untouched:
///  - The recording machinery below (ShadowSet / ShadowScope /
///    shadow_read) is compiled in every build, so the auditor logic is
///    unit-testable everywhere.
///  - The accessor *hooks* expand to nothing unless BOOLGEBRA_AUDIT is
///    defined, so normal builds compile the exact pre-audit accessor
///    bodies (`enabled()` is constant-false and pinned by a
///    static_assert in the tests).
///
/// Read-class semantics match footprint.hpp / the Aig mutation journal:
///  - Struct: existence, dead flag, fanin literals
///  - Ref:    reference count, PO reference count
///  - Fanout: fanout list (and strash-key presence over a var's ANDs)
///
/// Deliberately *not* hooked (documented limitations of the audit):
///  - immutable per-var facts (`is_pi`, `pis`) and global counters
///    (`num_slots`, `num_ands`, `num_pis`) — footprints cannot express
///    them, and speculation uses them only for scratch sizing;
///  - the PO array (`po`, `pos`, `po_ref`) and the cached level
///    (`level`), which *are* hooked, but as a hard failure: a speculated
///    check has no footprint class to declare either read with (levels
///    are refreshed on the commit thread without journaling), so reading
///    them during speculation is unsound by construction.

#include <cstdint>
#include <vector>

#include "aig/footprint.hpp"

namespace bg::aig::audit {

/// True in audit builds (-DBOOLGEBRA_AUDIT=ON): accessor hooks are live.
constexpr bool enabled() {
#ifdef BOOLGEBRA_AUDIT
    return true;
#else
    return false;
#endif
}

/// The shadow record of one audited computation: every accessor-observed
/// read, encoded `fp_encode(var, kind)` exactly like ReadFootprint
/// entries.  Entries repeat freely; the verifier dedupes.
struct ShadowSet {
    std::vector<std::uint32_t> entries;
    bool overflow = false;  ///< cap exceeded; the audit cannot conclude
    bool undeclarable_read = false;  ///< PO array or level: unsound
    std::size_t cap = 4u * 1024u * 1024u;

    void clear() {
        entries.clear();
        overflow = false;
        undeclarable_read = false;
    }
};

namespace detail {
/// The active shadow recorder of the current thread, or nullptr (every
/// non-audited computation, and every thread in normal builds).
extern thread_local ShadowSet* active_shadow;
}  // namespace detail

/// Report that the running computation actually read aspect `k` of `v`.
/// Same shape as fp_touch: one thread-local load and a predictable branch.
inline void shadow_read(std::uint32_t v, Read k) {
    ShadowSet* s = detail::active_shadow;
    if (s == nullptr) [[likely]] {
        return;
    }
    if (s->entries.size() >= s->cap) {
        s->overflow = true;
        return;
    }
    s->entries.push_back(fp_encode(v, k));
}

/// Report a read inexpressible in footprints (PO array, cached level):
/// any audited computation that performs one fails verification.
inline void shadow_read_undeclarable() {
    ShadowSet* s = detail::active_shadow;
    if (s != nullptr) [[unlikely]] {
        s->undeclarable_read = true;
    }
}

/// True while a shadow recorder is active on this thread.
inline bool shadow_active() { return detail::active_shadow != nullptr; }

/// RAII activation of a shadow recorder on the current thread.  Scopes do
/// not nest (the orchestrator audits one speculation at a time per
/// thread); the previous recorder is restored on exit regardless.
class ShadowScope {
public:
    explicit ShadowScope(ShadowSet& s) {
        prev_ = detail::active_shadow;
        detail::active_shadow = &s;
    }
    ~ShadowScope() { detail::active_shadow = prev_; }

    ShadowScope(const ShadowScope&) = delete;
    ShadowScope& operator=(const ShadowScope&) = delete;

private:
    ShadowSet* prev_ = nullptr;
};

}  // namespace bg::aig::audit

/// Accessor hooks: compiled to nothing in normal builds so every Aig
/// accessor keeps its exact pre-audit body (see enabled()).
#ifdef BOOLGEBRA_AUDIT
#define BG_AUDIT_READ(v, k) ::bg::aig::audit::shadow_read((v), (k))
#define BG_AUDIT_READ_UNDECLARABLE() \
    ::bg::aig::audit::shadow_read_undeclarable()
#else
#define BG_AUDIT_READ(v, k) static_cast<void>(0)
#define BG_AUDIT_READ_UNDECLARABLE() static_cast<void>(0)
#endif
