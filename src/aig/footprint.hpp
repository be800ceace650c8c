#pragma once

/// \file footprint.hpp
/// Read-footprint recording for speculative candidate checks.
///
/// The parallel orchestrator speculates `check_op` results against a
/// graph snapshot and must know, per candidate, exactly which vars the
/// check *read* — a committed change touching any of them invalidates the
/// speculation.  Rather than threading a recorder through every signature
/// in the cut/opt layers, the engines call `fp_touch(v)` at each point
/// where a var's structure enters the computation (cut enumeration, MFFC
/// walks, strash lookups, divisor expansion).  `fp_touch` is a
/// thread-local pointer load plus a predictable branch — free when no
/// recorder is active, which is every non-speculative call.
///
/// A footprint caps its var list at kFootprintCap entries; on overflow it
/// degrades to "reads everything", which the orchestrator treats as
/// always-invalid (the candidate is simply re-checked at commit time).
///
/// Reads and journal writes are classified so a commit only invalidates
/// speculations that read the *aspect* of a var it changed: a deref walk
/// re-counting references across a shared cone must not invalidate a
/// neighbor that merely enumerated cuts through it.  Entries are encoded
/// `(var << 2) | Read` in both footprints and the Aig mutation journal.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace bg::aig {

/// Which aspect of a var a read (or journaled write) concerns.
enum class Read : std::uint32_t {
    Struct = 0,  ///< existence, dead flag, fanin literals
    Ref = 1,     ///< reference count (AND fanouts + PO refs)
    Fanout = 2,  ///< fanout list (also strash-key presence of its ANDs)
};

constexpr std::uint32_t fp_encode(std::uint32_t v, Read k) {
    return (v << 2) | static_cast<std::uint32_t>(k);
}
constexpr std::uint32_t fp_entry_var(std::uint32_t e) { return e >> 2; }
constexpr std::uint32_t fp_entry_kind(std::uint32_t e) { return e & 3U; }

/// Entries one footprint records before it overflows.
inline constexpr std::size_t kFootprintCap = 64 * 1024;

/// The recorded read-set of one speculative check: encoded
/// `fp_encode(var, kind)` entries.  Entries may repeat; consumers dedupe
/// as needed.
struct ReadFootprint {
    std::vector<std::uint32_t> vars;
    bool overflow = false;

    void clear() {
        vars.clear();
        overflow = false;
    }
};

namespace detail {
/// The active recorder of the current thread, or nullptr (the common
/// case: nothing is being speculated on this thread).
extern thread_local ReadFootprint* active_footprint;
}  // namespace detail

/// Record that the running computation read aspect `k` of var `v`.
inline void fp_touch(std::uint32_t v, Read k) {
    ReadFootprint* fp = detail::active_footprint;
    if (fp == nullptr) [[likely]] {
        return;
    }
    if (fp->vars.size() >= kFootprintCap) {
        fp->overflow = true;
        return;
    }
    fp->vars.push_back(fp_encode(v, k));
}

/// RAII activation of a footprint recorder on the current thread.
/// Scopes may not nest (the orchestrator records one candidate at a
/// time per thread).
class FootprintScope {
public:
    explicit FootprintScope(ReadFootprint& fp) {
        prev_ = detail::active_footprint;
        detail::active_footprint = &fp;
    }
    ~FootprintScope() { detail::active_footprint = prev_; }

    FootprintScope(const FootprintScope&) = delete;
    FootprintScope& operator=(const FootprintScope&) = delete;

private:
    ReadFootprint* prev_ = nullptr;
};

}  // namespace bg::aig
