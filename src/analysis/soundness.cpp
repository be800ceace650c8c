#include "analysis/soundness.hpp"

#include <algorithm>
#include <string>

#include "util/contracts.hpp"

namespace bg::analysis {

using aig::Aig;
using aig::Lit;
using aig::Read;
using aig::Var;

std::string_view read_class_name(Read k) {
    switch (k) {
        case Read::Struct:
            return "Struct";
        case Read::Ref:
            return "Ref";
        case Read::Fanout:
            return "Fanout";
    }
    return "?";
}

void verify_read_soundness(const aig::ReadFootprint& declared,
                           const aig::audit::ShadowSet& actual,
                           Var root, std::string_view op_name) {
    if (declared.overflow) {
        return;  // never consumed: the orchestrator re-checks inline
    }
    const auto ctx = [&] {
        return " [op=" + std::string(op_name) +
               " root=" + std::to_string(root) + "]";
    };
    BG_ASSERT(!actual.overflow,
              "audit shadow set overflowed — raise ShadowSet::cap to audit "
              "this speculation" +
                  ctx());
    BG_ASSERT(!actual.undeclarable_read,
              "speculation read the PO array or a node level, which no "
              "footprint class can declare — such a check cannot be "
              "speculated soundly" +
                  ctx());
    std::vector<std::uint32_t> decl(declared.vars);
    std::sort(decl.begin(), decl.end());
    decl.erase(std::unique(decl.begin(), decl.end()), decl.end());
    for (const std::uint32_t e : actual.entries) {
        if (!std::binary_search(decl.begin(), decl.end(), e)) {
            const Var v = aig::fp_entry_var(e);
            const auto k = static_cast<Read>(aig::fp_entry_kind(e));
            BG_ASSERT(false,
                      "undeclared speculative read: var " + std::to_string(v) +
                          " class " + std::string(read_class_name(k)) +
                          " was read but never fp_touch-declared" + ctx());
        }
    }
}

void WriteAudit::capture(const Aig& g) {
    slots_ = g.num_slots();
    fanins_.resize(slots_);
    dead_.resize(slots_);
    refs_.resize(slots_);
    po_refs_.resize(slots_);
    fanout_off_.resize(slots_ + 1);
    fanout_data_.clear();
    for (Var v = 0; v < slots_; ++v) {
        fanins_[v] =
            (static_cast<std::uint64_t>(g.fanin0_ref(v).raw()) << 32) |
            g.fanin1_ref(v).raw();
        dead_[v] = g.is_dead(v) ? 1 : 0;
        refs_[v] = g.ref_count(v);
        po_refs_[v] = static_cast<std::uint32_t>(g.po_refs(v));
        fanout_off_[v] = static_cast<std::uint32_t>(fanout_data_.size());
        const auto list = g.fanouts(v);
        fanout_data_.insert(fanout_data_.end(), list.begin(), list.end());
    }
    fanout_off_[slots_] = static_cast<std::uint32_t>(fanout_data_.size());
    const auto pos = g.pos();
    pos_.assign(pos.begin(), pos.end());
}

void WriteAudit::verify(const Aig& g, std::span<const Var> journal,
                        std::string_view context) const {
    std::vector<std::uint32_t> j(journal.begin(), journal.end());
    std::sort(j.begin(), j.end());
    const auto journaled = [&](Var v, Read k) {
        return std::binary_search(j.begin(), j.end(), aig::fp_encode(v, k));
    };
    const auto require = [&](Var v, Read k, const char* what) {
        if (!journaled(v, k)) {
            BG_ASSERT(false,
                      "unjournaled mutation: " + std::string(what) +
                          " of var " + std::to_string(v) +
                          " changed with no " +
                          std::string(read_class_name(k)) +
                          "-class journal entry [" + std::string(context) +
                          "]");
        }
    };

    BG_ASSERT(g.num_slots() >= slots_,
              "node slots shrank between capture and verify [" +
                  std::string(context) + "]");
    for (Var v = 0; v < g.num_slots(); ++v) {
        if (v >= slots_) {
            // Created since the snapshot: creation itself is a Struct
            // write, and any references / fanouts it accumulated are Ref /
            // Fanout writes in their own right.
            require(v, Read::Struct, "creation");
            if (g.ref_count(v) != 0) {
                require(v, Read::Ref, "reference count");
            }
            if (!g.fanouts(v).empty()) {
                require(v, Read::Fanout, "fanout list");
            }
            continue;
        }
        const std::uint64_t fan =
            (static_cast<std::uint64_t>(g.fanin0_ref(v).raw()) << 32) |
            g.fanin1_ref(v).raw();
        if (fan != fanins_[v] || (g.is_dead(v) ? 1 : 0) != dead_[v]) {
            require(v, Read::Struct, "structure (fanins / dead flag)");
        }
        if (g.ref_count(v) != refs_[v] ||
            static_cast<std::uint32_t>(g.po_refs(v)) != po_refs_[v]) {
            require(v, Read::Ref, "reference count");
        }
        // Exact-sequence comparison: even a pure reorder implies a
        // remove/append pair ran, each of which must have journaled.
        const auto list = g.fanouts(v);
        const auto old_begin = fanout_data_.begin() + fanout_off_[v];
        const auto old_end = fanout_data_.begin() + fanout_off_[v + 1];
        if (!std::equal(list.begin(), list.end(), old_begin, old_end)) {
            require(v, Read::Fanout, "fanout list");
        }
    }
    // PO rewiring manifests as Ref-class journal entries on both drivers
    // (replace() derefs the old driver and refs the new one).
    const auto pos = g.pos();
    BG_ASSERT(pos.size() >= pos_.size(),
              "PO count shrank between capture and verify [" +
                  std::string(context) + "]");
    for (std::size_t i = 0; i < pos.size(); ++i) {
        if (i >= pos_.size()) {
            require(aig::lit_var(pos[i]), Read::Ref, "new PO driver");
            continue;
        }
        if (pos[i] != pos_[i]) {
            require(aig::lit_var(pos_[i]), Read::Ref, "old PO driver");
            require(aig::lit_var(pos[i]), Read::Ref, "new PO driver");
        }
    }
}

}  // namespace bg::analysis
