#pragma once

/// \file aig.hpp
/// And-Inverter Graph with structural hashing, reference counting, fanout
/// tracking and in-place node replacement with cascading merges — the
/// substrate every optimization in BoolGebra manipulates (the equivalent
/// of ABC's Aig_Man_t / Dec_GraphUpdateNetwork machinery).
///
/// Encoding is AIGER-style: a *literal* is 2*var + complement; var 0 is the
/// constant-FALSE node, so literal 0 is FALSE and literal 1 is TRUE.
/// Primary inputs are vars without fanins; AND nodes have exactly two fanin
/// literals.  Dead (deleted) nodes are tombstoned until compact().
///
/// Storage layout (the packed-node redesign; see
/// docs/aig-api-migration.md):
///  - NodeRef packs a 31-bit node index and a 1-bit complement flag into
///    one 32-bit word whose raw value coincides with the AIGER literal, so
///    Lit <-> NodeRef conversion is free and comparisons agree.
///  - Each node is a fixed 16-byte record (two NodeRef fanins, a 32-bit
///    reference count, and level/is_pi/dead bit-packed into one word) in a
///    single flat array — tens of millions of nodes fit in memory and
///    traversals walk contiguous storage.
///  - Fanout lists live in one rebuildable arena (mockturtle/ABC-style)
///    instead of a vector-of-vectors; per-node lists stay contiguous, so
///    fanouts(v) still hands out a span.
///  - Structural hashing uses an open-addressing table instead of
///    std::unordered_map (no per-bucket allocations, one probe per lookup
///    in the common case).

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "aig/audit.hpp"
#include "aig/footprint.hpp"
#include "util/contracts.hpp"

namespace bg::aig {

using Var = std::uint32_t;
using Lit = std::uint32_t;

inline constexpr Lit lit_false = 0;
inline constexpr Lit lit_true = 1;
inline constexpr Lit null_lit = 0xFFFFFFFFU;
inline constexpr Var null_var = 0xFFFFFFFFU;

constexpr Var lit_var(Lit l) { return l >> 1; }
constexpr bool lit_is_compl(Lit l) { return (l & 1U) != 0; }
constexpr Lit make_lit(Var v, bool compl_edge = false) {
    return (v << 1) | (compl_edge ? 1U : 0U);
}
constexpr Lit lit_not(Lit l) { return l ^ 1U; }
constexpr Lit lit_not_cond(Lit l, bool c) { return c ? (l ^ 1U) : l; }
constexpr Lit lit_regular(Lit l) { return l & ~1U; }

/// A packed signal reference: 31-bit node index + 1-bit complement flag —
/// the storage-boundary type of the AIG (mockturtle's node_pointer /
/// signal).  The raw word is bit-identical to the literal encoding
/// (index << 1 | complement), so converting to and from Lit costs nothing
/// and ordering matches literal ordering exactly.
class NodeRef {
public:
    constexpr NodeRef() = default;
    constexpr NodeRef(Var index, bool complemented)
        : data_(make_lit(index, complemented)) {}

    static constexpr NodeRef from_lit(Lit l) { return NodeRef(l, raw_tag{}); }

    /// The referenced node's index into the flat node array.
    constexpr Var index() const { return data_ >> 1; }
    /// True when the edge inverts the node's function.
    constexpr bool complemented() const { return (data_ & 1U) != 0; }
    /// The AIGER-style literal this reference encodes (same bits).
    constexpr Lit lit() const { return data_; }
    constexpr std::uint32_t raw() const { return data_; }

    constexpr bool is_null() const { return data_ == null_lit; }
    constexpr bool is_const0() const { return data_ == lit_false; }
    constexpr bool is_const1() const { return data_ == lit_true; }

    /// Complement the edge.
    constexpr NodeRef operator!() const {
        return NodeRef(data_ ^ 1U, raw_tag{});
    }
    /// Conditionally complement the edge.
    constexpr NodeRef operator^(bool c) const {
        return NodeRef(c ? data_ ^ 1U : data_, raw_tag{});
    }
    /// The positive-phase reference to the same node.
    constexpr NodeRef regular() const {
        return NodeRef(data_ & ~1U, raw_tag{});
    }

    friend constexpr bool operator==(NodeRef a, NodeRef b) {
        return a.data_ == b.data_;
    }
    friend constexpr bool operator!=(NodeRef a, NodeRef b) {
        return a.data_ != b.data_;
    }
    /// Literal ordering — what and_() uses to normalize fanin pairs.
    friend constexpr bool operator<(NodeRef a, NodeRef b) {
        return a.data_ < b.data_;
    }

private:
    struct raw_tag {};
    constexpr NodeRef(std::uint32_t raw, raw_tag) : data_(raw) {}

    std::uint32_t data_ = null_lit;
};

inline constexpr NodeRef null_ref = NodeRef::from_lit(null_lit);

static_assert(sizeof(NodeRef) == 4, "NodeRef must stay one packed word");

namespace detail {

/// Per-node fanout lists packed into one growable arena.  Each list is a
/// contiguous block with vector semantics (append at the end, remove by
/// swap-with-back), so iteration order is identical to the historical
/// vector-of-vectors layout; a block that outgrows its capacity moves to
/// the arena tail and the hole is reclaimed by the next repack.
class FanoutArena {
public:
    void add_node() { heads_.push_back({}); }

    std::span<const Var> list(Var v) const {
        const Head& h = heads_[v];
        return {arena_.data() + h.off, h.size};
    }
    bool empty(Var v) const { return heads_[v].size == 0; }
    Var front(Var v) const { return arena_[heads_[v].off]; }

    void push_back(Var v, Var f);
    /// Remove the first occurrence of `f` (swap-with-back, like the old
    /// vector layout).  Asserts that the record exists.
    void remove(Var v, Var f);
    void clear(Var v) {
        live_ -= heads_[v].size;
        heads_[v].size = 0;
    }

    void reserve(std::size_t nodes, std::size_t edges) {
        heads_.reserve(nodes);
        arena_.reserve(edges);
    }

    /// Structural audit of the arena itself: every block lies inside the
    /// arena, sizes fit capacities, live blocks never overlap, and the
    /// live-slot accounting matches the per-block sizes.  Throws
    /// ContractViolation on the first inconsistency.
    void validate() const;

    std::size_t arena_slots() const { return arena_.size(); }
    std::size_t live_slots() const { return live_; }
    std::size_t bytes() const {
        return arena_.capacity() * sizeof(Var) +
               heads_.capacity() * sizeof(Head);
    }

private:
    struct Head {
        std::uint32_t off = 0;
        std::uint32_t size = 0;
        std::uint32_t cap = 0;
    };

    /// Repack every list densely (dropping leaked blocks); list contents
    /// and order are preserved, only offsets change.
    void repack();

    std::vector<Head> heads_;
    std::vector<Var> arena_;
    std::size_t live_ = 0;
};

/// Open-addressing hash map from packed (fanin0, fanin1) keys to node
/// indices — the structural-hashing table.  Linear probing, power-of-two
/// capacity, tombstone deletion (tombstones are dropped on rehash).  Keys
/// 0 and ~0 are reserved as empty/tombstone markers; real strash keys
/// always carry a nonzero regular fanin literal in the upper word, so the
/// reserved values can never collide with one.
class StrashMap {
public:
    /// Returns null_var when the key is absent.
    Var find(std::uint64_t key) const;
    void insert(std::uint64_t key, Var v);
    void erase(std::uint64_t key);
    std::size_t size() const { return size_; }
    /// Visit every live (key, var) entry — strict integrity walks the
    /// table to prove each entry names a live AND with that exact key.
    template <typename Fn>
    void for_each(Fn&& fn) const {
        for (std::size_t i = 0; i < keys_.size(); ++i) {
            if (keys_[i] != k_empty && keys_[i] != k_tombstone) {
                fn(keys_[i], vals_[i]);
            }
        }
    }
    void reserve(std::size_t n);
    std::size_t bytes() const {
        return keys_.capacity() * sizeof(std::uint64_t) +
               vals_.capacity() * sizeof(Var);
    }

private:
    static constexpr std::uint64_t k_empty = 0;
    static constexpr std::uint64_t k_tombstone = ~0ULL;

    static std::size_t mix(std::uint64_t k) {
        // splitmix64 finalizer: full-avalanche in three multiplies.
        k = (k ^ (k >> 30)) * 0xBF58476D1CE4E5B9ULL;
        k = (k ^ (k >> 27)) * 0x94D049BB133111EBULL;
        return static_cast<std::size_t>(k ^ (k >> 31));
    }
    void rehash(std::size_t new_cap);

    std::vector<std::uint64_t> keys_;
    std::vector<Var> vals_;
    std::size_t size_ = 0;  ///< live entries
    std::size_t used_ = 0;  ///< live + tombstones
};

}  // namespace detail

class Aig {
public:
    Aig();

    /// Size in bytes of one packed node record — the bytes-per-node
    /// self-check target of the compact layout.
    static constexpr std::size_t node_bytes() { return sizeof(Node); }

    /// Auxiliary-storage accounting for diagnostics and benches.
    struct MemoryStats {
        std::size_t node_array_bytes = 0;   ///< flat node records
        std::size_t fanout_bytes = 0;       ///< fanout arena + heads
        std::size_t strash_bytes = 0;       ///< open-addressing table
        std::size_t po_count_bytes = 0;     ///< per-node PO ref counts
        std::size_t total() const {
            return node_array_bytes + fanout_bytes + strash_bytes +
                   po_count_bytes;
        }
    };
    MemoryStats memory_stats() const;

    /// Pre-size every internal array for `nodes` slots (and roughly
    /// 2*nodes fanout edges) — the bulk-ingestion fast path used by the
    /// AIGER readers.
    void reserve(std::size_t nodes);

    // -- construction ------------------------------------------------------

    /// Create a primary input; returns its (positive) literal.
    Lit add_pi();
    /// Create `n` primary inputs, returning their literals.
    std::vector<Lit> add_pis(std::size_t n);
    /// Register a primary output driven by `l`; returns the PO index.
    std::size_t add_po(Lit l);

    /// Structurally hashed AND with constant/idempotence simplification.
    Lit and_(Lit a, Lit b);
    Lit or_(Lit a, Lit b) { return lit_not(and_(lit_not(a), lit_not(b))); }
    Lit nand_(Lit a, Lit b) { return lit_not(and_(a, b)); }
    Lit nor_(Lit a, Lit b) { return and_(lit_not(a), lit_not(b)); }
    Lit xor_(Lit a, Lit b);
    Lit xnor_(Lit a, Lit b) { return lit_not(xor_(a, b)); }
    /// if c then t else e.
    Lit mux_(Lit c, Lit t, Lit e);
    /// Majority of three.
    Lit maj_(Lit a, Lit b, Lit c);
    /// Balanced AND / OR over a list (empty list gives the identity).
    Lit and_reduce(std::span<const Lit> lits);
    Lit or_reduce(std::span<const Lit> lits);

    /// Strash lookup *without* node creation; returns null_lit when the
    /// AND(a, b) node does not already exist and is not trivially reducible.
    Lit lookup_and(Lit a, Lit b) const;

    // -- queries -----------------------------------------------------------

    std::size_t num_pis() const { return pis_.size(); }
    std::size_t num_pos() const { return pos_.size(); }
    /// Number of live AND nodes — the "size" metric of the paper.
    std::size_t num_ands() const { return num_ands_; }
    /// Total slots including PIs, constant and tombstones.
    std::size_t num_slots() const { return nodes_.size(); }

    // Accessors that read a *mutable* aspect of a node carry a
    // BG_AUDIT_READ hook: in audit builds (-DBOOLGEBRA_AUDIT=ON) they
    // report the actual (var, Read-class) to the thread-local shadow
    // recorder (audit.hpp); in normal builds the hook expands to nothing
    // and the bodies are the exact pre-audit code.  is_pi / pis / pi are
    // immutable per-var facts and deliberately unhooked.
    bool is_const0(Var v) const { return v == 0; }
    bool is_pi(Var v) const { return nodes_[v].is_pi(); }
    bool is_and(Var v) const {
        BG_AUDIT_READ(v, Read::Struct);
        return nodes_[v].is_and();
    }
    bool is_dead(Var v) const {
        BG_AUDIT_READ(v, Read::Struct);
        return nodes_[v].dead();
    }
    std::uint32_t ref_count(Var v) const {
        BG_AUDIT_READ(v, Read::Ref);
        return nodes_[v].ref;
    }

    /// Fanins as packed references — the primary accessors of the new
    /// storage API (index() + complemented() replace the lit_var /
    /// lit_is_compl dance on the traversal hot paths).
    NodeRef fanin0_ref(Var v) const {
        BG_AUDIT_READ(v, Read::Struct);
        return nodes_[v].fanin0;
    }
    NodeRef fanin1_ref(Var v) const {
        BG_AUDIT_READ(v, Read::Struct);
        return nodes_[v].fanin1;
    }
    std::array<NodeRef, 2> fanin_refs(Var v) const {
        BG_AUDIT_READ(v, Read::Struct);
        return {nodes_[v].fanin0, nodes_[v].fanin1};
    }

    /// Fanins in the stable public literal encoding.
    Lit fanin0(Var v) const {
        BG_AUDIT_READ(v, Read::Struct);
        return nodes_[v].fanin0.lit();
    }
    Lit fanin1(Var v) const {
        BG_AUDIT_READ(v, Read::Struct);
        return nodes_[v].fanin1.lit();
    }

    std::span<const Var> pis() const { return pis_; }
    std::span<const Lit> pos() const {
        BG_AUDIT_READ_UNDECLARABLE();
        return pos_;
    }
    Lit po(std::size_t i) const {
        BG_AUDIT_READ_UNDECLARABLE();
        return pos_[i];
    }
    NodeRef po_ref(std::size_t i) const {
        BG_AUDIT_READ_UNDECLARABLE();
        return NodeRef::from_lit(pos_[i]);
    }
    Var pi(std::size_t i) const { return pis_[i]; }

    /// Live AND-node fanouts of v (PO references are not listed here).
    /// The span is invalidated by any mutating operation.
    std::span<const Var> fanouts(Var v) const {
        BG_AUDIT_READ(v, Read::Fanout);
        return fanouts_.list(v);
    }
    /// Number of POs driven by v (either phase) — O(1), maintained
    /// incrementally by add_po / replace / compact.
    std::size_t po_refs(Var v) const {
        BG_AUDIT_READ(v, Read::Ref);
        return po_ref_counts_[v];
    }

    // -- levels / depth ----------------------------------------------------

    /// Recompute levels of all live nodes (PI level 0, AND = 1 + max fanin).
    void update_levels();
    /// The cached level.  No footprint class covers it: the parallel
    /// orchestrator refreshes levels on its commit thread without
    /// journaling, so a level read during speculation would be unsound,
    /// and audit builds fail it like a PO-array read.  Checks read no
    /// levels; only the walk's commit-time depth judgement does.
    std::uint32_t level(Var v) const {
        BG_AUDIT_READ_UNDECLARABLE();
        return nodes_[v].level();
    }
    /// Longest PI-to-PO path in AND nodes; calls update_levels().
    std::uint32_t depth();
    /// Same metric without touching the cached levels — usable on shared
    /// read-only graphs (cost models measure const Aigs concurrently).
    std::uint32_t depth() const;

    // -- traversal ---------------------------------------------------------

    /// Live AND vars in a topological order (fanins before fanouts).
    std::vector<Var> topo_ands() const;
    /// All live vars (const, PIs, ANDs) in topological order.
    std::vector<Var> topo_all() const;
    /// True if `descendant` is in the transitive fanin cone of `root`
    /// (inclusive of root itself).
    bool is_in_tfi(Var root, Var descendant) const;

    // -- restructuring -----------------------------------------------------

    /// Redirect every reference to `v` (AND fanouts and POs) to `repl`,
    /// propagating trivial simplifications and structural-hash merges
    /// upward, and deleting cones that become unreferenced.  `repl` must
    /// not contain `v` in its transitive fanin (checked).
    void replace(Var v, Lit repl);

    /// Recursively delete an unreferenced AND node and any fanin cone that
    /// becomes unreferenced.  No-op for PIs/constant.
    void delete_unreferenced(Var v);

    /// Rebuild into a dense, topologically ordered AIG without tombstones.
    /// `old_to_new` (optional) receives the literal mapping.
    Aig compact(std::vector<Lit>* old_to_new = nullptr) const;

    // -- diagnostics -------------------------------------------------------

    /// How deep check_integrity digs.
    enum class CheckLevel {
        /// Ref counts, fanout symmetry, strash forward-consistency, PO
        /// ref counts, acyclicity, no references to dead nodes.
        Basic,
        /// Everything Basic checks, plus: FanoutArena block accounting
        /// (bounds, overlap, live-slot totals) with every per-node list
        /// compared against the fanouts recomputed from fanins; a full
        /// StrashMap walk proving each live entry names a live AND whose
        /// recomputed key matches (no stale or tombstoned hits reachable);
        /// and po_ref_counts_ re-derived from a full PO scan.
        Strict,
    };

    /// Full structural audit; throws ContractViolation with a diagnostic
    /// on the first inconsistency found.
    void check_integrity(CheckLevel level = CheckLevel::Basic) const;

#ifdef BOOLGEBRA_AUDIT
    /// Deliberate corruption for negative-path auditor tests (audit
    /// builds only): mutate internal state *without* journaling so the
    /// write-completeness audit / strict integrity must flag it.
    enum class Corrupt {
        RefCount,    ///< bump a ref count (basic integrity catches)
        FanoutDup,   ///< duplicate a fanout entry (only strict catches)
        StrashDrop,  ///< erase a live AND's strash entry
    };
    void audit_corrupt_for_test(Corrupt kind, Var v);
#endif

    // -- mutation journal --------------------------------------------------

    /// Attach a mutation journal: every structural change appends the
    /// affected var(s) — reference-count changes, fanout-edge changes,
    /// node creation and death, PO attachment.  Entries are encoded
    /// `fp_encode(var, Read)` (footprint.hpp) so readers can match each
    /// change against the aspect a speculation actually read; entries may
    /// repeat and readers dedupe.  Detach with nullptr.  The journal
    /// pointer never follows a copy of the graph (speculative copies must
    /// not write into the original's journal), so `Aig copy = g;` is
    /// always journal-free.
    void set_change_log(std::vector<Var>* log) { change_log_.log = log; }

    /// One-line description, e.g. "aig: pis=5 pos=2 ands=37 depth=9".
    std::string to_string() const;

private:
    /// The packed per-node record: 16 bytes, cache-line friendly.  Level,
    /// is_pi and dead share one word (level:30 | is_pi:1 | dead:1).
    struct Node {
        NodeRef fanin0 = null_ref;  ///< null for const / PI
        NodeRef fanin1 = null_ref;  ///< null for const / PI
        std::uint32_t ref = 0;      ///< AND-fanout count + PO references
        std::uint32_t packed = 0;

        bool is_and() const { return !fanin0.is_null(); }
        bool dead() const { return (packed & 1U) != 0; }
        bool is_pi() const { return (packed & 2U) != 0; }
        std::uint32_t level() const { return packed >> 2; }
        void set_dead(bool d) {
            packed = (packed & ~1U) | (d ? 1U : 0U);
        }
        void set_pi(bool p) { packed = (packed & ~2U) | (p ? 2U : 0U); }
        void set_level(std::uint32_t l) {
            packed = (packed & 3U) | (l << 2);
        }
    };
    static_assert(sizeof(Node) == 16,
                  "packed node record must stay within 16 bytes");

    /// Non-owning journal pointer whose copy operations reset to null:
    /// graph copies (including `current = current.compact()` assignments)
    /// must never inherit the original's journal.
    struct ChangeLogPtr {
        std::vector<Var>* log = nullptr;
        ChangeLogPtr() = default;
        ChangeLogPtr(const ChangeLogPtr& /*other*/) {}
        ChangeLogPtr& operator=(const ChangeLogPtr& /*other*/) {
            log = nullptr;
            return *this;
        }
        ChangeLogPtr(ChangeLogPtr&& other) noexcept { other.log = nullptr; }
        ChangeLogPtr& operator=(ChangeLogPtr&& other) noexcept {
            log = nullptr;
            other.log = nullptr;
            return *this;
        }
    };

    void touch(Var v, Read k) {
        if (change_log_.log != nullptr) [[unlikely]] {
            change_log_.log->push_back(fp_encode(v, k));
        }
    }

    Var new_node();
    static std::uint64_t strash_key(Lit a, Lit b) {
        return (static_cast<std::uint64_t>(a) << 32) | b;
    }
    void ref_var(Var v) {
        touch(v, Read::Ref);
        ++nodes_[v].ref;
    }
    void deref_var(Var v) {
        BG_ASSERT(nodes_[v].ref > 0, "reference count underflow");
        touch(v, Read::Ref);
        --nodes_[v].ref;
    }
    // A fanout-edge change alters the fanin endpoint's fanout list (and
    // the strash-key population over it) and the fanout endpoint's fanin
    // structure — two different read classes.
    void fanout_add(Var fanin, Var fanout) {
        touch(fanin, Read::Fanout);
        touch(fanout, Read::Struct);
        fanouts_.push_back(fanin, fanout);
    }
    void fanout_remove(Var fanin, Var fanout) {
        touch(fanin, Read::Fanout);
        touch(fanout, Read::Struct);
        fanouts_.remove(fanin, fanout);
    }
    /// Patch one fanout of `v` during replace(); may recurse.
    void patch_fanout(Var fanout, Var v, Lit repl);

    std::vector<Node> nodes_;
    detail::FanoutArena fanouts_;
    std::vector<Var> pis_;
    std::vector<Lit> pos_;
    /// Per-var count of PO references (either phase) — keeps po_refs() at
    /// O(1) on the hot traversal paths.
    std::vector<std::uint32_t> po_ref_counts_;
    detail::StrashMap strash_;
    std::size_t num_ands_ = 0;
    ChangeLogPtr change_log_;
};

}  // namespace bg::aig
