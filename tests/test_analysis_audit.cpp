/// \file test_analysis_audit.cpp
/// The footprint soundness auditor (analysis/soundness.hpp) and the
/// strict integrity checker.  The auditor *logic* is exercised in every
/// build with hand-built shadow sets and journals; the accessor *hooks*
/// and the corruption fixtures only exist in audit builds
/// (-DBOOLGEBRA_AUDIT=ON), so those sections are compile-gated.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "aig/aig.hpp"
#include "aig/audit.hpp"
#include "aig/footprint.hpp"
#include "analysis/soundness.hpp"
#include "circuits/registry.hpp"
#include "cut/cut_enum.hpp"
#include "opt/objective.hpp"
#include "opt/orchestrate.hpp"
#include "test_helpers.hpp"
#include "util/contracts.hpp"
#include "util/parallel.hpp"

namespace {

using namespace bg::aig;  // NOLINT: test brevity
using bg::ContractViolation;
using bg::analysis::WriteAudit;
using bg::analysis::verify_read_soundness;

// Normal builds must compile the hooks away entirely; the audit job
// compiles this same file with the hooks live.  Pinning enabled() at
// compile time guarantees a stray always-on hook cannot ship silently.
#ifdef BOOLGEBRA_AUDIT
static_assert(audit::enabled(), "audit build must report enabled()");
#else
static_assert(!audit::enabled(),
              "normal builds must compile audit hooks to nothing");
#endif

ReadFootprint declared_with(std::initializer_list<std::uint32_t> entries) {
    ReadFootprint fp;
    fp.vars.assign(entries.begin(), entries.end());
    return fp;
}

// ---------------------------------------------------------------------------
// Auditor logic, every build: hand-built shadow sets vs declarations.
// ---------------------------------------------------------------------------

TEST(ReadSoundness, PassesWhenShadowIsSubsetOfDeclared) {
    const auto fp = declared_with({fp_encode(3, Read::Struct),
                                   fp_encode(3, Read::Ref),
                                   fp_encode(7, Read::Fanout)});
    audit::ShadowSet shadow;
    shadow.entries = {fp_encode(3, Read::Struct), fp_encode(3, Read::Struct),
                      fp_encode(7, Read::Fanout)};
    EXPECT_NO_THROW(verify_read_soundness(fp, shadow, 3, "test-op"));
}

TEST(ReadSoundness, FlagsUndeclaredRead) {
    const auto fp = declared_with({fp_encode(3, Read::Struct)});
    audit::ShadowSet shadow;
    shadow.entries = {fp_encode(3, Read::Struct),
                      fp_encode(9, Read::Struct)};  // 9 never declared
    EXPECT_THROW(verify_read_soundness(fp, shadow, 3, "test-op"),
                 ContractViolation);
}

TEST(ReadSoundness, FlagsRightVarWrongClass) {
    // Declaring var 3 Struct does not license reading var 3's ref count.
    const auto fp = declared_with({fp_encode(3, Read::Struct)});
    audit::ShadowSet shadow;
    shadow.entries = {fp_encode(3, Read::Ref)};
    EXPECT_THROW(verify_read_soundness(fp, shadow, 3, "test-op"),
                 ContractViolation);
}

TEST(ReadSoundness, FlagsPoArrayRead) {
    const auto fp = declared_with({fp_encode(3, Read::Struct)});
    audit::ShadowSet shadow;
    shadow.undeclarable_read = true;
    EXPECT_THROW(verify_read_soundness(fp, shadow, 3, "test-op"),
                 ContractViolation);
}

TEST(ReadSoundness, OverflowedFootprintIsExemptBecauseNeverConsumed) {
    ReadFootprint fp;
    fp.overflow = true;  // orchestrator re-checks such candidates inline
    audit::ShadowSet shadow;
    shadow.entries = {fp_encode(99, Read::Fanout)};
    EXPECT_NO_THROW(verify_read_soundness(fp, shadow, 3, "test-op"));
}

TEST(ShadowScope, RecordsManualReadsAndRestoresOnExit) {
    // The recording machinery itself works in every build; only the
    // accessor hooks are compile-gated.
    audit::ShadowSet shadow;
    EXPECT_FALSE(audit::shadow_active());
    {
        const audit::ShadowScope scope(shadow);
        EXPECT_TRUE(audit::shadow_active());
        audit::shadow_read(5, Read::Fanout);
    }
    EXPECT_FALSE(audit::shadow_active());
    audit::shadow_read(6, Read::Struct);  // no scope: dropped
    ASSERT_EQ(shadow.entries.size(), 1u);
    EXPECT_EQ(shadow.entries[0], fp_encode(5, Read::Fanout));
}

// ---------------------------------------------------------------------------
// Write-completeness audit, every build: real mutations, real journal.
// ---------------------------------------------------------------------------

TEST(WriteCompleteness, CleanWhenNothingChanged) {
    Aig g = bg::test::random_aig(4, 20, 2, 7);
    WriteAudit audit;
    audit.capture(g);
    const std::vector<Var> journal;
    EXPECT_NO_THROW(audit.verify(g, journal, "no-op"));
}

TEST(WriteCompleteness, JournalCoversRealMutations) {
    Aig g = bg::test::random_aig(4, 20, 2, 7);
    WriteAudit audit;
    audit.capture(g);

    std::vector<Var> journal;
    g.set_change_log(&journal);
    const Lit a = make_lit(g.pi(0));
    const Lit b = lit_not(make_lit(g.pi(3)));
    const Lit fresh = g.and_(g.and_(a, b), make_lit(g.pi(2)));
    g.add_po(fresh);
    g.set_change_log(nullptr);

    EXPECT_FALSE(journal.empty());
    EXPECT_NO_THROW(audit.verify(g, journal, "and_ + add_po"));
}

TEST(WriteCompleteness, FlagsMutationScrubbedFromJournal) {
    Aig g = bg::test::random_aig(4, 20, 2, 7);
    WriteAudit audit;
    audit.capture(g);

    std::vector<Var> journal;
    g.set_change_log(&journal);
    const Lit fresh = g.and_(
        g.and_(make_lit(g.pi(0)), lit_not(make_lit(g.pi(3)))),
        make_lit(g.pi(2)));
    g.add_po(fresh);
    g.set_change_log(nullptr);

    // Scrub every entry for one mutated var: the audit must notice that
    // var's state diverged from the snapshot with no journal coverage.
    const Var scrubbed = lit_var(fresh);
    std::erase_if(journal, [&](Var e) { return fp_entry_var(e) == scrubbed; });
    EXPECT_THROW(audit.verify(g, journal, "scrubbed journal"),
                 ContractViolation);
}

// ---------------------------------------------------------------------------
// Strict integrity, every build: positive runs over real designs.
// ---------------------------------------------------------------------------

TEST(StrictIntegrity, CleanOnRegistryDesigns) {
    for (const auto& name : bg::circuits::benchmark_names()) {
        SCOPED_TRACE(name);
        const Aig g = bg::circuits::make_benchmark_scaled(name, 0.3);
        EXPECT_NO_THROW(g.check_integrity(Aig::CheckLevel::Strict));
    }
}

TEST(StrictIntegrity, CleanAfterOptimizationPass) {
    Aig g = bg::test::redundant_aig(6, 60, 3, 11);
    bg::opt::DecisionVector d(g.num_slots(), bg::opt::OpKind::None);
    for (const Var v : g.topo_ands()) {
        d[v] = bg::opt::op_from_index(static_cast<int>(v % 3));
    }
    bg::opt::orchestrate(g, d);
    EXPECT_NO_THROW(g.check_integrity(Aig::CheckLevel::Strict));
}

// ---------------------------------------------------------------------------
// Audit builds only: live accessor hooks, corruption fixtures, and the
// end-to-end audited orchestrator.
// ---------------------------------------------------------------------------
#ifdef BOOLGEBRA_AUDIT

TEST(AuditHooks, AccessorsReportToActiveShadow) {
    Aig g = bg::test::random_aig(4, 10, 1, 3);
    const Var v = lit_var(g.pos()[0]);
    ASSERT_TRUE(g.is_and(v));

    audit::ShadowSet shadow;
    {
        const audit::ShadowScope scope(shadow);
        (void)g.is_and(v);
        (void)g.ref_count(v);
        (void)g.fanouts(v);
        (void)g.fanin_refs(v);
    }
    const auto has = [&](Read k) {
        return std::find(shadow.entries.begin(), shadow.entries.end(),
                         fp_encode(v, k)) != shadow.entries.end();
    };
    EXPECT_TRUE(has(Read::Struct));
    EXPECT_TRUE(has(Read::Ref));
    EXPECT_TRUE(has(Read::Fanout));
    EXPECT_FALSE(shadow.undeclarable_read);

    shadow.clear();
    {
        const audit::ShadowScope scope(shadow);
        (void)g.pos();
    }
    EXPECT_TRUE(shadow.undeclarable_read);
}

TEST(AuditHooks, LevelReadFailsSoundness) {
    // Levels are refreshed on the parallel orchestrator's commit thread
    // without journaling, so no footprint class can declare a level read:
    // a speculation that reads one fails even with the var's structure
    // declared.
    Aig g = bg::test::random_aig(4, 10, 1, 3);
    const Var v = lit_var(g.pos()[0]);
    g.update_levels();

    ReadFootprint fp;
    audit::ShadowSet shadow;
    {
        const FootprintScope declare(fp);
        const audit::ShadowScope observe(shadow);
        fp_touch(v, Read::Struct);
        (void)g.level(v);
    }
    EXPECT_TRUE(shadow.undeclarable_read);
    EXPECT_THROW(verify_read_soundness(fp, shadow, v, "level-read"),
                 ContractViolation);
}

TEST(AuditHooks, UnderDeclaredCheckIsCaught) {
    // A deliberately broken "check": reads a node's ref count under the
    // recorder without ever declaring it.  This is the seeded fixture the
    // acceptance criteria require the auditor to flag.
    Aig g = bg::test::random_aig(4, 10, 1, 3);
    const Var v = lit_var(g.pos()[0]);

    ReadFootprint fp;
    audit::ShadowSet shadow;
    {
        const FootprintScope declare(fp);
        const audit::ShadowScope observe(shadow);
        fp_touch(v, Read::Struct);
        (void)g.is_and(v);      // declared: fine
        (void)g.ref_count(v);   // Ref-class read, never declared
    }
    EXPECT_THROW(verify_read_soundness(fp, shadow, v, "seeded-broken-check"),
                 ContractViolation);
}

TEST(AuditHooks, WellDeclaredCutEnumerationIsAuditClean) {
    Aig g = bg::test::redundant_aig(6, 40, 2, 5);
    for (const Var v : g.topo_ands()) {
        ReadFootprint fp;
        audit::ShadowSet shadow;
        {
            const FootprintScope declare(fp);
            const audit::ShadowScope observe(shadow);
            (void)bg::cut::reconv_cut(g, v, 8);
        }
        EXPECT_NO_THROW(verify_read_soundness(fp, shadow, v, "reconv_cut"));
    }
}

TEST(AuditHooks, EveryCheckOpIsAuditClean) {
    // Every read a check makes through the graph's accessors must be in
    // its declared footprint: every AND of every registry design, for
    // each of rw, rs and rf.  Resub declares its window and the fanout
    // lists it scans; no walk of the root's fanout cone is involved.
    for (const auto& name : bg::circuits::benchmark_names()) {
        SCOPED_TRACE(name);
        Aig g = bg::circuits::make_benchmark_scaled(name, 1.0);
        g.update_levels();
        for (const Var v : g.topo_ands()) {
            for (const bg::opt::OpKind op :
                 {bg::opt::OpKind::Rewrite, bg::opt::OpKind::Resub,
                  bg::opt::OpKind::Refactor}) {
                ReadFootprint fp;
                audit::ShadowSet shadow;
                {
                    const FootprintScope declare(fp);
                    const audit::ShadowScope observe(shadow);
                    (void)bg::opt::check_op(g, v, op);
                }
                EXPECT_NO_THROW(verify_read_soundness(
                    fp, shadow, v, bg::opt::to_string(op)));
            }
        }
    }
}

TEST(AuditCorruption, UnjournaledRefCountBumpCaught) {
    Aig g = bg::test::random_aig(4, 20, 2, 7);
    const Var v = lit_var(g.pos()[0]);
    g.audit_corrupt_for_test(Aig::Corrupt::RefCount, v);
    EXPECT_THROW(g.check_integrity(), ContractViolation);
}

TEST(AuditCorruption, DuplicatedFanoutCaughtOnlyByStrict) {
    Aig g = bg::test::random_aig(4, 20, 2, 7);
    // Pick an AND with at least one fanout edge.
    Var victim = null_var;
    for (const Var v : g.topo_ands()) {
        if (!g.fanouts(v).empty()) {
            victim = v;
            break;
        }
    }
    ASSERT_NE(victim, null_var);
    g.audit_corrupt_for_test(Aig::Corrupt::FanoutDup, victim);
    EXPECT_THROW(g.check_integrity(Aig::CheckLevel::Strict),
                 ContractViolation);
}

TEST(AuditCorruption, DroppedStrashEntryCaught) {
    Aig g = bg::test::random_aig(4, 20, 2, 7);
    const Var v = lit_var(g.pos()[0]);
    ASSERT_TRUE(g.is_and(v));
    g.audit_corrupt_for_test(Aig::Corrupt::StrashDrop, v);
    EXPECT_THROW(g.check_integrity(Aig::CheckLevel::Strict),
                 ContractViolation);
}

TEST(AuditEndToEnd, ParallelOrchestratorRunsAuditClean) {
    // The whole point of the audit build: a full speculate /
    // ordered-commit pass over real designs with every speculation's
    // shadow set checked against its declared footprint and every commit
    // checked against the mutation journal.  Any missing fp_touch or
    // unjournaled write in the opt/cut layers throws here.
    for (const auto& name : bg::circuits::benchmark_names()) {
        SCOPED_TRACE(name);
        Aig g = bg::circuits::make_benchmark_scaled(name, 0.25);
        bg::opt::DecisionVector d(g.num_slots(), bg::opt::OpKind::None);
        for (const Var v : g.topo_ands()) {
            d[v] = bg::opt::op_from_index(static_cast<int>(v % 3));
        }
        bg::ThreadPool pool(2);
        bg::opt::IntraParallel intra;
        intra.pool = &pool;
        EXPECT_NO_THROW(bg::opt::orchestrate_parallel(
            g, d, {}, bg::opt::size_objective(), intra));
        EXPECT_NO_THROW(g.check_integrity(Aig::CheckLevel::Strict));
    }
}

#endif  // BOOLGEBRA_AUDIT

}  // namespace
