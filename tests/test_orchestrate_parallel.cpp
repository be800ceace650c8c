/// \file test_orchestrate_parallel.cpp
/// The speculate/ordered-commit orchestrator against its sequential
/// reference: bit-identical graphs, counters and applied vectors at 1/2/4
/// intra-workers, rollback determinism under conflicts, repeatable
/// speculation counters, and depth-aware objectives speculating on the
/// same walk.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "aig/cec.hpp"
#include "circuits/registry.hpp"
#include "opt/objective.hpp"
#include "opt/orchestrate.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"

namespace {

using namespace bg::aig;  // NOLINT: test brevity
using bg::ThreadPool;
using bg::opt::DecisionVector;
using bg::opt::IntraParallel;
using bg::opt::OpKind;
using bg::opt::OrchestrationResult;
using bg::opt::orchestrate;
using bg::opt::orchestrate_parallel;

/// A decision vector that exercises all three operations: rw/rs/rf
/// assigned round-robin by var id.
DecisionVector mixed_decisions(const Aig& g) {
    DecisionVector d(g.num_slots(), OpKind::None);
    for (const Var v : g.topo_ands()) {
        d[v] = bg::opt::op_from_index(static_cast<int>(v % 3));
    }
    return d;
}

void expect_identical(const OrchestrationResult& got,
                      const OrchestrationResult& want) {
    EXPECT_EQ(got.original_size, want.original_size);
    EXPECT_EQ(got.final_size, want.final_size);
    EXPECT_EQ(got.final_depth, want.final_depth);
    EXPECT_EQ(got.applied, want.applied);
    EXPECT_EQ(got.num_checked, want.num_checked);
    EXPECT_EQ(got.num_applied, want.num_applied);
    EXPECT_EQ(got.num_rejected, want.num_rejected);
}

TEST(OrchestrateParallel, BitIdenticalToSequentialOnRegistryDesigns) {
    for (const auto& name : bg::circuits::benchmark_names()) {
        const Aig design = bg::circuits::make_benchmark_scaled(name, 0.3);
        const DecisionVector d = mixed_decisions(design);

        Aig ref = design;
        const auto res_ref = orchestrate(ref, d);
        const auto fp_ref = structural_fingerprint(ref);

        for (const std::size_t workers : {1UL, 2UL, 4UL}) {
            SCOPED_TRACE(name + " workers=" + std::to_string(workers));
            ThreadPool pool(workers);
            IntraParallel intra;
            intra.pool = &pool;
            Aig g = design;
            const auto res = orchestrate_parallel(g, d, {},
                                                  bg::opt::size_objective(),
                                                  intra);
            expect_identical(res, res_ref);
            EXPECT_EQ(structural_fingerprint(g), fp_ref);
            g.check_integrity(Aig::CheckLevel::Strict);
        }
    }
}

TEST(OrchestrateParallel, ForcedConflictsRollBackDeterministically) {
    // Every candidate of a wave is speculated against the graph frozen at
    // the wave's start, so each commit inside the wave can stale the
    // candidates behind it.  Conflicted speculations must be re-checked
    // so the result stays bit-identical — and at least one conflict must
    // actually fire, or this test proves nothing.
    std::size_t total_conflicts = 0;
    for (const auto& name : bg::circuits::benchmark_names()) {
        const Aig design = bg::circuits::make_benchmark_scaled(name, 0.3);
        const DecisionVector d = mixed_decisions(design);

        Aig ref = design;
        const auto res_ref = orchestrate(ref, d);
        const auto fp_ref = structural_fingerprint(ref);

        for (const std::size_t workers : {2UL, 4UL}) {
            SCOPED_TRACE(name + " workers=" + std::to_string(workers));
            ThreadPool pool(workers);
            IntraParallel intra;
            intra.pool = &pool;
            Aig g = design;
            const auto res = orchestrate_parallel(
                g, d, {}, bg::opt::size_objective(), intra);
            expect_identical(res, res_ref);
            EXPECT_EQ(structural_fingerprint(g), fp_ref);
            EXPECT_GT(res.num_speculated, 0u);
            total_conflicts += res.num_conflicts;
        }
    }
    EXPECT_GT(total_conflicts, 0u)
        << "the forced-conflict configuration never conflicted; the "
           "rollback path went unexercised";
}

TEST(OrchestrateParallel, RepeatedRunsAreDeterministic) {
    const Aig design = bg::circuits::make_benchmark_scaled("b11", 0.4);
    const DecisionVector d = mixed_decisions(design);
    ThreadPool pool(4);
    IntraParallel intra;
    intra.pool = &pool;

    std::uint64_t first_fp = 0;
    OrchestrationResult first;
    for (int run = 0; run < 3; ++run) {
        Aig g = design;
        const auto res =
            orchestrate_parallel(g, d, {}, bg::opt::size_objective(), intra);
        const auto fp = structural_fingerprint(g);
        if (run == 0) {
            first_fp = fp;
            first = res;
            continue;
        }
        SCOPED_TRACE("run=" + std::to_string(run));
        expect_identical(res, first);
        EXPECT_EQ(res.num_speculated, first.num_speculated);
        EXPECT_EQ(res.num_conflicts, first.num_conflicts);
        EXPECT_EQ(fp, first_fp);
    }
}

TEST(OrchestrateParallel, DepthAwareObjectivesSpeculateBitIdentically) {
    // Checks read no levels; depth-aware objectives judge each candidate's
    // depth on the commit thread against levels refreshed there.  So
    // depth and weighted passes speculate like size and still match plain
    // orchestrate bit for bit.  Round-robin decisions make the depth
    // objective veto candidates, so accepts() decides commits here.
    std::size_t total_rejected = 0;
    for (const std::string spec : {"depth", "weighted:1,2"}) {
        const auto objective = bg::opt::make_objective(spec);
        for (const auto& name : bg::circuits::benchmark_names()) {
            const Aig design = bg::circuits::make_benchmark_scaled(name, 0.4);
            const DecisionVector d = mixed_decisions(design);

            Aig ref = design;
            const auto res_ref = orchestrate(ref, d, {}, *objective);
            const auto fp_ref = structural_fingerprint(ref);
            total_rejected += res_ref.num_rejected;

            for (const std::size_t workers : {1UL, 2UL, 4UL}) {
                SCOPED_TRACE(spec + " " + name +
                             " workers=" + std::to_string(workers));
                ThreadPool pool(workers);
                IntraParallel intra;
                intra.pool = &pool;
                Aig g = design;
                const auto res =
                    orchestrate_parallel(g, d, {}, *objective, intra);
                expect_identical(res, res_ref);
                EXPECT_EQ(structural_fingerprint(g), fp_ref);
                if (workers >= 2) {
                    EXPECT_GT(res.num_speculated, 0u);
                }
            }
        }
    }
    EXPECT_GT(total_rejected, 0u)
        << "no candidate was vetoed; accepts() went unexercised";
}

TEST(OrchestrateParallel, ResultStaysFunctionallyEquivalent) {
    // Belt and braces on top of the fingerprint pins: the parallel commit
    // must preserve the design's function, not just match the sequential
    // bits.
    const Aig design = bg::test::redundant_aig(10, 80, 4, 23);
    const DecisionVector d = mixed_decisions(design);
    ThreadPool pool(4);
    IntraParallel intra;
    intra.pool = &pool;
    Aig g = design;
    (void)orchestrate_parallel(g, d, {}, bg::opt::size_objective(), intra);
    EXPECT_EQ(check_equivalence(design, g), CecVerdict::Equivalent);
}

}  // namespace
