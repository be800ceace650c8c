#include <gtest/gtest.h>

#include "aig/cec.hpp"
#include "circuits/generators.hpp"
#include "circuits/registry.hpp"
#include "opt/orchestrate.hpp"
#include "opt/standalone.hpp"
#include "sat/cec_sat.hpp"
#include "sat/cnf.hpp"
#include "test_helpers.hpp"

namespace {

using namespace bg::aig;  // NOLINT: test brevity
using bg::sat::check_equivalence_sat;

TEST(SatCec, SimplePairs) {
    Aig g;
    {
        const Lit a = g.add_pi();
        const Lit b = g.add_pi();
        g.add_po(lit_not(g.and_(a, b)));
    }
    Aig h;
    {
        const Lit a = h.add_pi();
        const Lit b = h.add_pi();
        h.add_po(h.or_(lit_not(a), lit_not(b)));
    }
    EXPECT_EQ(check_equivalence_sat(g, h), CecVerdict::Equivalent);

    Aig k;
    {
        const Lit a = k.add_pi();
        const Lit b = k.add_pi();
        k.add_po(k.and_(a, b));
    }
    EXPECT_EQ(check_equivalence_sat(g, k), CecVerdict::NotEquivalent);
}

TEST(SatCec, AgreesWithExhaustiveSimulation) {
    // Property: on small-PI circuits SAT and exhaustive simulation must
    // produce identical verdicts, for equivalent and mutated pairs alike.
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        const Aig original = bg::test::redundant_aig(7, 30, 3, seed);
        Aig optimized = original;
        (void)bg::opt::standalone_pass(optimized, bg::opt::OpKind::Rewrite);
        EXPECT_EQ(check_equivalence(original, optimized),
                  CecVerdict::Equivalent);
        EXPECT_EQ(check_equivalence_sat(original, optimized),
                  CecVerdict::Equivalent);

        // Mutate one PO polarity: definitively inequivalent.
        const Aig rebuilt = optimized.compact();
        const Aig inv = bg::test::flip_first_po(rebuilt);
        EXPECT_EQ(check_equivalence_sat(rebuilt, inv),
                  CecVerdict::NotEquivalent)
            << "seed " << seed;
    }
}

TEST(SatCec, ProvesWidePiDesignsExhaustiveCannotTouch) {
    // The whole point of the SAT back end: registry designs have dozens
    // of PIs, beyond exhaustive simulation; SAT still PROVES equivalence
    // after a full optimization script.
    const Aig original = bg::circuits::make_benchmark_scaled("b07", 0.5);
    ASSERT_GT(original.num_pis(), 14u);
    Aig g = original;
    (void)bg::opt::standalone_pass(g, bg::opt::OpKind::Rewrite);
    (void)bg::opt::standalone_pass(g, bg::opt::OpKind::Resub);
    (void)bg::opt::standalone_pass(g, bg::opt::OpKind::Refactor);
    // Simulation can only say "probably".
    EXPECT_EQ(check_equivalence(original, g),
              CecVerdict::ProbablyEquivalent);
    // SAT proves it.
    EXPECT_EQ(check_equivalence_sat(original, g), CecVerdict::Equivalent);
}

TEST(SatCec, OrchestrationProvenOnWideDesign) {
    const Aig original = bg::circuits::make_benchmark_scaled("b09", 0.6);
    bg::Rng rng(33);
    Aig g = original;
    bg::opt::DecisionVector d(g.num_slots(), bg::opt::OpKind::None);
    for (Var v = 0; v < g.num_slots(); ++v) {
        if (g.is_and(v)) {
            d[v] = bg::opt::op_from_index(static_cast<int>(rng.next_below(3)));
        }
    }
    (void)bg::opt::orchestrate(g, d);
    EXPECT_EQ(check_equivalence_sat(original, g), CecVerdict::Equivalent);
}

class MixedOrchestration : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MixedOrchestration, SimulationAndSatBothProve) {
    // Exhaustive simulation and SAT must both prove a small design
    // equivalent to its random rw/rs/rf orchestration.
    const std::uint64_t seed = GetParam();
    const Aig original = bg::test::redundant_aig(8, 35, 3, seed);
    Aig optimized = original;
    bg::Rng rng(seed * 7 + 1);
    bg::opt::DecisionVector d(optimized.num_slots(), bg::opt::OpKind::None);
    for (Var v = 0; v < optimized.num_slots(); ++v) {
        if (optimized.is_and(v)) {
            d[v] = bg::opt::op_from_index(static_cast<int>(rng.next_below(3)));
        }
    }
    (void)bg::opt::orchestrate(optimized, d);

    EXPECT_EQ(check_equivalence(original, optimized),
              CecVerdict::Equivalent);
    EXPECT_EQ(check_equivalence_sat(original, optimized),
              CecVerdict::Equivalent);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MixedOrchestration,
                         ::testing::Range(std::uint64_t{1},
                                          std::uint64_t{9}));

TEST(SatCec, CounterexampleIsValidated) {
    // Single differing minterm among 2^20 — random simulation will
    // essentially never hit it, SAT finds it instantly.
    const unsigned n = 20;
    Aig g;
    const auto gp = g.add_pis(n);
    g.add_po(g.and_reduce(gp));
    Aig h;
    const auto hp = h.add_pis(n);
    h.add_po(lit_false);  // differs only at the all-ones minterm
    EXPECT_EQ(check_equivalence(g, h), CecVerdict::ProbablyEquivalent)
        << "random simulation should miss the needle";
    EXPECT_EQ(check_equivalence_sat(g, h), CecVerdict::NotEquivalent)
        << "SAT must find the needle";
}

TEST(SatCec, BudgetExhaustionDegradesGracefully) {
    const Aig a = bg::circuits::make_benchmark_scaled("b11", 0.4);
    Aig b = a;
    (void)bg::opt::standalone_pass(b, bg::opt::OpKind::Rewrite);
    bg::sat::SatCecOptions opts;
    opts.conflict_budget = 1;  // absurdly small
    const auto verdict = check_equivalence_sat(a, b, opts);
    EXPECT_NE(verdict, CecVerdict::NotEquivalent);
}

TEST(SatCec, MemoryBudgetDegradesHardMiter) {
    // A miter whose CNF alone exceeds a tiny per-engine budget must
    // degrade to ProbablyEquivalent with the memory flag set — never
    // claim NotEquivalent, never grow unbounded, never throw.
    const Aig a = bg::circuits::make_benchmark_scaled("b11", 0.4);
    Aig b = a;
    (void)bg::opt::standalone_pass(b, bg::opt::OpKind::Rewrite);
    bg::sat::SatCecOptions opts;
    opts.max_memory_bytes = 1024;
    const auto res = bg::sat::check_equivalence_sat_full(a, b, opts);
    EXPECT_EQ(res.verdict, CecVerdict::ProbablyEquivalent);
    EXPECT_TRUE(res.stats.memory_limited);
    EXPECT_GT(res.stats.memory_bytes, opts.max_memory_bytes);
}

TEST(SatCec, DefaultMemoryBudgetUnobtrusive) {
    // The 512 MiB default must not change verdicts on this library's
    // miter sizes; the stats still expose the measured footprint.
    const Aig a = bg::circuits::make_benchmark_scaled("b11", 0.4);
    Aig b = a;
    (void)bg::opt::standalone_pass(b, bg::opt::OpKind::Rewrite);
    const auto res = bg::sat::check_equivalence_sat_full(a, b);
    EXPECT_EQ(res.verdict, CecVerdict::Equivalent);
    EXPECT_FALSE(res.stats.memory_limited);
    EXPECT_GT(res.stats.memory_bytes, 0u);
}

TEST(SatCec, IdenticalCopyNeedsNoSearch) {
    // Strashing b into a's node space maps every node of a compacted copy
    // onto its original, so every output pair is proven without a solve,
    // and nothing is encoded: the solver stays as it was built.  Side by
    // side, these pairs took 3,698, 2,939, 5,515 and 30,598 conflicts.
    const std::size_t empty_solver = bg::sat::Solver().memory_estimate();
    for (const char* name : {"b11", "b12", "c2670", "c5315"}) {
        const Aig a = bg::circuits::make_benchmark_scaled(name, 1.0);
        const auto res = bg::sat::check_equivalence_sat_full(a, a.compact());
        EXPECT_EQ(res.verdict, CecVerdict::Equivalent) << name;
        EXPECT_EQ(res.stats.conflicts, 0u) << name;
        EXPECT_EQ(res.stats.memory_bytes, empty_solver) << name;

        bg::sat::Solver solver;
        const auto enc = bg::sat::encode_miter(solver, a, a.compact());
        EXPECT_TRUE(enc.pi_vars.empty()) << name;
        EXPECT_TRUE(enc.diff_lits.empty()) << name;
        EXPECT_EQ(solver.num_vars(), 0) << name;
        EXPECT_EQ(res.stats.outputs_proven, res.stats.outputs_total) << name;
        EXPECT_EQ(res.stats.outputs_total, a.num_pos()) << name;
    }
}

TEST(SatCec, DenseRewrittenPairProvenAndFlippedRefuted) {
    // A dense random graph against its rewrite+resub+refactor copy: the
    // strashed miter shares what the passes left in place, and the solver
    // proves the rest.  The same copy with its first output flipped must
    // be refuted with a counterexample simulation confirms.
    const Aig a = bg::circuits::dense_random_aig(64, 2000, 1);
    Aig b = a;
    (void)bg::opt::standalone_pass(b, bg::opt::OpKind::Rewrite);
    (void)bg::opt::standalone_pass(b, bg::opt::OpKind::Resub);
    (void)bg::opt::standalone_pass(b, bg::opt::OpKind::Refactor);
    ASSERT_LT(b.num_ands(), a.num_ands());
    const auto proven = bg::sat::check_equivalence_sat_full(a, b);
    EXPECT_EQ(proven.verdict, CecVerdict::Equivalent);
    EXPECT_EQ(proven.stats.outputs_proven, a.num_pos());

    const Aig bad = bg::test::flip_first_po(b);
    const auto refuted = bg::sat::check_equivalence_sat_full(a, bad);
    ASSERT_EQ(refuted.verdict, CecVerdict::NotEquivalent);
    EXPECT_EQ(bg::sat::resolve_sat_counterexample(a, bad,
                                                  refuted.counterexample),
              CecVerdict::NotEquivalent);
}

TEST(SatCec, InterfaceMismatchThrows) {
    Aig a;
    a.add_pi();
    Aig b;
    b.add_pis(2);
    EXPECT_THROW((void)check_equivalence_sat(a, b), bg::ContractViolation);
}

}  // namespace
