/// \file test_verify_portfolio.cpp
/// The verification gate: engine agreement across sim/SAT/the gate, the
/// pipeline's stage order (simulation, SAT, random simulation), the
/// single deadline and the cancel token, degenerate interfaces (zero POs,
/// constant POs, mismatched PI/PO preconditions), counterexample
/// round-trips, the spurious-SAT-counterexample no-throw contract, exact
/// simulation budget accounting, the verdict cache, and verification
/// wired through run_design_flow / FlowEngine / FlowService.  Runs under the
/// TSan CI job — concurrent checks share one verdict cache and one
/// counterexample pool.

#include <gtest/gtest.h>

#include <atomic>

#include "aig/cec.hpp"
#include "aig/simulation.hpp"
#include "circuits/registry.hpp"
#include "core/flow_engine.hpp"
#include "core/flow_service.hpp"
#include "opt/standalone.hpp"
#include "sat/cec_sat.hpp"
#include "test_helpers.hpp"
#include "verify/portfolio.hpp"

namespace {

using namespace bg::aig;  // NOLINT: test brevity
using bg::verify::Engine;
using bg::verify::PortfolioCec;
using bg::test::flip_first_po;
using bg::verify::PortfolioOptions;

/// Simulate one PI assignment on both designs; true iff some PO differs.
bool cex_distinguishes(const Aig& a, const Aig& b,
                       const std::vector<bool>& cex) {
    if (cex.size() != a.num_pis()) {
        return false;
    }
    SimVectors pats(a.num_pis());
    for (std::size_t i = 0; i < a.num_pis(); ++i) {
        pats[i].assign(1, cex[i] ? 1ULL : 0ULL);
    }
    const auto pa = po_signatures(a, simulate(a, pats));
    const auto pb = po_signatures(b, simulate(b, pats));
    for (std::size_t i = 0; i < pa.size(); ++i) {
        if ((pa[i][0] & 1ULL) != (pb[i][0] & 1ULL)) {
            return true;
        }
    }
    return false;
}

// ---------------------------------------------------------------------
// Engine-agreement matrix

TEST(PortfolioCecTest, EngineMatrixAgreesOnEquivalentPairs) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const Aig original = bg::test::redundant_aig(8, 28, 3, seed);
        Aig optimized = original;
        (void)bg::opt::standalone_pass(optimized, bg::opt::OpKind::Rewrite);

        // Exhaustive simulation (8 PIs) and SAT must both prove it.
        EXPECT_EQ(check_equivalence(original, optimized),
                  CecVerdict::Equivalent)
            << "sim, seed " << seed;
        EXPECT_EQ(bg::sat::check_equivalence_sat(original, optimized),
                  CecVerdict::Equivalent)
            << "sat, seed " << seed;

        PortfolioCec prover;
        const auto report = prover.check(original, optimized);
        EXPECT_EQ(report.verdict, CecVerdict::Equivalent) << "seed " << seed;
        EXPECT_NE(report.engine, Engine::None);
    }
}

TEST(PortfolioCecTest, EngineMatrixAgreesOnMutatedPairs) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const Aig g = bg::test::redundant_aig(8, 28, 3, seed).compact();
        const Aig bad = flip_first_po(g);

        EXPECT_EQ(check_equivalence(g, bad), CecVerdict::NotEquivalent)
            << "sim, seed " << seed;
        EXPECT_EQ(bg::sat::check_equivalence_sat(g, bad),
                  CecVerdict::NotEquivalent)
            << "sat, seed " << seed;

        PortfolioCec prover;
        const auto report = prover.check(g, bad);
        EXPECT_EQ(report.verdict, CecVerdict::NotEquivalent)
            << "seed " << seed;
    }
}

// ---------------------------------------------------------------------
// Stage order: simulation, SAT, random simulation

TEST(PortfolioCecTest, SmallPiPairProvenBySimulation) {
    // At or below the exhaustive bound the first stage is a proof: SAT
    // never runs.
    const Aig original = bg::test::redundant_aig(10, 30, 3, 4);
    ASSERT_LE(original.num_pis(), 14u);
    Aig optimized = original;
    (void)bg::opt::standalone_pass(optimized, bg::opt::OpKind::Rewrite);

    PortfolioCec prover;
    const auto report = prover.check(original, optimized);
    EXPECT_EQ(report.verdict, CecVerdict::Equivalent);
    EXPECT_EQ(report.engine, Engine::Simulation);
}

TEST(PortfolioCecTest, WidePiDesignProvenBySat) {
    // Past the exhaustive bound simulation can only refute, so the proof
    // must come from SAT.
    const Aig original = bg::circuits::make_benchmark_scaled("b07", 0.5);
    ASSERT_GT(original.num_pis(), 14u);
    Aig optimized = original;
    (void)bg::opt::standalone_pass(optimized, bg::opt::OpKind::Rewrite);
    (void)bg::opt::standalone_pass(optimized, bg::opt::OpKind::Resub);

    PortfolioCec prover;
    const auto report = prover.check(original, optimized);
    EXPECT_EQ(report.verdict, CecVerdict::Equivalent);
    EXPECT_EQ(report.engine, Engine::Sat)
        << "got " << bg::verify::to_string(report.engine);
}

TEST(PortfolioCecTest, StarvedSatFallsBackToRandomSimulation) {
    // A memory cap of one byte degrades SAT at solve entry; the random
    // simulation stage after it must still refute a wide flipped pair.
    const Aig g = bg::circuits::make_benchmark_scaled("b07", 0.5).compact();
    ASSERT_GT(g.num_pis(), 14u);
    const Aig bad = flip_first_po(g);

    PortfolioOptions opts;
    opts.sat.max_memory_bytes = 1;
    const auto sat_alone =
        bg::sat::check_equivalence_sat_full(g, bad, opts.sat);
    ASSERT_EQ(sat_alone.verdict, CecVerdict::ProbablyEquivalent);
    EXPECT_TRUE(sat_alone.stats.memory_limited);

    PortfolioCec prover(opts);
    const auto report = prover.check(g, bad);
    ASSERT_EQ(report.verdict, CecVerdict::NotEquivalent);
    EXPECT_EQ(report.engine, Engine::Simulation);
    EXPECT_TRUE(cex_distinguishes(g, bad, report.counterexample));
}

TEST(PortfolioCecTest, SpentDeadlineSkipsEveryStage) {
    // One deadline covers the whole check; once it has passed no stage
    // runs, and an undecided verdict is never cached.
    const Aig original = bg::circuits::make_benchmark_scaled("b07", 0.5);
    ASSERT_GT(original.num_pis(), 14u);
    Aig optimized = original;
    (void)bg::opt::standalone_pass(optimized, bg::opt::OpKind::Rewrite);

    PortfolioOptions opts;
    opts.timeout_seconds = 1e-9;
    PortfolioCec prover(opts);
    const auto report = prover.check(original, optimized);
    EXPECT_EQ(report.verdict, CecVerdict::ProbablyEquivalent);
    EXPECT_EQ(report.engine, Engine::None);
    EXPECT_EQ(prover.cache_size(), 0u);
}

TEST(PortfolioCecTest, StoppedTokenDegradesThenProverStillProves) {
    const Aig original = bg::circuits::make_benchmark_scaled("b07", 0.5);
    ASSERT_GT(original.num_pis(), 14u);
    Aig optimized = original;
    (void)bg::opt::standalone_pass(optimized, bg::opt::OpKind::Rewrite);

    PortfolioCec prover;
    bg::CancelToken token;
    token.request_cancel();
    const auto stopped = prover.check(original, optimized, &token);
    EXPECT_EQ(stopped.verdict, CecVerdict::ProbablyEquivalent);
    EXPECT_EQ(stopped.engine, Engine::None);
    EXPECT_EQ(prover.cache_size(), 0u);

    const auto proven = prover.check(original, optimized);
    EXPECT_EQ(proven.verdict, CecVerdict::Equivalent);
    EXPECT_FALSE(proven.from_cache);
    EXPECT_EQ(prover.cache_size(), 1u);
}

// ---------------------------------------------------------------------
// Degenerate interfaces

TEST(PortfolioCecTest, ZeroPoDesignsAreTriviallyEquivalent) {
    Aig a;
    a.add_pis(3);
    Aig b;
    b.add_pis(3);
    b.and_(make_lit(b.pi(0)), make_lit(b.pi(1)));  // internal node, never observed

    EXPECT_EQ(bg::sat::check_equivalence_sat(a, b), CecVerdict::Equivalent);
    PortfolioCec prover;
    EXPECT_EQ(prover.check(a, b).verdict, CecVerdict::Equivalent);
}

TEST(PortfolioCecTest, ConstantPos) {
    Aig a;
    {
        const Lit x = a.add_pi();
        a.add_po(a.and_(x, lit_not(x)));  // structurally const-false
        a.add_po(lit_true);
    }
    Aig b;
    {
        b.add_pi();
        b.add_po(lit_false);
        b.add_po(lit_true);
    }
    EXPECT_EQ(check_equivalence(a, b), CecVerdict::Equivalent);
    EXPECT_EQ(bg::sat::check_equivalence_sat(a, b), CecVerdict::Equivalent);
    PortfolioCec prover;
    EXPECT_EQ(prover.check(a, b).verdict, CecVerdict::Equivalent);

    Aig c;
    {
        c.add_pi();
        c.add_po(lit_true);  // differs on PO 0 everywhere
        c.add_po(lit_true);
    }
    const auto report = prover.check(a, c);
    EXPECT_EQ(report.verdict, CecVerdict::NotEquivalent);
}

TEST(PortfolioCecTest, InterfaceMismatchThrows) {
    Aig a;
    a.add_pi();
    a.add_po(make_lit(a.pi(0)));
    Aig b;
    b.add_pis(2);
    b.add_po(make_lit(b.pi(0)));
    PortfolioCec prover;
    EXPECT_THROW((void)prover.check(a, b), bg::ContractViolation);

    Aig c;  // same PIs, different PO count
    c.add_pi();
    EXPECT_THROW((void)prover.check(a, c), bg::ContractViolation);
}

// ---------------------------------------------------------------------
// Counterexamples

TEST(PortfolioCecTest, CounterexampleRoundTrips) {
    // Needle in 2^20: random simulation essentially never finds the
    // single differing minterm, so the witness must come from the SAT
    // model.
    const unsigned n = 20;
    Aig g;
    g.add_po(g.and_reduce(g.add_pis(n)));
    Aig h;
    h.add_pis(n);
    h.add_po(lit_false);

    PortfolioCec prover;
    const auto report = prover.check(g, h);
    ASSERT_EQ(report.verdict, CecVerdict::NotEquivalent);
    ASSERT_EQ(report.counterexample.size(), g.num_pis());
    EXPECT_TRUE(cex_distinguishes(g, h, report.counterexample))
        << "reported counterexample must actually distinguish the designs";
}

TEST(SatCecFull, CounterexampleIsSimulationValidated) {
    const Aig g = bg::test::redundant_aig(9, 24, 2, 5).compact();
    const Aig bad = flip_first_po(g);
    const auto res = bg::sat::check_equivalence_sat_full(g, bad);
    ASSERT_EQ(res.verdict, CecVerdict::NotEquivalent);
    EXPECT_TRUE(cex_distinguishes(g, bad, res.counterexample));
    EXPECT_GE(res.stats.cex_found, 1u);
    EXPECT_EQ(res.stats.spurious_cex, 0u);
}

TEST(SatCecFull, IncrementalSolvesEveryOutput) {
    const Aig original = bg::circuits::make_benchmark_scaled("b09", 0.5);
    Aig optimized = original;
    (void)bg::opt::standalone_pass(optimized, bg::opt::OpKind::Rewrite);
    const auto res =
        bg::sat::check_equivalence_sat_full(original, optimized);
    EXPECT_EQ(res.verdict, CecVerdict::Equivalent);
    EXPECT_EQ(res.stats.outputs_total, original.num_pos());
    EXPECT_EQ(res.stats.outputs_proven, original.num_pos());
}

TEST(SatCecFull, SpuriousCounterexamplePathNeverThrows) {
    // Satellite-1 regression: feed the verdict path counterexamples a
    // (hypothetically buggy) solver could emit.  It must classify, never
    // throw — for equivalent designs every pattern is non-differing, i.e.
    // guaranteed-spurious.
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
    for (const std::vector<bool>& cex :
         {std::vector<bool>{false, false}, std::vector<bool>{true, false},
          std::vector<bool>{false, true}, std::vector<bool>{true, true}}) {
        EXPECT_NO_THROW({
            EXPECT_EQ(bg::sat::resolve_sat_counterexample(g, h, cex),
                      CecVerdict::ProbablyEquivalent);
        });
    }
    // Malformed widths are a solver-bug symptom too: classified, no throw.
    EXPECT_NO_THROW({
        EXPECT_EQ(bg::sat::resolve_sat_counterexample(
                      g, h, std::vector<bool>{true}),
                  CecVerdict::ProbablyEquivalent);
    });
    EXPECT_NO_THROW((void)bg::sat::resolve_sat_counterexample(g, h, {}));

    // And a real counterexample still refutes through the same path.
    Aig k;
    {
        const Lit a = k.add_pi();
        const Lit b = k.add_pi();
        k.add_po(k.and_(a, b));
    }
    EXPECT_EQ(bg::sat::resolve_sat_counterexample(
                  g, k, std::vector<bool>{true, true}),
              CecVerdict::NotEquivalent);
}

// ---------------------------------------------------------------------
// Budgets, cancel, accounting

TEST(SimCec, RandomBudgetHonoredExactly) {
    // 7 words must simulate exactly 7 and a budget of 2 must not over-run
    // to 4; a budget of 0 — the portfolio's first simulation stage — must
    // simulate nothing.
    Aig g;
    g.add_po(g.and_reduce(g.add_pis(20)));
    const Aig h = g;
    CecOptions opts;
    opts.exhaustive_pi_limit = 0;  // force the random path
    for (const std::size_t budget :
         {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{7},
          std::size_t{64}}) {
        opts.random_words = budget;
        const auto res = check_equivalence_full(g, h, opts);
        EXPECT_EQ(res.verdict, CecVerdict::ProbablyEquivalent);
        EXPECT_EQ(res.words_simulated, budget) << "budget " << budget;
    }
}

TEST(SimCec, PreSetCancelDegradesWithoutSimulating) {
    Aig g;
    g.add_po(g.and_reduce(g.add_pis(20)));
    const Aig bad = flip_first_po(g);
    bg::CancelToken cancel;
    cancel.request_cancel();
    CecOptions opts;
    opts.exhaustive_pi_limit = 0;
    opts.cancel = &cancel;
    const auto res = check_equivalence_full(g, bad, opts);
    EXPECT_EQ(res.verdict, CecVerdict::ProbablyEquivalent);
    EXPECT_EQ(res.words_simulated, 0u);
}

TEST(SatCecTest, PreSetCancelDegrades) {
    // The token's flag and its deadline both stop the solver.
    const Aig a = bg::circuits::make_benchmark_scaled("b09", 0.4);
    Aig b = a;
    (void)bg::opt::standalone_pass(b, bg::opt::OpKind::Rewrite);
    bg::CancelToken cancelled;
    cancelled.request_cancel();
    bg::CancelToken expired;
    expired.set_deadline_after(1e-9);
    while (!expired.deadline_expired()) {
    }
    for (const bg::CancelToken* token : {&cancelled, &expired}) {
        bg::sat::SatCecOptions opts;
        opts.cancel = token;
        EXPECT_EQ(bg::sat::check_equivalence_sat(a, b, opts),
                  CecVerdict::ProbablyEquivalent);
    }
}

TEST(PortfolioCecTest, AllEnginesExhaustedDegradesHonestly) {
    // Starve every stage: tiny budgets on a pair no stage can decide
    // that cheaply.  The pipeline must degrade, not guess.
    const Aig a = bg::circuits::make_benchmark_scaled("b11", 0.5);
    Aig b = a;
    (void)bg::opt::standalone_pass(b, bg::opt::OpKind::Rewrite);
    PortfolioOptions opts;
    opts.sim.random_words = 1;
    opts.sim.exhaustive_pi_limit = 0;
    opts.sat.conflict_budget = 0;
    const auto report = PortfolioCec(opts).check(a, b);
    EXPECT_EQ(report.verdict, CecVerdict::ProbablyEquivalent);
    EXPECT_EQ(report.engine, Engine::None);
}

// ---------------------------------------------------------------------
// Structural fingerprint + verdict cache

TEST(StructuralFingerprint, StableAcrossCopiesSensitiveToStructure) {
    const Aig g = bg::test::redundant_aig(8, 25, 2, 3).compact();
    const Aig copy = g;
    EXPECT_EQ(structural_fingerprint(g), structural_fingerprint(copy));
    // Note: compact() may renumber nodes, and the fingerprint is
    // deliberately order-sensitive — the verdict cache only relies on
    // determinism for identically-constructed graphs.

    const Aig flipped = flip_first_po(g);
    EXPECT_NE(structural_fingerprint(g), structural_fingerprint(flipped));

    Aig rewritten = g;
    (void)bg::opt::standalone_pass(rewritten, bg::opt::OpKind::Rewrite);
    EXPECT_NE(structural_fingerprint(g),
              structural_fingerprint(rewritten.compact()));
}

TEST(PortfolioCecTest, VerdictCacheServesRepeats) {
    const Aig original = bg::circuits::make_benchmark_scaled("b08", 0.5);
    Aig optimized = original;
    (void)bg::opt::standalone_pass(optimized, bg::opt::OpKind::Rewrite);

    PortfolioCec prover;
    const auto first = prover.check(original, optimized);
    EXPECT_EQ(first.verdict, CecVerdict::Equivalent);
    EXPECT_FALSE(first.from_cache);
    EXPECT_EQ(prover.cache_size(), 1u);

    const auto second = prover.check(original, optimized);
    EXPECT_EQ(second.verdict, CecVerdict::Equivalent);
    EXPECT_TRUE(second.from_cache);
    EXPECT_EQ(second.engine, Engine::Cache);

    // Swapped operands hit the same entry (equivalence is symmetric).
    const auto swapped = prover.check(optimized, original);
    EXPECT_TRUE(swapped.from_cache);
    EXPECT_EQ(prover.cache_hits(), 2u);
    EXPECT_EQ(prover.cache_lookups(), 3u);
}

TEST(PortfolioCecTest, CacheDisabledNeverServesRepeats) {
    const Aig g = bg::test::redundant_aig(8, 20, 2, 9);
    PortfolioOptions opts;
    opts.cache_capacity = 0;
    PortfolioCec prover(opts);
    (void)prover.check(g, g);
    const auto again = prover.check(g, g);
    EXPECT_FALSE(again.from_cache);
    EXPECT_EQ(prover.cache_lookups(), 0u);
}

TEST(PortfolioCecTest, RefutedCacheKeepsCounterexample) {
    const Aig g = bg::test::redundant_aig(8, 22, 2, 11).compact();
    const Aig bad = flip_first_po(g);
    PortfolioCec prover;
    const auto first = prover.check(g, bad);
    ASSERT_EQ(first.verdict, CecVerdict::NotEquivalent);
    const auto second = prover.check(g, bad);
    ASSERT_TRUE(second.from_cache);
    EXPECT_EQ(second.verdict, CecVerdict::NotEquivalent);
    EXPECT_EQ(second.counterexample, first.counterexample);
}

// ---------------------------------------------------------------------
// Counterexample-guided simulation (cross-job cex pool)

TEST(SimCec, SeedPatternsFlipVerdictBeforeRandomBudget) {
    // 20-PI needle: only the all-ones assignment distinguishes the pair,
    // which a small random budget essentially never finds.  Seeding that
    // assignment must flip the verdict before any random word is spent;
    // wrong-width seeds must be skipped, not simulated.
    Aig g;
    g.add_po(g.and_reduce(g.add_pis(20)));
    Aig h;
    h.add_pis(20);
    h.add_po(lit_false);

    CecOptions opts;
    opts.exhaustive_pi_limit = 0;  // force the sampling path
    opts.random_words = 2;
    const auto blind = check_equivalence_full(g, h, opts);
    EXPECT_EQ(blind.verdict, CecVerdict::ProbablyEquivalent);
    EXPECT_EQ(blind.words_simulated, 2u);

    const std::vector<std::vector<bool>> seeds = {
        std::vector<bool>(19, true),   // wrong width: skipped
        std::vector<bool>(20, false),  // agreeing assignment
        std::vector<bool>(20, true),   // the needle
    };
    opts.seed_patterns = &seeds;
    const auto seeded = check_equivalence_full(g, h, opts);
    ASSERT_EQ(seeded.verdict, CecVerdict::NotEquivalent);
    EXPECT_EQ(seeded.counterexample, std::vector<bool>(20, true));
    // One packed seed word refuted the pair; the random budget was never
    // touched.
    EXPECT_EQ(seeded.words_simulated, 1u);
}

TEST(SimCec, SeedPatternsLeaveExhaustivePathAlone) {
    // Below the exhaustive bound the check is already exact; seeds must
    // not perturb it (or its zero word accounting).
    Aig g;
    g.add_po(g.and_reduce(g.add_pis(4)));
    Aig h;
    h.add_pis(4);
    h.add_po(lit_false);
    const std::vector<std::vector<bool>> seeds = {
        std::vector<bool>(4, false)};
    CecOptions opts;
    opts.seed_patterns = &seeds;
    const auto res = check_equivalence_full(g, h, opts);
    EXPECT_EQ(res.verdict, CecVerdict::NotEquivalent);
    EXPECT_EQ(res.counterexample, std::vector<bool>(4, true));
    EXPECT_EQ(res.words_simulated, 0u);
}

TEST(PortfolioCecTest, PooledCounterexampleFlipsLaterSimVerdict) {
    // Job 1: a 20-PI needle pair whose refutation needs SAT (simulation
    // is starved to one random word) — the witness lands in the cross-job
    // pool.  Job 2: a structurally different pair computing the same
    // functions, so its fingerprints miss the verdict cache; the
    // pipeline's first stage simulates the pooled seed and refutes
    // immediately — cached cex flips the later sim verdict from Unknown
    // to NotEquivalent.
    Aig g1;
    g1.add_po(g1.and_reduce(g1.add_pis(20)));
    Aig h1;
    h1.add_pis(20);
    h1.add_po(lit_false);

    PortfolioOptions opts;
    opts.sim.exhaustive_pi_limit = 0;
    opts.sim.random_words = 1;
    PortfolioCec prover(opts);

    const auto first = prover.check(g1, h1);
    ASSERT_EQ(first.verdict, CecVerdict::NotEquivalent);
    EXPECT_NE(first.engine, Engine::Simulation)
        << "starved simulation must not find the needle on its own";
    const auto pooled = prover.seed_patterns(20);
    ASSERT_EQ(pooled.size(), 1u);
    EXPECT_EQ(pooled[0], std::vector<bool>(20, true));

    // Same functions, different structure: the AND chain folds over the
    // reversed PI list, so every internal node (and both fingerprints as
    // a pair) differs from job 1.
    Aig g2;
    {
        const auto pis = g2.add_pis(20);
        Lit acc = pis[19];
        for (int i = 18; i >= 0; --i) {
            acc = g2.and_(acc, pis[static_cast<std::size_t>(i)]);
        }
        g2.add_po(acc);
    }
    Aig h2;
    h2.add_pis(20);
    h2.add_po(lit_false);
    ASSERT_NE(structural_fingerprint(g2), structural_fingerprint(g1));

    const auto second = prover.check(g2, h2);
    EXPECT_FALSE(second.from_cache);
    ASSERT_EQ(second.verdict, CecVerdict::NotEquivalent);
    EXPECT_EQ(second.engine, Engine::Simulation)
        << "the pooled seed must refute before SAT even runs";
    EXPECT_TRUE(cex_distinguishes(g2, h2, second.counterexample));

    // The recurring witness deduplicates instead of growing the pool.
    EXPECT_EQ(prover.seed_patterns(20).size(), 1u);

    // Cache-served refutations keep feeding the pool path (no growth
    // here either — same witness again).
    const auto replay = prover.check(g1, h1);
    EXPECT_TRUE(replay.from_cache);
    EXPECT_EQ(prover.seed_patterns(20).size(), 1u);
}

TEST(PortfolioCecTest, CexPoolCapacityZeroDisablesPooling) {
    Aig g;
    g.add_po(g.and_reduce(g.add_pis(20)));
    Aig h;
    h.add_pis(20);
    h.add_po(lit_false);
    PortfolioOptions opts;
    opts.cex_pool_capacity = 0;
    PortfolioCec prover(opts);
    const auto report = prover.check(g, h);
    ASSERT_EQ(report.verdict, CecVerdict::NotEquivalent);
    EXPECT_TRUE(prover.seed_patterns(20).empty());
}

TEST(PortfolioCecTest, CexPoolEvictsFifoAtCapacity) {
    // Distinct witnesses from distinct refuted pairs; a capacity of 2
    // keeps only the most recent two (oldest evicted first).
    PortfolioOptions opts;
    opts.cex_pool_capacity = 2;
    opts.cache_capacity = 0;  // every check runs the engines
    PortfolioCec prover(opts);

    // Pair k differs from const-false exactly on the assignment where
    // PIs k..19 are true and 0..k-1 false: each witness is unique.
    for (const std::size_t k : {0UL, 1UL, 2UL}) {
        Aig g;
        {
            const auto pis = g.add_pis(20);
            Lit acc = lit_true;
            for (std::size_t i = k; i < 20; ++i) {
                acc = g.and_(acc, pis[i]);
            }
            for (std::size_t i = 0; i < k; ++i) {
                acc = g.and_(acc, lit_not(pis[i]));
            }
            g.add_po(acc);
        }
        Aig h;
        h.add_pis(20);
        h.add_po(lit_false);
        ASSERT_EQ(prover.check(g, h).verdict, CecVerdict::NotEquivalent);
    }
    const auto pooled = prover.seed_patterns(20);
    ASSERT_EQ(pooled.size(), 2u);
    // The k=0 witness (all ones) was evicted; k=1 and k=2 remain, oldest
    // first.
    EXPECT_NE(pooled[0], std::vector<bool>(20, true));
    for (const auto& w : pooled) {
        EXPECT_EQ(w.size(), 20u);
    }
}

// ---------------------------------------------------------------------
// Concurrent checks on one prover (TSan coverage)

TEST(PortfolioCecTest, CheckFromInsidePoolJobDoesNotDeadlock) {
    // The serving pattern: many pool jobs verify through one shared
    // prover at once, racing on its verdict cache and counterexample
    // pool.  Saturate a 2-thread pool with jobs that each verify.
    bg::ThreadPool pool(2);
    PortfolioCec prover;
    const Aig g = bg::test::redundant_aig(8, 24, 2, 7).compact();
    const Aig bad = flip_first_po(g);
    std::vector<std::future<void>> jobs;
    std::atomic<int> definitive{0};
    for (int j = 0; j < 6; ++j) {
        jobs.push_back(pool.submit([&] {
            const auto r = prover.check(g, bad);
            if (r.verdict == CecVerdict::NotEquivalent) {
                definitive.fetch_add(1);
            }
        }));
    }
    for (auto& f : jobs) {
        f.get();
    }
    EXPECT_EQ(definitive.load(), 6);
}

// ---------------------------------------------------------------------
// End-to-end: flow / engine / service

bg::core::ModelConfig tiny_model_config() {
    bg::core::ModelConfig cfg;
    cfg.sage_dims = {12, 12, 8};
    cfg.mlp_dims = {16, 8, 1};
    cfg.dropout = 0.0F;
    cfg.seed = 21;
    return cfg;
}

bg::core::FlowConfig tiny_verified_flow() {
    bg::core::FlowConfig fc;
    fc.num_samples = 16;
    fc.top_k = 3;
    fc.seed = 11;
    fc.verify = true;
    return fc;
}

TEST(FlowVerify, RunFlowReportsVerdictOnRegistryDesigns) {
    const bg::core::BoolGebraModel model(tiny_model_config());
    const auto cfg = tiny_verified_flow();
    for (const char* name : {"b07", "b08", "b09"}) {
        const bg::core::DesignJob job{
            name, bg::circuits::make_benchmark_scaled(name, 0.5)};
        const auto res = bg::core::run_design_flow(job, model, cfg, 1,
                                                   nullptr);
        ASSERT_TRUE(res.verification.has_value()) << name;
        EXPECT_EQ(res.verification->verdict, CecVerdict::Equivalent)
            << name << ": every committed result must be proven";
        EXPECT_FALSE(res.verification->from_cache) << name;
    }
}

TEST(FlowVerify, VerifyOffLeavesReportEmpty) {
    const bg::core::BoolGebraModel model(tiny_model_config());
    auto cfg = tiny_verified_flow();
    cfg.verify = false;
    const bg::core::DesignJob job{
        "b09", bg::circuits::make_benchmark_scaled("b09", 0.4)};
    const auto res = bg::core::run_design_flow(job, model, cfg, 1, nullptr);
    EXPECT_FALSE(res.verification.has_value());
}

TEST(FlowVerify, IteratedRoundsProveEndToEnd) {
    const bg::core::BoolGebraModel model(tiny_model_config());
    const bg::core::DesignJob job{
        "b08", bg::circuits::make_benchmark_scaled("b08", 0.5)};
    const auto res = bg::core::run_design_flow(job, model,
                                               tiny_verified_flow(),
                                               /*rounds=*/2, nullptr);
    ASSERT_TRUE(res.verification.has_value());
    EXPECT_EQ(res.verification->verdict, CecVerdict::Equivalent);
}

TEST(FlowVerify, OneProofPerJob) {
    // Whatever the round count, a verified job asks the prover once: the
    // final graph against the input design, after the last round.
    const bg::core::BoolGebraModel model(tiny_model_config());
    const bg::core::DesignJob job{
        "b08", bg::circuits::make_benchmark_scaled("b08", 0.5)};
    for (const std::size_t rounds : {1UL, 3UL}) {
        SCOPED_TRACE("rounds=" + std::to_string(rounds));
        PortfolioCec prover;
        const auto res = bg::core::run_design_flow(
            job, model, tiny_verified_flow(), rounds, nullptr, &prover);
        ASSERT_TRUE(res.verification.has_value());
        EXPECT_EQ(res.verification->verdict, CecVerdict::Equivalent);
        EXPECT_EQ(prover.cache_lookups(), 1u);

        auto off = tiny_verified_flow();
        off.verify = false;
        PortfolioCec unused;
        const auto unverified =
            bg::core::run_design_flow(job, model, off, rounds, nullptr,
                                      &unused);
        EXPECT_FALSE(unverified.verification.has_value());
        EXPECT_EQ(unused.cache_lookups(), 0u);
    }
}

TEST(FlowVerify, SingleRoundProofFollowsProgress) {
    // A single round reports progress before its proof, like every
    // round count: a token stopped from on_progress(1, ...) reaches the
    // proof, which decides nothing, and the job raises CancelledError.
    const bg::core::BoolGebraModel model(tiny_model_config());
    const bg::core::DesignJob job{
        "b07", bg::circuits::make_benchmark_scaled("b07", 0.4)};
    bg::CancelToken token;
    bg::core::JobControl control;
    control.cancel = &token;
    std::size_t progress_calls = 0;
    control.on_progress = [&](std::size_t round, std::size_t /*ands*/) {
        ++progress_calls;
        EXPECT_EQ(round, 1u);
        token.request_cancel();
    };
    PortfolioCec prover;
    try {
        (void)bg::core::run_design_flow(job, model, tiny_verified_flow(), 1,
                                        nullptr, &prover, &control);
        FAIL() << "a proof stopped by the token must raise CancelledError";
    } catch (const bg::CancelledError& e) {
        EXPECT_EQ(e.reason(), bg::CancelReason::Cancelled);
    }
    EXPECT_EQ(progress_calls, 1u);
    EXPECT_EQ(prover.cache_size(), 0u);
}

TEST(FlowVerify, TokenStoppedDuringProofRaisesCancelled) {
    // A job stopped while its end-to-end proof runs is a cancelled job,
    // not an undecided verdict.  The token is stopped from on_progress
    // after the last productive round, so the proof is the first stage to
    // see it.
    const bg::core::BoolGebraModel model(tiny_model_config());
    const bg::core::DesignJob job{
        "b07", bg::circuits::make_benchmark_scaled("b07", 0.4)};
    const auto cfg = tiny_verified_flow();
    constexpr std::size_t kRounds = 2;

    const auto uncancelled =
        bg::core::run_design_flow(job, model, cfg, kRounds, nullptr);
    ASSERT_EQ(uncancelled.iterated.per_round_reduction.size(), kRounds)
        << "both rounds must be productive for on_progress to fire last";
    ASSERT_TRUE(uncancelled.verification.has_value());
    EXPECT_EQ(uncancelled.verification->verdict, CecVerdict::Equivalent);

    bg::CancelToken token;
    bg::core::JobControl control;
    control.cancel = &token;
    control.on_progress = [&](std::size_t round, std::size_t /*ands*/) {
        if (round == kRounds) {
            token.request_cancel();
        }
    };
    PortfolioCec prover;
    try {
        (void)bg::core::run_design_flow(job, model, cfg, kRounds, nullptr,
                                        &prover, &control);
        FAIL() << "a proof stopped by the token must raise CancelledError";
    } catch (const bg::CancelledError& e) {
        EXPECT_EQ(e.reason(), bg::CancelReason::Cancelled);
    }
    EXPECT_EQ(prover.cache_size(), 0u);
}

TEST(FlowVerify, CorruptedResultIsRefutedWithValidCounterexample) {
    // The acceptance gate: a deliberately corrupted "optimized" netlist
    // must be refuted, and the counterexample must survive simulation.
    const Aig design = bg::circuits::make_benchmark_scaled("b09", 0.5);
    const Aig corrupted = flip_first_po(design);
    PortfolioCec prover;
    const auto report = prover.check(design, corrupted);
    ASSERT_EQ(report.verdict, CecVerdict::NotEquivalent);
    if (!report.counterexample.empty()) {
        EXPECT_TRUE(cex_distinguishes(design, corrupted,
                                      report.counterexample));
    }
}

TEST(FlowVerify, ServiceCountsVerdictsInStats) {
    auto model =
        std::make_shared<bg::core::BoolGebraModel>(tiny_model_config());
    bg::core::ServiceConfig scfg;
    scfg.workers = 2;
    scfg.flow = tiny_verified_flow();
    bg::core::FlowService service(scfg, model);
    ASSERT_NE(service.prover(), nullptr);

    std::vector<std::future<bg::core::DesignFlowResult>> futures;
    for (const char* name : {"b08", "b09", "b10"}) {
        futures.push_back(service.submit(
            {name, bg::circuits::make_benchmark_scaled(name, 0.4)}));
    }
    for (auto& f : futures) {
        const auto res = f.get();
        ASSERT_TRUE(res.verification.has_value());
        EXPECT_EQ(res.verification->verdict, CecVerdict::Equivalent);
    }
    service.stop();
    const auto st = service.stats();
    EXPECT_EQ(st.jobs_verified, 3u);
    EXPECT_EQ(st.jobs_refuted, 0u);
    EXPECT_EQ(st.jobs_unknown, 0u);
    EXPECT_EQ(st.jobs_unverified, 0u);
    EXPECT_EQ(st.verify_cache_lookups, 3u);
}

TEST(FlowVerify, ServiceWithVerifyOffLeavesJobsUnverified) {
    auto model =
        std::make_shared<bg::core::BoolGebraModel>(tiny_model_config());
    bg::core::ServiceConfig scfg;
    scfg.workers = 1;
    scfg.flow = tiny_verified_flow();
    scfg.flow.verify = false;
    bg::core::FlowService service(scfg, model);
    auto f = service.submit(
        {"b09", bg::circuits::make_benchmark_scaled("b09", 0.3)});
    EXPECT_FALSE(f.get().verification.has_value());
    service.stop();
    const auto st = service.stats();
    EXPECT_EQ(st.jobs_unverified, 1u);
    EXPECT_EQ(st.verify_cache_lookups, 0u);
}

TEST(FlowVerify, PerJobVerifyUsesTheServiceProver) {
    // A job may turn verification on by itself (the network front end
    // sets it from the wire) on a service whose default leaves it off.
    // Such jobs still share the service's prover: the second of two
    // identical jobs is served from its verdict cache.
    auto model =
        std::make_shared<bg::core::BoolGebraModel>(tiny_model_config());
    bg::core::ServiceConfig scfg;
    scfg.workers = 1;
    scfg.flow = tiny_verified_flow();
    scfg.flow.verify = false;
    bg::core::FlowService service(scfg, model);
    const Aig design = bg::circuits::make_benchmark_scaled("b09", 0.3);
    for (int j = 0; j < 2; ++j) {
        bg::core::SubmitOptions opts;
        opts.flow = tiny_verified_flow();
        const auto res = service.submit({"b09", design}, opts).get();
        ASSERT_TRUE(res.verification.has_value());
        EXPECT_EQ(res.verification->verdict, CecVerdict::Equivalent);
        EXPECT_EQ(res.verification->from_cache, j == 1);
    }
    service.stop();
    const auto st = service.stats();
    EXPECT_EQ(st.jobs_verified, 2u);
    EXPECT_EQ(st.verify_cache_lookups, 2u);
    EXPECT_EQ(st.verify_cache_hits, 1u);
}

TEST(FlowVerify, EngineBatchTalliesVerification) {
    const bg::core::BoolGebraModel model(tiny_model_config());
    bg::core::EngineConfig ecfg;
    ecfg.workers = 2;
    ecfg.flow = tiny_verified_flow();
    bg::core::FlowEngine engine(ecfg);
    std::vector<bg::core::DesignJob> jobs;
    for (const char* name : {"b08", "b09"}) {
        jobs.push_back(
            {name, bg::circuits::make_benchmark_scaled(name, 0.4)});
    }
    const auto batch = engine.run(jobs, model);
    EXPECT_EQ(batch.jobs_verified, 2u);
    EXPECT_EQ(batch.jobs_refuted, 0u);
    EXPECT_EQ(batch.jobs_unknown, 0u);
}

TEST(EngineToString, CoversAllEngines) {
    EXPECT_EQ(bg::verify::to_string(Engine::None), "none");
    EXPECT_EQ(bg::verify::to_string(Engine::Simulation), "sim");
    EXPECT_EQ(bg::verify::to_string(Engine::Sat), "sat");
    EXPECT_EQ(bg::verify::to_string(Engine::Cache), "cache");
}

}  // namespace
