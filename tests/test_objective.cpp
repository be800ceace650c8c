#include <gtest/gtest.h>

#include <algorithm>

#include "aig/cec.hpp"
#include "circuits/registry.hpp"
#include "core/flow.hpp"
#include "core/flow_service.hpp"
#include "opt/balance.hpp"
#include "opt/lut_map.hpp"
#include "opt/objective.hpp"
#include "opt/standalone.hpp"
#include "test_helpers.hpp"

namespace {

using namespace bg::aig;  // NOLINT: test brevity
using bg::core::FlowConfig;
using bg::core::run_flow;
using bg::opt::CostVector;
using bg::opt::DepthObjective;
using bg::opt::Gain;
using bg::opt::make_objective;
using bg::opt::MappedLutObjective;
using bg::opt::ObjectiveKind;
using bg::opt::OpKind;
using bg::opt::SizeObjective;
using bg::opt::WeightedObjective;

TEST(ObjectiveFactory, ParsesEverySpec) {
    EXPECT_EQ(make_objective("size")->kind(), ObjectiveKind::Size);
    EXPECT_EQ(make_objective("depth")->kind(), ObjectiveKind::Depth);
    EXPECT_EQ(make_objective("luts")->kind(), ObjectiveKind::MappedLuts);
    EXPECT_EQ(make_objective("weighted:1,0.5")->kind(),
              ObjectiveKind::Weighted);
    // Names round-trip through the factory.
    for (const char* spec : {"size", "depth", "luts", "weighted:1,0.5"}) {
        EXPECT_EQ(make_objective(make_objective(spec)->name())->name(),
                  make_objective(spec)->name());
    }
    const auto luts4 = make_objective("luts:4");
    EXPECT_EQ(dynamic_cast<const MappedLutObjective&>(*luts4)
                  .lut_params()
                  .k,
              4u);
}

TEST(ObjectiveFactory, RejectsBadSpecs) {
    EXPECT_THROW((void)make_objective("area"), std::invalid_argument);
    EXPECT_THROW((void)make_objective(""), std::invalid_argument);
    EXPECT_THROW((void)make_objective("weighted:1"), std::invalid_argument);
    EXPECT_THROW((void)make_objective("weighted:a,b"),
                 std::invalid_argument);
    EXPECT_THROW((void)make_objective("weighted:-1,2"),
                 std::invalid_argument);
    EXPECT_THROW((void)make_objective("weighted:0,0"),
                 std::invalid_argument);
    EXPECT_THROW((void)make_objective("weighted:,2"),
                 std::invalid_argument);
    EXPECT_THROW((void)make_objective("luts:1"), std::invalid_argument);
    EXPECT_THROW((void)make_objective("luts:99"), std::invalid_argument);
    // map_to_luts itself only supports K in [2, 8]: the parser must
    // reject the rest up front, not let the first flow blow up later.
    EXPECT_THROW((void)make_objective("luts:9"), std::invalid_argument);
    EXPECT_THROW((void)make_objective("luts:10"), std::invalid_argument);
    EXPECT_THROW((void)make_objective("luts:"), std::invalid_argument);
    EXPECT_THROW((void)make_objective("luts:4.5"), std::invalid_argument);
}

TEST(Objective, MeasureReportsSizeDepthAndScalar) {
    // Chain of 4 ANDs: size 4, depth 4 (a&b&c&d&e built left-deep).
    Aig g;
    Lit acc = g.add_pi();
    for (int i = 0; i < 4; ++i) {
        acc = g.and_(acc, g.add_pi());
    }
    g.add_po(acc);

    const auto size_cost = SizeObjective{}.measure(g);
    EXPECT_EQ(size_cost.size, 4u);
    EXPECT_EQ(size_cost.depth, 4u);
    EXPECT_DOUBLE_EQ(size_cost.value, 4.0);

    const auto depth_cost = DepthObjective{}.measure(g);
    EXPECT_DOUBLE_EQ(depth_cost.value, 4.0);

    const auto wcost = WeightedObjective{2.0, 0.5}.measure(g);
    EXPECT_DOUBLE_EQ(wcost.value, 2.0 * 4 + 0.5 * 4);

    const auto lcost = MappedLutObjective{}.measure(g);
    EXPECT_EQ(lcost.size, 4u);
    EXPECT_DOUBLE_EQ(
        lcost.value,
        static_cast<double>(bg::opt::map_to_luts(g).num_luts()));

    // measure() is const-safe on shared graphs.
    const Aig& shared = g;
    EXPECT_EQ(SizeObjective{}.measure(shared).depth, 4u);
}

TEST(Objective, Comparators) {
    const CostVector small{10.0, 10, 7};
    const CostVector big{20.0, 20, 5};
    const SizeObjective size;
    EXPECT_TRUE(size.better(small, big));
    EXPECT_FALSE(size.better(big, small));
    EXPECT_FALSE(size.better(small, small));  // strict

    const DepthObjective depth;
    EXPECT_TRUE(depth.better(big, small)) << "depth 5 beats depth 7";
    EXPECT_FALSE(depth.better(small, big));
    // Size is the tiebreak at equal depth.
    EXPECT_TRUE(depth.better(CostVector{5.0, 8, 5}, big));
    EXPECT_FALSE(depth.better(big, big));

    const WeightedObjective weighted{1.0, 10.0};
    // 10 + 70 = 80 vs 20 + 50 = 70: the shallower graph wins.
    EXPECT_TRUE(weighted.better(
        CostVector{weighted.scalar(20, 5), 20, 5},
        CostVector{weighted.scalar(10, 7), 10, 7}));
}

TEST(Objective, LocalGainAndAccepts) {
    const Gain smaller_deeper{3, -2};
    const Gain neutral_shallower{0, 1};
    const SizeObjective size;
    EXPECT_DOUBLE_EQ(size.local_gain(smaller_deeper), 3.0);
    EXPECT_TRUE(size.accepts(smaller_deeper));
    EXPECT_TRUE(size.accepts(neutral_shallower));

    const DepthObjective depth;
    EXPECT_DOUBLE_EQ(depth.local_gain(smaller_deeper), -2.0);
    EXPECT_FALSE(depth.accepts(smaller_deeper))
        << "depth objective must veto size wins that deepen the graph";
    EXPECT_TRUE(depth.accepts(neutral_shallower));

    const WeightedObjective weighted{1.0, 2.0};
    EXPECT_DOUBLE_EQ(weighted.local_gain(smaller_deeper), 3.0 - 4.0);
    EXPECT_FALSE(weighted.accepts(smaller_deeper));
}

TEST(Objective, DepthGatedPassNeverDeepens) {
    for (const std::uint64_t seed : {3ULL, 7ULL, 19ULL}) {
        Aig g = bg::test::redundant_aig(8, 40, 4, seed);
        const Aig original = g;
        const std::uint32_t depth_before = g.depth();
        const auto res = bg::opt::standalone_pass(
            g, OpKind::Rewrite, {}, DepthObjective{});
        g.check_integrity();
        EXPECT_EQ(res.original_depth, depth_before);
        EXPECT_EQ(res.final_depth, g.depth());
        EXPECT_LE(res.final_depth, res.original_depth)
            << "seed " << seed
            << ": depth-gated rewrites must not deepen the graph";
        EXPECT_EQ(check_equivalence(original, g), CecVerdict::Equivalent);
    }
}

// -- depth tracking (OrchestrationResult::depth_reduction) -----------------

TEST(DepthTracking, BalanceThenRewriteSequence) {
    // A left-deep 8-input AND chain: depth 7.  balance() rebuilds it as a
    // tree of depth 3; a rewrite orchestration of the balanced graph must
    // report its own depth delta against the balanced entry state.
    Aig g;
    Lit acc = g.add_pi();
    for (int i = 0; i < 7; ++i) {
        acc = g.and_(acc, g.add_pi());
    }
    g.add_po(acc);
    ASSERT_EQ(g.depth(), 7u);

    const int balance_delta = bg::opt::balance_in_place(g);
    EXPECT_EQ(balance_delta, 7 - 3);
    ASSERT_EQ(g.depth(), 3u);

    const auto res = bg::opt::standalone_pass(g, OpKind::Rewrite);
    EXPECT_EQ(res.original_depth, 3u);
    EXPECT_EQ(res.final_depth, g.depth());
    EXPECT_EQ(res.depth_reduction(),
              3 - static_cast<int>(res.final_depth));
}

TEST(DepthTracking, MuxCollapseDropsMeasuredDepth) {
    // f = c a + !c a == a: rewriting the root leaves a bare PI, so the
    // orchestration must report original depth 2 and final depth 0.
    Aig g;
    const Lit c = g.add_pi();
    const Lit a = g.add_pi();
    const Lit f = g.or_(g.and_(c, a), g.and_(lit_not(c), a));
    g.add_po(f);
    ASSERT_EQ(g.depth(), 2u);

    auto d = bg::opt::uniform_decisions(g, OpKind::Rewrite);
    const auto res = bg::opt::orchestrate(g, d);
    EXPECT_EQ(res.original_size, 3u);
    EXPECT_EQ(res.final_size, 0u);
    EXPECT_EQ(res.original_depth, 2u);
    EXPECT_EQ(res.final_depth, 0u);
    EXPECT_EQ(res.depth_reduction(), 2);
    EXPECT_EQ(res.reduction(), 3);
}

TEST(DepthTracking, SampleRecordCarriesDepth) {
    const Aig g = bg::circuits::make_benchmark_scaled("b10", 0.3);
    const auto records = bg::core::generate_guided_samples(g, 4, 11);
    Aig probe = g;
    const std::uint32_t depth_before = probe.depth();
    for (const auto& rec : records) {
        EXPECT_EQ(rec.depth_reduction,
                  static_cast<int>(depth_before) -
                      static_cast<int>(rec.final_depth));
    }
}

// -- end-to-end flows under non-size objectives ----------------------------

bg::core::BoolGebraModel quick_model() {
    bg::core::ModelConfig cfg = bg::core::ModelConfig::quick();
    cfg.sage_dims = {12, 12, 8};
    cfg.mlp_dims = {16, 8, 1};
    cfg.seed = 31;
    return bg::core::BoolGebraModel(cfg);
}

FlowConfig quick_flow_config() {
    FlowConfig fc;
    fc.num_samples = 24;
    fc.top_k = 6;
    fc.seed = 5;
    return fc;
}

TEST(ObjectiveFlow, DepthFlowRunsOnRegistryDesigns) {
    const auto model = quick_model();
    for (const char* name : {"b07", "b10", "b08"}) {
        const Aig g = bg::circuits::make_benchmark_scaled(name, 0.3);
        FlowConfig fc = quick_flow_config();
        fc.objective = make_objective("depth");
        const auto res = run_flow(g, model, fc);
        EXPECT_EQ(res.objective, "depth") << name;
        ASSERT_EQ(res.costs.size(), res.selected.size()) << name;
        EXPECT_EQ(res.original_depth, res.original_cost.depth) << name;
        EXPECT_GT(res.original_depth, 0u) << name;
        EXPECT_GT(res.bg_best_depth_ratio, 0.0) << name;
        EXPECT_LE(res.bg_best_depth_ratio, 1.0) << name;
        EXPECT_GE(res.bg_mean_depth_ratio, res.bg_best_depth_ratio -
                                               1e-12)
            << name;

        const DepthObjective depth;
        // The committed best must be comparator-minimal over the
        // evaluated set (first strictly-better wins).
        for (const auto& cost : res.costs) {
            EXPECT_FALSE(depth.better(cost, res.best_cost)) << name;
        }
        // The acceptance property: whenever the size-only ranking prefers
        // some candidate (strictly more AND reduction) but the depth
        // comparator disagrees, the depth flow must not have selected the
        // size favourite.
        std::size_t size_best = 0;
        for (std::size_t i = 1; i < res.reductions.size(); ++i) {
            if (res.reductions[i] > res.reductions[size_best]) {
                size_best = i;
            }
        }
        bool disagreement = false;
        for (const auto& cost : res.costs) {
            if (depth.better(cost, res.costs[size_best])) {
                disagreement = true;
            }
        }
        if (disagreement) {
            EXPECT_TRUE(depth.better(res.best_cost, res.costs[size_best]))
                << name << ": depth flow selected the size favourite even "
                           "though the depth comparator disagrees";
        }
    }
}

TEST(ObjectiveFlow, LutFlowRunsOnRegistryDesigns) {
    const auto model = quick_model();
    for (const char* name : {"b07", "b10", "b11"}) {
        const Aig g = bg::circuits::make_benchmark_scaled(name, 0.25);
        FlowConfig fc = quick_flow_config();
        fc.objective = make_objective("luts:4");
        const auto res = run_flow(g, model, fc);
        EXPECT_EQ(res.objective, "luts") << name;
        bg::opt::LutMapParams lp;
        lp.k = 4;
        EXPECT_DOUBLE_EQ(
            res.original_cost.value,
            static_cast<double>(bg::opt::map_to_luts(g, lp).num_luts()))
            << name;
        EXPECT_GT(res.bg_best_value_ratio, 0.0) << name;
        EXPECT_LE(res.bg_best_value_ratio, 1.0 + 1e-12) << name;
        const MappedLutObjective luts{lp};
        for (const auto& cost : res.costs) {
            EXPECT_GT(cost.value, 0.0) << name;
            EXPECT_FALSE(luts.better(cost, res.best_cost)) << name;
        }
    }
}

TEST(ObjectiveFlow, BestGraphMeasuresAsBestCost) {
    // run_flow keeps the winner's optimized graph; measuring it again
    // must reproduce the cost that picked it.
    const auto model = quick_model();
    const Aig g = bg::circuits::make_benchmark_scaled("b10", 0.3);
    for (const char* spec : {"size", "depth", "luts"}) {
        FlowConfig fc = quick_flow_config();
        fc.objective = make_objective(spec);
        const auto res = run_flow(g, model, fc);
        ASSERT_NE(res.best_graph, nullptr) << spec;
        const auto cost = fc.objective->measure(*res.best_graph);
        EXPECT_EQ(cost.value, res.best_cost.value) << spec;
        EXPECT_EQ(cost.size, res.best_cost.size) << spec;
        EXPECT_EQ(cost.depth, res.best_cost.depth) << spec;
        EXPECT_EQ(res.best_graph->num_ands(),
                  res.original_size -
                      static_cast<std::size_t>(res.best_reduction))
            << spec;
        // The kept graph is what re-running the winner would build.
        Aig rerun;
        (void)bg::core::evaluate_decisions(g, res.best_decisions, fc.opt,
                                           *fc.objective, &rerun);
        EXPECT_EQ(structural_fingerprint(rerun),
                  structural_fingerprint(*res.best_graph))
            << spec;
    }
}

TEST(ObjectiveFlow, WeightedFlowReportsBothMetrics) {
    const auto model = quick_model();
    const Aig g = bg::circuits::make_benchmark_scaled("b10", 0.3);
    FlowConfig fc = quick_flow_config();
    fc.objective = make_objective("weighted:1,2");
    const auto res = run_flow(g, model, fc);
    EXPECT_EQ(res.objective, "weighted:1,2");
    ASSERT_FALSE(res.costs.empty());
    for (const auto& cost : res.costs) {
        EXPECT_DOUBLE_EQ(cost.value,
                         static_cast<double>(cost.size) +
                             2.0 * static_cast<double>(cost.depth));
    }
}

TEST(ObjectiveFlow, ServiceCarriesObjectiveEndToEnd) {
    // ServiceConfig.flow.objective must reach every served job: the same
    // job submitted to a depth-configured service reproduces a sequential
    // depth run_design_flow bit for bit.
    bg::core::ServiceConfig scfg;
    scfg.workers = 2;
    scfg.flow = quick_flow_config();
    scfg.flow.objective = make_objective("depth");
    auto model = std::make_shared<bg::core::BoolGebraModel>(quick_model());
    bg::core::FlowService service(scfg, model);

    bg::core::DesignJob job{
        "b10", bg::circuits::make_benchmark_scaled("b10", 0.3)};
    const auto served = service.submit(job).get();
    service.stop();

    EXPECT_EQ(served.flow.objective, "depth");
    const auto direct = bg::core::run_design_flow(job, *model, scfg.flow,
                                                  scfg.rounds, nullptr);
    EXPECT_EQ(served.flow.predictions, direct.flow.predictions);
    EXPECT_EQ(served.flow.selected, direct.flow.selected);
    EXPECT_EQ(served.flow.best_cost.depth, direct.flow.best_cost.depth);
    EXPECT_EQ(served.flow.bg_best_depth_ratio,
              direct.flow.bg_best_depth_ratio);
}

TEST(ObjectiveFlow, IteratedDepthFlowNeverDeepens) {
    const auto model = quick_model();
    const Aig g = bg::circuits::make_benchmark_scaled("b07", 0.3);
    FlowConfig fc = quick_flow_config();
    fc.objective = make_objective("depth");
    const auto res =
        bg::core::run_design_flow({"b07", g}, model, fc, 2, nullptr).iterated;
    EXPECT_EQ(res.original_depth, g.depth());
    EXPECT_LE(res.final_depth, res.original_depth);
    EXPECT_LE(res.final_depth_ratio, 1.0 + 1e-12);
}

}  // namespace
