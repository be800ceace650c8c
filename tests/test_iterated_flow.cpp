#include <gtest/gtest.h>

#include "circuits/registry.hpp"
#include "core/flow_engine.hpp"
#include "core/trainer.hpp"

namespace {

using namespace bg::core;  // NOLINT: test brevity
using bg::aig::Aig;

ModelConfig tiny_config() {
    ModelConfig cfg;
    cfg.sage_dims = {12, 12, 8};
    cfg.mlp_dims = {16, 8, 1};
    cfg.dropout = 0.0F;
    cfg.seed = 41;
    return cfg;
}

BoolGebraModel trained_model(const Aig& design) {
    const auto records = generate_guided_samples(design, 32, 3);
    const auto ds = build_dataset(design, records);
    BoolGebraModel model(tiny_config());
    auto tc = TrainConfig::quick();
    tc.epochs = 20;
    tc.batch_size = 8;
    (void)train_model(model, ds, tc);
    return model;
}

TEST(IteratedFlow, BestDecisionsExposedBySingleFlow) {
    const Aig design = bg::circuits::make_benchmark_scaled("b10", 0.5);
    auto model = trained_model(design);
    FlowConfig fc;
    fc.num_samples = 30;
    fc.top_k = 5;
    fc.seed = 7;
    const auto res = run_flow(design, model, fc);
    ASSERT_FALSE(res.best_decisions.empty());
    // Re-running the winning vector must reproduce best_reduction.
    const auto rec = evaluate_decisions(design, res.best_decisions, fc.opt);
    EXPECT_EQ(rec.reduction, res.best_reduction);
}

TEST(IteratedFlow, MultipleRoundsDoNotLoseGround) {
    const Aig design = bg::circuits::make_benchmark_scaled("b10", 0.5);
    auto model = trained_model(design);
    FlowConfig fc;
    fc.num_samples = 30;
    fc.top_k = 5;
    fc.seed = 7;
    // One round is the paper's single-shot flow: the best candidate is
    // evaluated, not committed.  Round 1 of the three-round run commits
    // that same winner and compaction only shrinks the graph.
    const DesignJob job{"b10", design};
    const auto one = run_design_flow(job, model, fc, 1, nullptr).iterated;
    const auto three = run_design_flow(job, model, fc, 3, nullptr).iterated;
    EXPECT_EQ(one.original_size, design.num_ands());
    EXPECT_LE(three.final_size, one.final_size)
        << "extra rounds must never grow the result";
    EXPECT_GE(three.rounds(), one.rounds());
    EXPECT_LE(three.final_ratio, 1.0);
}

TEST(IteratedFlow, StopsWhenNothingLeft) {
    const Aig design = bg::circuits::make_benchmark_scaled("b09", 0.4);
    auto model = trained_model(design);
    FlowConfig fc;
    fc.num_samples = 24;
    fc.top_k = 4;
    fc.seed = 11;
    const auto res =
        run_design_flow({"b09", design}, model, fc, 10, nullptr).iterated;
    // The loop must terminate well before 10 rounds on a small design.
    EXPECT_LT(res.rounds(), 10u);
    // Size accounting must be consistent.
    int total = 0;
    for (const int r : res.per_round_reduction) {
        EXPECT_GT(r, 0);
        total += r;
    }
    // Compaction after each commit can only shrink further.
    EXPECT_LE(res.final_size,
              res.original_size - static_cast<std::size_t>(total));
}

}  // namespace
