#include <gtest/gtest.h>

#include "circuits/registry.hpp"
#include "core/dataset.hpp"
#include "core/model.hpp"
#include "core/sampling.hpp"
#include "core/trainer.hpp"
#include "util/stats.hpp"

namespace {

using namespace bg::core;  // NOLINT: test brevity

ModelConfig tiny_config() {
    ModelConfig cfg;
    cfg.sage_dims = {16, 16, 8};
    cfg.mlp_dims = {24, 8, 1};
    cfg.dropout = 0.0F;
    cfg.seed = 31;
    return cfg;
}

Dataset design_dataset(const char* name, std::size_t n, std::uint64_t seed) {
    const auto g = bg::circuits::make_benchmark_scaled(name, 0.35);
    const auto records = generate_guided_samples(g, n, seed);
    return build_dataset(g, records);
}

TEST(MultiTrain, LossDecreasesAcrossDesigns) {
    const Dataset d1 = design_dataset("b09", 40, 3);
    const Dataset d2 = design_dataset("b10", 40, 4);
    const Dataset* sets[] = {&d1, &d2};
    BoolGebraModel model(tiny_config());
    TrainConfig cfg = TrainConfig::quick();
    cfg.epochs = 60;
    cfg.batch_size = 10;
    cfg.eval_every = 10;
    const auto res = train_model(model, sets, cfg);
    ASSERT_GE(res.history.size(), 2u);
    EXPECT_LT(res.final_test_loss, res.history.front().test_loss)
        << "multi-design training must reduce the averaged test loss";
    ASSERT_EQ(res.per_design_test.size(), 2u);
    ASSERT_EQ(res.splits.size(), 2u);
    EXPECT_EQ(res.splits[0].train.size() + res.splits[0].test.size(),
              d1.size());
    EXPECT_EQ(res.splits[1].train.size() + res.splits[1].test.size(),
              d2.size());
}

TEST(MultiTrain, HandlesDifferentGraphSizes) {
    // Designs of different node counts in one run (per-batch graphs).
    const Dataset d1 = design_dataset("b08", 24, 5);
    const Dataset d2 = design_dataset("b12", 24, 6);
    EXPECT_NE(d1.num_nodes(), d2.num_nodes());
    const Dataset* sets[] = {&d1, &d2};
    BoolGebraModel model(tiny_config());
    TrainConfig cfg = TrainConfig::quick();
    cfg.epochs = 10;
    cfg.batch_size = 8;
    const auto res = train_model(model, sets, cfg);
    EXPECT_GT(res.history.size(), 0u);
}

TEST(MultiTrain, SingleDatasetMatchesShape) {
    const Dataset d1 = design_dataset("b09", 32, 7);
    const Dataset* sets[] = {&d1};
    BoolGebraModel model(tiny_config());
    TrainConfig cfg = TrainConfig::quick();
    cfg.epochs = 12;
    cfg.eval_every = 4;
    const auto res = train_model(model, sets, cfg);
    EXPECT_EQ(res.per_design_test.size(), 1u);
    EXPECT_EQ(res.splits.size(), 1u);
    // Epochs 0,4,8,11 recorded.
    EXPECT_EQ(res.history.size(), 4u);
}

TEST(MultiTrain, EmptyInputThrows) {
    BoolGebraModel model(tiny_config());
    EXPECT_THROW(
        (void)train_model(model, std::span<const Dataset* const>{}),
        bg::ContractViolation);
}

TEST(MultiTrain, ImprovesWorstCaseOverSingleDesignTraining) {
    // Train on b09 only vs on {b09, b10}; the multi-trained model should
    // not be dramatically worse on b10 than the b09-only model is.
    const Dataset d1 = design_dataset("b09", 40, 8);
    const Dataset d2 = design_dataset("b10", 40, 9);
    TrainConfig cfg = TrainConfig::quick();
    cfg.epochs = 60;
    cfg.batch_size = 10;

    BoolGebraModel single(tiny_config());
    (void)train_model(single, d1, cfg);
    const auto idx2 = [&] {
        std::vector<std::size_t> v(d2.size());
        for (std::size_t i = 0; i < v.size(); ++i) {
            v[i] = i;
        }
        return v;
    }();
    const double single_on_d2 = evaluate_loss(single, d2, idx2);

    BoolGebraModel multi(tiny_config());
    const Dataset* sets[] = {&d1, &d2};
    (void)train_model(multi, sets, cfg);
    const double multi_on_d2 = evaluate_loss(multi, d2, idx2);

    EXPECT_LT(multi_on_d2, single_on_d2 + 0.05)
        << "seeing b10 during training should not hurt b10 inference";
}

}  // namespace
