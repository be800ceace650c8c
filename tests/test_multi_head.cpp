#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "circuits/registry.hpp"
#include "core/dataset.hpp"
#include "core/flow.hpp"
#include "core/flow_engine.hpp"
#include "core/model.hpp"
#include "core/sampling.hpp"
#include "core/trainer.hpp"
#include "nn/loss.hpp"
#include "opt/objective.hpp"
#include "util/contracts.hpp"

/// \file test_multi_head.cpp
/// The multi-head predictor: shared-trunk size/depth/LUT heads, masked
/// multi-label training, versioned checkpoints (v1 single-head files load
/// as size-only, bit-exact), and head-selected ranking in the flow — the
/// depth objective must prune by the depth head when the model has one
/// and fall back to size-as-proxy when it does not.

namespace {

using namespace bg::core;  // NOLINT: test brevity
using bg::aig::Aig;
namespace nn = bg::nn;

ModelConfig tiny_config(std::vector<MetricHead> heads = {MetricHead::Size}) {
    ModelConfig cfg;
    cfg.sage_dims = {12, 12, 8};
    cfg.mlp_dims = {16, 8, 1};
    cfg.dropout = 0.0F;
    cfg.seed = 11;
    cfg.heads = std::move(heads);
    return cfg;
}

std::vector<MetricHead> all_heads() {
    return {MetricHead::Size, MetricHead::Depth, MetricHead::Luts};
}

Dataset tiny_dataset(std::size_t num_samples = 24, std::uint64_t seed = 3,
                     bool with_luts = false) {
    const Aig g = bg::circuits::make_benchmark_scaled("b10", 0.4);
    bg::opt::LutMapParams lut;
    lut.k = 4;
    const auto records = generate_guided_samples(
        g, num_samples, seed, {}, nullptr, with_luts ? &lut : nullptr);
    return build_dataset(g, records);
}

std::string file_magic(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    char magic[8] = {};
    in.read(magic, sizeof magic);
    return std::string(magic, 8);
}

// -- configuration -----------------------------------------------------------

TEST(MultiHead, ConfigValidation) {
    EXPECT_THROW(BoolGebraModel{tiny_config({})}, bg::ContractViolation)
        << "a model needs at least one head";
    EXPECT_THROW(
        BoolGebraModel{tiny_config({MetricHead::Size, MetricHead::Size})},
        bg::ContractViolation)
        << "duplicate heads must be rejected";
    EXPECT_THROW(BoolGebraModel{tiny_config({MetricHead::Depth})},
                 bg::ContractViolation)
        << "the size head (the ranking fallback) is mandatory";
    EXPECT_NO_THROW(BoolGebraModel{tiny_config(all_heads())});
}

TEST(MultiHead, HeadLookup) {
    const BoolGebraModel model(
        tiny_config({MetricHead::Size, MetricHead::Depth}));
    EXPECT_EQ(model.num_heads(), 2u);
    EXPECT_TRUE(model.has_head(MetricHead::Size));
    EXPECT_TRUE(model.has_head(MetricHead::Depth));
    EXPECT_FALSE(model.has_head(MetricHead::Luts));
    EXPECT_EQ(model.head_index(MetricHead::Depth), 1u);
    EXPECT_EQ(model.head_index(MetricHead::Luts), std::nullopt);
}

TEST(MultiHead, QuickMultiConfigCarriesAllHeads) {
    const auto cfg = ModelConfig::quick_multi();
    EXPECT_EQ(cfg.heads, all_heads());
    // The single-head default is unchanged — the paper's architecture.
    EXPECT_EQ(ModelConfig::quick().heads,
              std::vector<MetricHead>{MetricHead::Size});
}

// -- inference ---------------------------------------------------------------

TEST(MultiHead, ForwardIsOneColumnPerHead) {
    const Dataset ds = tiny_dataset(4);
    BoolGebraModel model(tiny_config(all_heads()));
    nn::Matrix x(2 * ds.num_nodes(), feature_dim);
    for (std::size_t s = 0; s < 2; ++s) {
        const auto& feats = ds.samples()[s].features;
        std::copy(feats.begin(), feats.end(), x.row(s * ds.num_nodes()));
    }
    const auto pred = model.forward_eval(x, ds.csr(), 2);
    EXPECT_EQ(pred.rows(), 2u);
    EXPECT_EQ(pred.cols(), 3u);
    for (std::size_t s = 0; s < pred.rows(); ++s) {
        for (std::size_t h = 0; h < pred.cols(); ++h) {
            EXPECT_GE(pred.at(s, h), 0.0F);
            EXPECT_LE(pred.at(s, h), 1.0F);
        }
    }
}

TEST(MultiHead, PredictBatchHeadSelectsColumns) {
    const Dataset ds = tiny_dataset(6);
    const BoolGebraModel model(tiny_config(all_heads()));
    nn::Matrix stacked(6 * ds.num_nodes(), feature_dim);
    for (std::size_t s = 0; s < 6; ++s) {
        const auto& feats = ds.samples()[s].features;
        std::copy(feats.begin(), feats.end(),
                  stacked.row(s * ds.num_nodes()));
    }
    const auto head0 =
        model.predict_batch_head(ds.csr(), ds.num_nodes(), stacked, 0);
    const auto head1 =
        model.predict_batch_head(ds.csr(), ds.num_nodes(), stacked, 1);
    // Distinct output columns carry distinct final-layer weights.
    EXPECT_NE(head0, head1);

    // Blend = manual weighted combination of the head columns.
    const std::vector<double> weights{1.0, 2.0, 0.0};
    const auto blend = model.predict_batch_blend(ds.csr(), ds.num_nodes(),
                                                 stacked, weights);
    ASSERT_EQ(blend.size(), head0.size());
    for (std::size_t s = 0; s < blend.size(); ++s) {
        EXPECT_DOUBLE_EQ(blend[s], 1.0 * head0[s] + 2.0 * head1[s]);
    }
}

// -- masked multi-label loss -------------------------------------------------

TEST(MaskedLoss, EqualsUnmaskedMseOnSingleColumn) {
    nn::Matrix pred(5, 1);
    nn::Matrix target(5, 1);
    nn::Matrix mask(5, 1);
    std::vector<float> flat_target(5);
    for (std::size_t i = 0; i < 5; ++i) {
        pred.at(i, 0) = 0.1F * static_cast<float>(i + 1);
        target.at(i, 0) = 0.7F - 0.2F * static_cast<float>(i);
        flat_target[i] = target.at(i, 0);
        mask.at(i, 0) = 1.0F;
    }
    const auto masked = nn::masked_mse_loss(pred, target, mask);
    const auto plain = nn::mse_loss(pred, flat_target);
    EXPECT_EQ(masked.loss, plain.loss);
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(masked.grad.at(i, 0), plain.grad.at(i, 0));
    }
}

TEST(MaskedLoss, MaskedEntriesContributeNothing) {
    nn::Matrix pred(3, 2);
    nn::Matrix target(3, 2);
    nn::Matrix mask(3, 2);
    for (std::size_t i = 0; i < 3; ++i) {
        pred.at(i, 0) = 0.5F;
        target.at(i, 0) = 0.25F;
        mask.at(i, 0) = 1.0F;
        pred.at(i, 1) = 0.9F;   // wildly wrong ...
        target.at(i, 1) = 0.0F;
        mask.at(i, 1) = 0.0F;   // ... but masked out
    }
    const auto res = nn::masked_mse_loss(pred, target, mask);
    EXPECT_DOUBLE_EQ(res.loss, 0.25 * 0.25);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(res.grad.at(i, 1), 0.0F)
            << "masked entries must not produce gradient";
        EXPECT_NE(res.grad.at(i, 0), 0.0F);
    }
    const auto per_col = nn::masked_mse_per_column(pred, target, mask);
    ASSERT_EQ(per_col.size(), 2u);
    EXPECT_DOUBLE_EQ(per_col[0], 0.25 * 0.25);
    EXPECT_DOUBLE_EQ(per_col[1], 0.0);
}

TEST(MaskedLoss, AllZeroMaskIsZeroLossZeroGrad) {
    nn::Matrix pred(2, 3);
    nn::Matrix target(2, 3);
    nn::Matrix mask(2, 3);  // zero-initialized
    pred.at(0, 0) = 1.0F;
    const auto res = nn::masked_mse_loss(pred, target, mask);
    EXPECT_EQ(res.loss, 0.0);
    for (std::size_t i = 0; i < 2; ++i) {
        for (std::size_t j = 0; j < 3; ++j) {
            EXPECT_EQ(res.grad.at(i, j), 0.0F);
        }
    }
    EXPECT_EQ(nn::masked_mse_value(pred, target, mask), 0.0);
}

// -- dataset labels ----------------------------------------------------------

TEST(MultiHeadDataset, LabelsAndMasksWithoutLutMeasurements) {
    const Dataset ds = tiny_dataset(12, 5, /*with_luts=*/false);
    constexpr auto kSize = static_cast<std::size_t>(MetricHead::Size);
    constexpr auto kDepth = static_cast<std::size_t>(MetricHead::Depth);
    constexpr auto kLuts = static_cast<std::size_t>(MetricHead::Luts);
    EXPECT_TRUE(ds.has_labels(MetricHead::Size));
    EXPECT_TRUE(ds.has_labels(MetricHead::Depth));
    EXPECT_FALSE(ds.has_labels(MetricHead::Luts));
    bool some_depth_signal = false;
    for (const auto& s : ds.samples()) {
        EXPECT_EQ(s.labels[kSize], s.label)
            << "the size column is the paper's label";
        EXPECT_EQ(s.mask[kSize], 1.0F);
        EXPECT_EQ(s.mask[kDepth], 1.0F);
        EXPECT_EQ(s.mask[kLuts], 0.0F)
            << "unmeasured LUT labels must be masked out";
        EXPECT_GE(s.labels[kDepth], 0.0F);
        EXPECT_LE(s.labels[kDepth], 1.0F);
        some_depth_signal |= s.labels[kDepth] > 0.0F;
    }
    EXPECT_TRUE(some_depth_signal)
        << "range normalization should separate the depth outcomes";
}

TEST(MultiHeadDataset, LutLabelsWhenMeasured) {
    const Aig g = bg::circuits::make_benchmark_scaled("b10", 0.4);
    bg::opt::LutMapParams lut;
    lut.k = 4;
    const auto records = generate_guided_samples(g, 8, 3, {}, nullptr, &lut);
    for (const auto& rec : records) {
        EXPECT_GE(rec.lut_count, 0)
            << "lut_labels must annotate every record";
    }
    const Dataset ds = build_dataset(g, records);
    EXPECT_TRUE(ds.has_labels(MetricHead::Luts));
    constexpr auto kLuts = static_cast<std::size_t>(MetricHead::Luts);
    for (const auto& s : ds.samples()) {
        EXPECT_EQ(s.mask[kLuts], 1.0F);
        EXPECT_GE(s.labels[kLuts], 0.0F);
        EXPECT_LE(s.labels[kLuts], 1.0F);
    }
}

TEST(MultiHeadDataset, RangeLabelNormalization) {
    EXPECT_FLOAT_EQ(range_label(5.0, 5.0, 9.0), 0.0F);
    EXPECT_FLOAT_EQ(range_label(9.0, 5.0, 9.0), 1.0F);
    EXPECT_FLOAT_EQ(range_label(7.0, 5.0, 9.0), 0.5F);
    EXPECT_FLOAT_EQ(range_label(5.0, 5.0, 5.0), 0.0F)
        << "degenerate range collapses to 0";
}

// -- training ----------------------------------------------------------------

TEST(MultiHeadTrainer, LossDecreasesOnAllThreeHeads) {
    const Dataset ds = tiny_dataset(32, 5, /*with_luts=*/true);
    BoolGebraModel model(tiny_config(all_heads()));
    TrainConfig cfg = TrainConfig::quick();
    cfg.epochs = 30;
    cfg.batch_size = 8;
    cfg.eval_every = 1;
    const auto result = train_model(model, ds, cfg);
    ASSERT_GE(result.history.size(), 2u);
    EXPECT_LT(result.final_train_loss, result.history.front().train_loss);

    const auto head_losses = evaluate_head_losses(model, ds,
                                                  result.splits.front().test);
    ASSERT_EQ(head_losses.size(), 3u);
    for (const double l : head_losses) {
        EXPECT_GE(l, 0.0);
    }
}

TEST(MultiHeadTrainer, MaskedLutColumnGetsNoGradient) {
    // Dataset without LUT measurements: the LUT head's column is fully
    // masked, so the final linear layer's LUT column must accumulate a
    // zero gradient while the labelled columns do not.
    const Dataset ds = tiny_dataset(8, 6, /*with_luts=*/false);
    BoolGebraModel model(tiny_config(all_heads()));
    const std::size_t b = 4;
    nn::Matrix x(b * ds.num_nodes(), feature_dim);
    nn::Matrix labels(b, 3);
    nn::Matrix mask(b, 3);
    for (std::size_t s = 0; s < b; ++s) {
        const auto& sample = ds.samples()[s];
        std::copy(sample.features.begin(), sample.features.end(),
                  x.row(s * ds.num_nodes()));
        for (std::size_t h = 0; h < 3; ++h) {
            labels.at(s, h) = sample.labels[h];
            mask.at(s, h) = sample.mask[h];
        }
    }
    model.zero_grad();
    const auto pred = model.forward(x, ds.csr(), b);
    const auto loss = nn::masked_mse_loss(pred, labels, mask);
    model.backward(loss.grad);

    // The final linear layer is the only parameter tensor of size 8*3
    // (weights) / 3 (bias) in the tiny architecture; column 2 is the LUT
    // head.
    const nn::ParamRef* l2_w = nullptr;
    const nn::ParamRef* l2_b = nullptr;
    const auto params = model.params();
    for (const auto& p : params) {
        if (p.size == 8 * 3) {
            l2_w = &p;
        } else if (p.size == 3) {
            l2_b = &p;
        }
    }
    ASSERT_NE(l2_w, nullptr);
    ASSERT_NE(l2_b, nullptr);
    bool size_col_has_grad = false;
    for (std::size_t r = 0; r < 8; ++r) {
        EXPECT_EQ(l2_w->grad[r * 3 + 2], 0.0F)
            << "masked LUT column must not receive weight gradient";
        size_col_has_grad |= l2_w->grad[r * 3 + 0] != 0.0F;
    }
    EXPECT_EQ(l2_b->grad[2], 0.0F);
    EXPECT_TRUE(size_col_has_grad)
        << "the labelled size column must still train";
}

// -- checkpoints -------------------------------------------------------------

TEST(Checkpoint, SingleHeadSavesLegacyV1Layout) {
    BoolGebraModel model(tiny_config());
    const auto path =
        std::filesystem::temp_directory_path() / "bg_v1_layout.bin";
    model.save(path);
    EXPECT_EQ(file_magic(path), "BGMODEL2")
        << "single-size-head checkpoints stay readable by v1 tooling";
    std::filesystem::remove(path);
}

TEST(Checkpoint, MultiHeadRoundTripsThroughV2) {
    const Dataset ds = tiny_dataset(4);
    BoolGebraModel a(tiny_config(all_heads()));
    const auto path =
        std::filesystem::temp_directory_path() / "bg_v2_roundtrip.bin";
    a.save(path);
    EXPECT_EQ(file_magic(path), "BGMODEL3");

    ModelConfig other = tiny_config(all_heads());
    other.seed = 999;
    BoolGebraModel b(other);
    std::vector<std::size_t> idx{0, 1, 2, 3};
    EXPECT_NE(a.predict(ds, idx), b.predict(ds, idx));
    b.load(path);
    EXPECT_EQ(a.predict(ds, idx), b.predict(ds, idx));

    // load_checkpoint restores the recorded head list.
    const auto restored = load_checkpoint(path, tiny_config());
    EXPECT_EQ(restored.num_heads(), 3u);
    EXPECT_TRUE(restored.has_head(MetricHead::Depth));
    EXPECT_EQ(restored.predict(ds, idx), a.predict(ds, idx));
    std::filesystem::remove(path);
}

TEST(Checkpoint, LegacyV1LoadsAsSizeOnlyBitExact) {
    // The backward-compatibility pin: a v1 single-head file loads as a
    // size-only model and reproduces the saving model's predictions bit
    // for bit (the PR-4 behavior).
    const Dataset ds = tiny_dataset(24, 4);
    BoolGebraModel trained(tiny_config());
    TrainConfig tc = TrainConfig::quick();
    tc.epochs = 10;
    (void)train_model(trained, ds, tc);  // fits input stats too

    const auto path =
        std::filesystem::temp_directory_path() / "bg_v1_legacy.bin";
    trained.save(path);
    ASSERT_EQ(file_magic(path), "BGMODEL2");

    // Even when the caller asks for a multi-head base config, the v1 file
    // dictates a single size head.
    const auto loaded = load_checkpoint(path, tiny_config(all_heads()));
    EXPECT_EQ(loaded.num_heads(), 1u);
    EXPECT_TRUE(loaded.has_head(MetricHead::Size));

    std::vector<std::size_t> idx(ds.size());
    for (std::size_t i = 0; i < idx.size(); ++i) {
        idx[i] = i;
    }
    EXPECT_EQ(loaded.predict(ds, idx), trained.predict(ds, idx))
        << "legacy checkpoint predictions must be bit-exact";
    std::filesystem::remove(path);
}

TEST(Checkpoint, HeadMismatchIsRejectedByLoad) {
    BoolGebraModel single(tiny_config());
    const auto path =
        std::filesystem::temp_directory_path() / "bg_head_mismatch.bin";
    single.save(path);
    BoolGebraModel multi(tiny_config(all_heads()));
    EXPECT_THROW(multi.load(path), std::runtime_error)
        << "load() must not silently reinterpret a v1 file as multi-head";
    std::filesystem::remove(path);

    BoolGebraModel three(tiny_config(all_heads()));
    three.save(path);
    BoolGebraModel two(tiny_config({MetricHead::Size, MetricHead::Depth}));
    EXPECT_THROW(two.load(path), std::runtime_error);
    std::filesystem::remove(path);
}

// -- objective -> head mapping ----------------------------------------------

TEST(RankingPlanTest, ObjectiveMapsToMatchingHead) {
    const BoolGebraModel multi(tiny_config(all_heads()));
    const auto size_plan = plan_ranking(multi, *bg::opt::make_objective("size"));
    ASSERT_TRUE(size_plan.single_head.has_value());
    EXPECT_EQ(multi.heads()[*size_plan.single_head], MetricHead::Size);
    EXPECT_EQ(size_plan.describe, "size");

    const auto depth_plan =
        plan_ranking(multi, *bg::opt::make_objective("depth"));
    ASSERT_TRUE(depth_plan.single_head.has_value());
    EXPECT_EQ(multi.heads()[*depth_plan.single_head], MetricHead::Depth);
    EXPECT_EQ(depth_plan.describe, "depth");

    const auto lut_plan =
        plan_ranking(multi, *bg::opt::make_objective("luts:4"));
    ASSERT_TRUE(lut_plan.single_head.has_value());
    EXPECT_EQ(multi.heads()[*lut_plan.single_head], MetricHead::Luts);
    EXPECT_EQ(lut_plan.describe, "luts");
}

TEST(RankingPlanTest, WeightedObjectiveBlendsHeads) {
    const BoolGebraModel multi(tiny_config(all_heads()));
    const auto plan =
        plan_ranking(multi, *bg::opt::make_objective("weighted:1,2"));
    EXPECT_FALSE(plan.single_head.has_value());
    ASSERT_EQ(plan.weights.size(), 3u);
    EXPECT_DOUBLE_EQ(plan.weights[0], 1.0);
    EXPECT_DOUBLE_EQ(plan.weights[1], 2.0);
    EXPECT_DOUBLE_EQ(plan.weights[2], 0.0);
    EXPECT_EQ(plan.describe, "blend(size:1,depth:2)");
}

TEST(RankingPlanTest, MissingHeadsFallBackToSizeProxy) {
    const BoolGebraModel single(tiny_config());
    const auto depth_plan =
        plan_ranking(single, *bg::opt::make_objective("depth"));
    ASSERT_TRUE(depth_plan.single_head.has_value());
    EXPECT_EQ(*depth_plan.single_head, 0u);
    EXPECT_EQ(depth_plan.describe, "size-proxy");

    // Weighted on a single-head model degrades to the size head alone.
    const auto weighted_plan =
        plan_ranking(single, *bg::opt::make_objective("weighted:1,2"));
    ASSERT_TRUE(weighted_plan.single_head.has_value());
    EXPECT_EQ(weighted_plan.describe, "size-proxy");

    // The size objective on a single-head model is NOT a proxy.
    const auto size_plan =
        plan_ranking(single, *bg::opt::make_objective("size"));
    EXPECT_EQ(size_plan.describe, "size");
}

TEST(RankingPlanTest, OverrideShortCircuitsTheObjective) {
    const BoolGebraModel multi(tiny_config(all_heads()));
    const auto plan = plan_ranking(multi, *bg::opt::make_objective("depth"),
                                   MetricHead::Size);
    ASSERT_TRUE(plan.single_head.has_value());
    EXPECT_EQ(multi.heads()[*plan.single_head], MetricHead::Size);
    EXPECT_EQ(plan.describe, "size");

    const BoolGebraModel single(tiny_config());
    const auto fallback = plan_ranking(
        single, *bg::opt::make_objective("size"), MetricHead::Luts);
    EXPECT_EQ(fallback.describe, "size-proxy");
}

// -- flows -------------------------------------------------------------------

FlowConfig quick_flow_config() {
    FlowConfig fc;
    fc.num_samples = 24;
    fc.top_k = 6;
    fc.seed = 5;
    return fc;
}

TEST(MultiHeadFlow, RankedByThreadsThroughFlowResult) {
    const Aig g = bg::circuits::make_benchmark_scaled("b10", 0.3);
    const BoolGebraModel multi(tiny_config(all_heads()));
    FlowConfig fc = quick_flow_config();
    fc.objective = bg::opt::make_objective("depth");
    const auto depth_run = run_flow(g, multi, fc);
    EXPECT_EQ(depth_run.ranked_by, "depth");

    FlowConfig proxy_cfg = fc;
    proxy_cfg.ranking_head = MetricHead::Size;
    const auto proxy_run = run_flow(g, multi, proxy_cfg);
    EXPECT_EQ(proxy_run.ranked_by, "size");
    // Distinct heads rank distinctly on an (untrained) multi-head model.
    EXPECT_NE(depth_run.predictions, proxy_run.predictions);

    const BoolGebraModel single(tiny_config());
    const auto legacy_run = run_flow(g, single, fc);
    EXPECT_EQ(legacy_run.ranked_by, "size-proxy");
}

TEST(MultiHeadFlow, EngineReportsRankingHead) {
    EngineConfig cfg;
    cfg.workers = 2;
    cfg.flow = quick_flow_config();
    cfg.flow.objective = bg::opt::make_objective("depth");
    FlowEngine engine(cfg);
    const BoolGebraModel multi(tiny_config(all_heads()));
    const auto jobs =
        jobs_from_registry(std::vector<std::string>{"b07"}, 0.3);
    const auto batch = engine.run(jobs, multi);
    EXPECT_EQ(batch.objective, "depth");
    EXPECT_EQ(batch.ranked_by, "depth");
    ASSERT_EQ(batch.designs.size(), 1u);
    EXPECT_EQ(batch.designs[0].flow.ranked_by, "depth");
}

/// The acceptance pin: a depth-objective flow that ranks with a trained
/// depth head must do at least as well on the BG-Best depth ratio as the
/// same flow forced onto the size head (the PR-4 size-as-proxy baseline).
/// Everything is seeded, so this is a deterministic regression test, per
/// design, across three registry designs.
TEST(MultiHeadFlow, DepthHeadMatchesOrBeatsSizeProxyOnRegistryDesigns) {
    bg::opt::LutMapParams lut;
    lut.k = 4;
    for (const char* name : {"b07", "b09", "b10"}) {
        const Aig g = bg::circuits::make_benchmark_scaled(name, 0.3);
        // Design-specific training (the paper's Fig 5 setup) on guided
        // samples with all three labels.
        const auto records =
            generate_guided_samples(g, 48, 17, {}, nullptr, &lut);
        const Dataset ds = build_dataset(g, records);
        ModelConfig mc = tiny_config(all_heads());
        mc.seed = 23;
        BoolGebraModel model(mc);
        TrainConfig tc = TrainConfig::quick();
        tc.epochs = 40;
        tc.batch_size = 12;
        tc.seed = 9;
        (void)train_model(model, ds, tc);

        FlowConfig fc = quick_flow_config();
        fc.num_samples = 40;
        fc.top_k = 8;
        fc.objective = bg::opt::make_objective("depth");

        const auto by_depth_head = run_flow(g, model, fc);
        ASSERT_EQ(by_depth_head.ranked_by, "depth") << name;

        FlowConfig proxy = fc;
        proxy.ranking_head = MetricHead::Size;
        const auto by_size_proxy = run_flow(g, model, proxy);
        ASSERT_EQ(by_size_proxy.ranked_by, "size") << name;

        EXPECT_LE(by_depth_head.bg_best_depth_ratio,
                  by_size_proxy.bg_best_depth_ratio + 1e-12)
            << name << ": ranking by the depth head must not lose depth "
                       "against the size-as-proxy baseline";
    }
}

}  // namespace
