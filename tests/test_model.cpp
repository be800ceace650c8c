#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>

#include "circuits/registry.hpp"
#include "core/dataset.hpp"
#include "core/model.hpp"
#include "core/sampling.hpp"
#include "core/trainer.hpp"
#include "util/contracts.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace bg::core;  // NOLINT: test brevity
using bg::aig::Aig;

ModelConfig tiny_config() {
    ModelConfig cfg;
    cfg.sage_dims = {12, 12, 8};
    cfg.mlp_dims = {16, 8, 1};
    cfg.dropout = 0.0F;
    cfg.seed = 11;
    return cfg;
}

Dataset tiny_dataset(std::size_t num_samples = 24, std::uint64_t seed = 3) {
    const Aig g = bg::circuits::make_benchmark_scaled("b10", 0.4);
    const auto records = generate_guided_samples(g, num_samples, seed);
    return build_dataset(g, records);
}

/// Every sample's feature rows stacked into one (B * N, feature_dim)
/// matrix, the layout the flows hand to inference.
bg::nn::Matrix stacked_features(const Dataset& ds) {
    const std::size_t n = ds.num_nodes();
    bg::nn::Matrix x(ds.size() * n, static_cast<std::size_t>(feature_dim));
    for (std::size_t s = 0; s < ds.size(); ++s) {
        const auto& feats = ds.samples()[s].features;
        std::copy(feats.begin(), feats.end(), x.row(s * n));
    }
    return x;
}

TEST(Model, OutputShapeAndRange) {
    const Dataset ds = tiny_dataset(6);
    BoolGebraModel model(tiny_config());
    std::vector<std::size_t> idx{0, 1, 2, 3, 4, 5};
    const auto preds = model.predict(ds, idx);
    ASSERT_EQ(preds.size(), 6u);
    for (const double p : preds) {
        EXPECT_GE(p, 0.0);
        EXPECT_LE(p, 1.0);
    }
}

TEST(Model, DeterministicInference) {
    const Dataset ds = tiny_dataset(4);
    BoolGebraModel a(tiny_config());
    BoolGebraModel b(tiny_config());
    std::vector<std::size_t> idx{0, 1, 2, 3};
    EXPECT_EQ(a.predict(ds, idx), b.predict(ds, idx))
        << "same seed must give identical weights and predictions";

    // Evaluation skips dropout: a dropout model predicts exactly what the
    // same weights without dropout do, every time.
    ModelConfig with_dropout = tiny_config();
    with_dropout.dropout = 0.5F;
    const BoolGebraModel c(with_dropout);
    const auto first = c.predict(ds, idx);
    EXPECT_EQ(first, a.predict(ds, idx));
    EXPECT_EQ(c.predict(ds, idx), first);
}

TEST(Model, PaperWidthPredictionsBitEqualAtAnyPoolSize) {
    // 66 samples: the trunk runs once over all of them, then the MLP and
    // BatchNorm run on chunks of 64 + 2.  The paper's 512-wide layers
    // span many row panels; the pool only schedules them.
    const Aig g = bg::circuits::make_benchmark_scaled("b07", 0.25);
    const Dataset ds = build_dataset(g, generate_guided_samples(g, 66, 7));
    const bg::nn::Matrix x = stacked_features(ds);
    const BoolGebraModel model(ModelConfig::paper());
    const auto serial =
        model.predict_batch_head(ds.csr(), ds.num_nodes(), x, 0);
    ASSERT_EQ(serial.size(), 66u);
    EXPECT_NE(*std::min_element(serial.begin(), serial.end()),
              *std::max_element(serial.begin(), serial.end()));
    for (const std::size_t workers : {1UL, 2UL, 4UL}) {
        bg::ThreadPool pool(workers);
        const auto pooled = model.predict_batch_head(
            ds.csr(), ds.num_nodes(), x, 0, BoolGebraModel::kPredictBatch,
            &pool);
        ASSERT_EQ(pooled.size(), serial.size());
        for (std::size_t s = 0; s < serial.size(); ++s) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(pooled[s]),
                      std::bit_cast<std::uint64_t>(serial[s]))
                << "workers=" << workers << " sample " << s;
        }
    }
}

TEST(Model, DistinctRowPredictionsBitEqualDenseTrainingForward) {
    // predict_batch_head computes each distinct trunk row once; the
    // training forward() computes every row of every 64-sample chunk.
    // Guided samples repeat rows at every layer, random continuous
    // features repeat none; either way, with input statistics or without,
    // at any pool size, the predictions are the dense pass's bits.
    const Aig g = bg::circuits::make_benchmark_scaled("b07", 0.25);
    const Dataset ds = build_dataset(g, generate_guided_samples(g, 66, 7));
    const std::size_t n = ds.num_nodes();
    const std::size_t samples = ds.size();
    ASSERT_EQ(samples, 66u);
    const bg::nn::Matrix guided = stacked_features(ds);
    bg::nn::Matrix random(guided.rows(), guided.cols());
    bg::Rng rng(19);
    for (auto& v : random.data()) {
        v = static_cast<float>(rng.next_gaussian()) * 3.0F;
    }
    ModelConfig cfg = ModelConfig::paper();
    cfg.dropout = 0.0F;
    std::vector<std::unique_ptr<bg::ThreadPool>> pools;
    pools.emplace_back();  // null pool: inline
    for (const std::size_t workers : {1UL, 2UL, 4UL}) {
        pools.push_back(std::make_unique<bg::ThreadPool>(workers));
    }
    const struct {
        const char* name;
        const bg::nn::Matrix& x;
        bool rows_repeat;
    } batches[] = {{"guided", guided, true}, {"random", random, false}};
    for (const auto& batch : batches) {
        const auto classes = bg::nn::intern_rows(batch.x, ds.csr(), samples,
                                                 cfg.sage_dims.size());
        ASSERT_EQ(classes.cls.size(), cfg.sage_dims.size() + 1);
        for (std::size_t l = 0; l < classes.cls.size(); ++l) {
            if (batch.rows_repeat) {
                EXPECT_LT(classes.count(l), batch.x.rows())
                    << batch.name << " layer " << l;
            } else {
                EXPECT_EQ(classes.count(l), batch.x.rows())
                    << batch.name << " layer " << l;
            }
        }
        for (const bool stats : {false, true}) {
            BoolGebraModel model(cfg);
            if (stats) {
                model.set_input_stats(std::vector<float>(feature_dim, 0.25F),
                                      std::vector<float>(feature_dim, 3.0F));
            }
            // The reference runs on the widest pool only for speed: the
            // null-pool predictions below are compared with it too.
            std::vector<double> dense;
            for (std::size_t start = 0; start < samples;
                 start += BoolGebraModel::kPredictBatch) {
                const std::size_t b =
                    std::min(BoolGebraModel::kPredictBatch, samples - start);
                const bg::nn::Matrix y =
                    model.forward(batch.x.rows_view(start * n, b * n),
                                  ds.csr(), b, pools.back().get());
                for (std::size_t s = 0; s < b; ++s) {
                    dense.push_back(y.at(s, 0));
                }
            }
            EXPECT_NE(*std::min_element(dense.begin(), dense.end()),
                      *std::max_element(dense.begin(), dense.end()));
            for (std::size_t p = 0; p < pools.size(); ++p) {
                const auto pred = model.predict_batch_head(
                    ds.csr(), n, batch.x, 0, BoolGebraModel::kPredictBatch,
                    pools[p].get());
                ASSERT_EQ(pred.size(), samples);
                for (std::size_t s = 0; s < samples; ++s) {
                    EXPECT_EQ(std::bit_cast<std::uint64_t>(pred[s]),
                              std::bit_cast<std::uint64_t>(dense[s]))
                        << batch.name << " stats=" << stats << " pool#" << p
                        << " sample " << s;
                }
            }
        }
    }
}

TEST(Model, TrainingForwardMatchesEvalForwardBitForBit) {
    // Without dropout the two passes share every operation: the SAGE
    // layers run one kernel, and BatchNorm normalizes a multi-row batch
    // with its own statistics in both.
    const Dataset ds = tiny_dataset(6);
    const bg::nn::Matrix x = stacked_features(ds);
    BoolGebraModel model(ModelConfig::quick());
    ASSERT_EQ(model.config().dropout, 0.0F);
    model.set_input_stats(std::vector<float>(feature_dim, 0.5F),
                          std::vector<float>(feature_dim, 2.0F));
    const bg::nn::Matrix eval = model.forward_eval(x, ds.csr(), 6);
    const bg::nn::Matrix train = model.forward(x, ds.csr(), 6);
    ASSERT_EQ(train.rows(), eval.rows());
    ASSERT_EQ(train.cols(), eval.cols());
    for (std::size_t i = 0; i < eval.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(train.data()[i]),
                  std::bit_cast<std::uint32_t>(eval.data()[i]))
            << "element " << i;
    }
}

TEST(Model, ParameterCountMatchesArchitecture) {
    BoolGebraModel model(tiny_config());
    // conv0: 12*12*2+12, conv1: 12*12*2+12, conv2: 12*8*2+8,
    // l0: 8*16+16, l1: 16*8+8, l2: 8*1+1, bn0: 2*16, bn1: 2*8.
    const std::size_t expected = (12 * 12 * 2 + 12) + (12 * 12 * 2 + 12) +
                                 (12 * 8 * 2 + 8) + (8 * 16 + 16) +
                                 (16 * 8 + 8) + (8 * 1 + 1) + 32 + 16;
    EXPECT_EQ(model.num_parameters(), expected);
}

TEST(Model, PaperConfigDimensions) {
    const auto cfg = ModelConfig::paper();
    EXPECT_EQ(cfg.sage_dims, (std::vector<int>{512, 512, 64}));
    EXPECT_EQ(cfg.mlp_dims, (std::vector<int>{1000, 200, 1}));
    EXPECT_FLOAT_EQ(cfg.dropout, 0.1F);
}

TEST(Model, SaveLoadRoundTrip) {
    const Dataset ds = tiny_dataset(4);
    BoolGebraModel a(tiny_config());
    const auto path =
        std::filesystem::temp_directory_path() / "bg_model_test.bin";
    a.save(path);

    ModelConfig other = tiny_config();
    other.seed = 999;  // different init
    BoolGebraModel b(other);
    std::vector<std::size_t> idx{0, 1, 2, 3};
    EXPECT_NE(a.predict(ds, idx), b.predict(ds, idx));
    b.load(path);
    EXPECT_EQ(a.predict(ds, idx), b.predict(ds, idx));
    std::filesystem::remove(path);
}

TEST(Model, LoadRejectsWrongArchitecture) {
    BoolGebraModel a(tiny_config());
    const auto path =
        std::filesystem::temp_directory_path() / "bg_model_badarch.bin";
    a.save(path);
    ModelConfig bigger = tiny_config();
    bigger.sage_dims = {16, 12, 8};
    BoolGebraModel b(bigger);
    EXPECT_THROW(b.load(path), std::runtime_error);
    std::filesystem::remove(path);
}

TEST(Model, LoadRejectsTrailingBytes) {
    BoolGebraModel a(tiny_config());
    const auto path =
        std::filesystem::temp_directory_path() / "bg_model_trailing.bin";
    a.save(path);
    {
        std::ofstream out(path, std::ios::binary | std::ios::app);
        const char extra[8] = {};
        out.write(extra, sizeof extra);
    }
    const auto expect_rejected = [&](const auto& load) {
        try {
            load();
            ADD_FAILURE() << "a checkpoint with trailing bytes loaded";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find(path.string()),
                      std::string::npos)
                << e.what();
        }
    };
    BoolGebraModel b(tiny_config());
    expect_rejected([&] { b.load(path); });
    expect_rejected([&] { (void)load_checkpoint(path, tiny_config()); });
    std::filesystem::remove(path);
}

TEST(Trainer, LossDecreasesOnTinyProblem) {
    const Dataset ds = tiny_dataset(32, 5);
    BoolGebraModel model(tiny_config());
    TrainConfig cfg = TrainConfig::quick();
    cfg.epochs = 30;
    cfg.batch_size = 8;
    cfg.lr = 3e-3;
    cfg.eval_every = 1;
    const auto result = train_model(model, ds, cfg);
    ASSERT_GE(result.history.size(), 2u);
    const double first = result.history.front().train_loss;
    const double last = result.final_train_loss;
    EXPECT_LT(last, first) << "training loss must decrease";
}

TEST(Trainer, HistoryRespectsEvalCadence) {
    const Dataset ds = tiny_dataset(16, 6);
    BoolGebraModel model(tiny_config());
    TrainConfig cfg = TrainConfig::quick();
    cfg.epochs = 10;
    cfg.eval_every = 3;
    const auto result = train_model(model, ds, cfg);
    // Epochs 0, 3, 6, 9 -> 4 entries (last epoch always recorded).
    ASSERT_EQ(result.history.size(), 4u);
    EXPECT_EQ(result.history[1].epoch, 3u);
    EXPECT_EQ(result.history.back().epoch, 9u);
}

TEST(Trainer, LearningRateFollowsDecay) {
    const Dataset ds = tiny_dataset(16, 7);
    BoolGebraModel model(tiny_config());
    TrainConfig cfg = TrainConfig::quick();
    cfg.epochs = 60;
    cfg.lr = 1e-3;
    cfg.decay_every = 20;
    cfg.decay_factor = 0.5;
    cfg.eval_every = 20;
    const auto result = train_model(model, ds, cfg);
    EXPECT_DOUBLE_EQ(result.history[0].lr, 1e-3);
    EXPECT_DOUBLE_EQ(result.history[1].lr, 5e-4);
    EXPECT_DOUBLE_EQ(result.history[2].lr, 2.5e-4);
}

TEST(Trainer, PredictionsCorrelateWithLabelsAfterTraining) {
    // The Fig 5 property in miniature: after training, predicted scores
    // should correlate positively with the true labels.
    const Dataset ds = tiny_dataset(96, 5);
    ModelConfig mc = tiny_config();
    mc.sage_dims = {16, 16, 8};
    mc.mlp_dims = {24, 8, 1};
    BoolGebraModel model(mc);
    TrainConfig cfg = TrainConfig::quick();
    cfg.epochs = 150;
    cfg.batch_size = 12;
    cfg.lr = 2e-3;
    cfg.eval_every = 25;
    (void)train_model(model, ds, cfg);

    std::vector<std::size_t> all(ds.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
        all[i] = i;
    }
    const auto preds = model.predict(ds, all);
    std::vector<double> labels;
    for (const auto& s : ds.samples()) {
        labels.push_back(s.label);
    }
    const double rho = bg::spearman(preds, labels);
    EXPECT_GT(rho, 0.3) << "trained model must rank samples usefully";
}

TEST(Trainer, DeterministicGivenSeeds) {
    const Dataset ds = tiny_dataset(16, 8);
    BoolGebraModel m1(tiny_config());
    BoolGebraModel m2(tiny_config());
    TrainConfig cfg = TrainConfig::quick();
    cfg.epochs = 8;
    const auto r1 = train_model(m1, ds, cfg);
    const auto r2 = train_model(m2, ds, cfg);
    ASSERT_EQ(r1.history.size(), r2.history.size());
    for (std::size_t i = 0; i < r1.history.size(); ++i) {
        EXPECT_DOUBLE_EQ(r1.history[i].train_loss, r2.history[i].train_loss);
        EXPECT_DOUBLE_EQ(r1.history[i].test_loss, r2.history[i].test_loss);
    }

    // Evaluation must not perturb training: with dropout drawing from the
    // model's RNG, the trained weights are the same whether the test loss
    // is recorded every epoch, every other epoch or only at the end.
    ModelConfig mc = tiny_config();
    mc.dropout = 0.1F;
    std::vector<std::size_t> all(ds.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
        all[i] = i;
    }
    BoolGebraModel reference(mc);
    (void)train_model(reference, ds, cfg);
    const auto expected = reference.predict(ds, all);
    for (const std::size_t every : {std::size_t{1}, cfg.epochs}) {
        TrainConfig c = cfg;
        c.eval_every = every;
        BoolGebraModel m(mc);
        (void)train_model(m, ds, c);
        EXPECT_EQ(m.predict(ds, all), expected) << "eval_every " << every;
    }
}

// Configs that would train nothing or divide by zero are rejected up front.
void expect_rejected(const TrainConfig& cfg) {
    const Dataset ds = tiny_dataset(8, 9);
    BoolGebraModel model(tiny_config());
    EXPECT_THROW((void)train_model(model, ds, cfg), bg::ContractViolation);
}

TEST(Trainer, RejectsBatchSizeBelowTwo) {
    TrainConfig cfg = TrainConfig::quick();
    cfg.batch_size = 1;  // every batch would be skipped
    expect_rejected(cfg);
}

TEST(Trainer, RejectsZeroEvalEvery) {
    TrainConfig cfg = TrainConfig::quick();
    cfg.eval_every = 0;
    expect_rejected(cfg);
}

TEST(Trainer, RejectsZeroDecayEvery) {
    TrainConfig cfg = TrainConfig::quick();
    cfg.decay_every = 0;
    expect_rejected(cfg);
}

}  // namespace
