#include "core/trainer.hpp"

#include <cmath>

#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace bg::core {

using nn::Matrix;

namespace {

/// Stack selected samples into a (B*N, F) input plus per-head label and
/// mask matrices (B, H) in the model's head-column order.  Heads the
/// dataset never measured (e.g. LUTs on records evaluated without
/// mapping) get mask 0, so old single-label datasets train the size head
/// and leave the rest untouched — the per-head masking that keeps
/// multi-head training backward compatible.
void make_batch(const Dataset& ds, std::span<const std::size_t> idx,
                const ModelConfig& cfg, Matrix& x, Matrix& labels,
                Matrix& mask) {
    const std::size_t n = ds.num_nodes();
    const std::size_t h = cfg.heads.size();
    x = Matrix(idx.size() * n, static_cast<std::size_t>(feature_dim));
    labels = Matrix(idx.size(), h);
    mask = Matrix(idx.size(), h);
    for (std::size_t s = 0; s < idx.size(); ++s) {
        const auto& sample = ds.samples()[idx[s]];
        std::copy(sample.features.begin(), sample.features.end(),
                  x.row(s * n));
        for (std::size_t c = 0; c < h; ++c) {
            const auto m = static_cast<std::size_t>(cfg.heads[c]);
            labels.at(s, c) = sample.labels[m];
            mask.at(s, c) = sample.mask[m];
        }
    }
}

/// The evaluation batch loop behind evaluate_loss/evaluate_head_losses:
/// runs forward_eval over `indices` in chunks of `batch_size` and hands
/// each chunk's (prediction, labels, mask, rows) to `visit`.
template <typename Visit>
void for_each_eval_batch(const BoolGebraModel& model, const Dataset& ds,
                         std::span<const std::size_t> indices,
                         std::size_t batch_size, const Visit& visit) {
    BG_EXPECTS(batch_size > 0, "evaluation batch size must be positive");
    Matrix x;
    Matrix labels;
    Matrix mask;
    for (std::size_t start = 0; start < indices.size(); start += batch_size) {
        const std::size_t b = std::min(batch_size, indices.size() - start);
        make_batch(ds, indices.subspan(start, b), model.config(), x, labels,
                   mask);
        const Matrix pred = model.forward_eval(x, ds.csr(), b);
        visit(pred, labels, mask, b);
    }
}

/// Fit the input standardization on the union of the training splits.
void fit_input_stats(BoolGebraModel& model,
                     std::span<const Dataset* const> datasets,
                     const std::vector<Dataset::Split>& splits) {
    const auto f = static_cast<std::size_t>(feature_dim);
    std::vector<double> mean(f, 0.0);
    std::vector<double> var(f, 0.0);
    std::size_t rows = 0;
    for (std::size_t d = 0; d < datasets.size(); ++d) {
        for (const auto idx : splits[d].train) {
            const auto& feats = datasets[d]->samples()[idx].features;
            for (std::size_t i = 0; i < feats.size(); ++i) {
                mean[i % f] += feats[i];
            }
            rows += feats.size() / f;
        }
    }
    for (auto& m : mean) {
        m /= static_cast<double>(rows);
    }
    for (std::size_t d = 0; d < datasets.size(); ++d) {
        for (const auto idx : splits[d].train) {
            const auto& feats = datasets[d]->samples()[idx].features;
            for (std::size_t i = 0; i < feats.size(); ++i) {
                const double diff = feats[i] - mean[i % f];
                var[i % f] += diff * diff;
            }
        }
    }
    std::vector<float> mean_f(f);
    std::vector<float> std_f(f);
    for (std::size_t j = 0; j < f; ++j) {
        mean_f[j] = static_cast<float>(mean[j]);
        std_f[j] =
            static_cast<float>(std::sqrt(var[j] / static_cast<double>(rows)));
    }
    model.set_input_stats(std::move(mean_f), std::move(std_f));
}

}  // namespace

double evaluate_loss(const BoolGebraModel& model, const Dataset& ds,
                     std::span<const std::size_t> indices,
                     std::size_t batch_size) {
    if (indices.empty()) {
        return 0.0;
    }
    double total = 0.0;
    std::size_t count = 0;
    for_each_eval_batch(
        model, ds, indices, batch_size,
        [&](const Matrix& pred, const Matrix& labels, const Matrix& mask,
            std::size_t b) {
            total += nn::masked_mse_value(pred, labels, mask) *
                     static_cast<double>(b);
            count += b;
        });
    return total / static_cast<double>(count);
}

std::vector<double> evaluate_head_losses(const BoolGebraModel& model,
                                         const Dataset& ds,
                                         std::span<const std::size_t> indices,
                                         std::size_t batch_size) {
    std::vector<double> total(model.num_heads(), 0.0);
    if (indices.empty()) {
        return total;
    }
    std::vector<double> weight(model.num_heads(), 0.0);
    for_each_eval_batch(
        model, ds, indices, batch_size,
        [&](const Matrix& pred, const Matrix& labels, const Matrix& mask,
            std::size_t /*b*/) {
            // Weight each batch by its per-column *unmasked* count:
            // weighting by b would deflate a partially-labelled column (a
            // batch with no LUT measurements contributes loss 0 at full
            // weight).
            std::vector<std::size_t> counts;
            const auto losses =
                nn::masked_mse_per_column(pred, labels, mask, &counts);
            for (std::size_t h = 0; h < losses.size(); ++h) {
                total[h] += losses[h] * static_cast<double>(counts[h]);
                weight[h] += static_cast<double>(counts[h]);
            }
        });
    for (std::size_t h = 0; h < total.size(); ++h) {
        total[h] = weight[h] > 0.0 ? total[h] / weight[h] : 0.0;
    }
    return total;
}

TrainResult train_model(BoolGebraModel& model,
                        std::span<const Dataset* const> datasets,
                        const TrainConfig& cfg) {
    BG_EXPECTS(!datasets.empty(), "need at least one dataset");
    BG_EXPECTS(cfg.batch_size >= 2,
               "batch_size must be at least 2: batch norm needs two rows, "
               "so smaller batches are all skipped and nothing trains");
    BG_EXPECTS(cfg.eval_every >= 1,
               "eval_every of 0 would divide by zero at the first epoch");
    BG_EXPECTS(cfg.decay_every >= 1,
               "decay_every of 0 would divide by zero in the step decay");
    TrainResult result;

    // Per-design splits: 80% train, 20% test.
    constexpr double k_train_fraction = 0.8;
    auto& splits = result.splits;
    splits.reserve(datasets.size());
    for (std::size_t d = 0; d < datasets.size(); ++d) {
        BG_EXPECTS(datasets[d]->size() >= 2,
                   "training needs at least two samples");
        splits.push_back(
            datasets[d]->split(k_train_fraction, cfg.seed + d));
        BG_EXPECTS(!splits.back().train.empty(), "empty training split");
    }
    fit_input_stats(model, datasets, splits);

    nn::Adam opt(model.params(), cfg.lr);
    const nn::StepDecay decay{cfg.lr, cfg.decay_factor, cfg.decay_every};
    bg::Rng shuffle_rng(cfg.seed ^ 0x5EED);

    for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
        opt.set_lr(decay.at_epoch(static_cast<unsigned>(epoch)));
        double train_loss = 0.0;
        std::size_t seen = 0;
        // Round-robin over designs, shuffled per epoch (one design draws
        // nothing here).
        std::vector<std::size_t> order(datasets.size());
        for (std::size_t d = 0; d < order.size(); ++d) {
            order[d] = d;
        }
        shuffle_rng.shuffle(order);
        for (const std::size_t d : order) {
            auto& train_idx = splits[d].train;
            shuffle_rng.shuffle(train_idx);
            for (std::size_t start = 0; start < train_idx.size();
                 start += cfg.batch_size) {
                const std::size_t b =
                    std::min(cfg.batch_size, train_idx.size() - start);
                if (b < 2) {
                    break;  // batch-norm needs at least two rows
                }
                Matrix x;
                Matrix labels;
                Matrix mask;
                make_batch(*datasets[d],
                           std::span(train_idx).subspan(start, b),
                           model.config(), x, labels, mask);
                model.zero_grad();
                const Matrix pred = model.forward(x, datasets[d]->csr(), b);
                const auto loss = nn::masked_mse_loss(pred, labels, mask);
                model.backward(loss.grad);
                opt.step();
                train_loss += loss.loss * static_cast<double>(b);
                seen += b;
            }
        }
        train_loss /= static_cast<double>(std::max<std::size_t>(seen, 1));

        if (epoch % cfg.eval_every == 0 || epoch + 1 == cfg.epochs) {
            double test_loss = 0.0;
            for (std::size_t d = 0; d < datasets.size(); ++d) {
                test_loss +=
                    evaluate_loss(model, *datasets[d], splits[d].test);
            }
            test_loss /= static_cast<double>(datasets.size());
            EpochStats st;
            st.epoch = epoch;
            st.train_loss = train_loss;
            st.test_loss = test_loss;
            st.lr = opt.lr();
            result.history.push_back(st);
        }
    }
    if (!result.history.empty()) {
        result.final_train_loss = result.history.back().train_loss;
        result.final_test_loss = result.history.back().test_loss;
    }
    for (std::size_t d = 0; d < datasets.size(); ++d) {
        result.per_design_test.push_back(
            evaluate_loss(model, *datasets[d], splits[d].test));
    }
    return result;
}

TrainResult train_model(BoolGebraModel& model, const Dataset& ds,
                        const TrainConfig& cfg) {
    const Dataset* const one[] = {&ds};
    return train_model(model, one, cfg);
}

}  // namespace bg::core
