#pragma once

/// \file trainer.hpp
/// Training loop for the BoolGebra predictor: mini-batch Adam with
/// masked multi-head MSE loss and the paper's step-decay schedule;
/// records the testing-loss curve (Fig 4's series) per epoch.  Each of
/// the model's heads trains on its own label column (size / depth /
/// mapped-LUT) with a per-sample mask, so datasets missing a
/// measurement — e.g. records evaluated without LUT mapping — still
/// train every head they have labels for, and a single-size-head model
/// trains exactly as before the multi-head extension.  One loop serves
/// one design (the paper's design-specific setup) and several (the
/// cross-design extension); evaluation runs the model's const
/// forward_eval().

#include <cstdint>
#include <vector>

#include "core/dataset.hpp"
#include "core/model.hpp"

namespace bg::core {

struct TrainConfig {
    std::size_t epochs = 1500;
    std::size_t batch_size = 100;
    double lr = 8e-7;              ///< paper: Adam with lr 8e-7
    double decay_factor = 0.5;     ///< paper: x0.5 every 100 epochs
    unsigned decay_every = 100;
    std::uint64_t seed = 7;
    /// Record test loss every `eval_every` epochs (1 = every epoch).
    std::size_t eval_every = 1;

    /// The paper's hyper-parameters (expensive on CPU).
    static TrainConfig paper() { return {}; }
    /// CPU-quick settings: fewer epochs, workable learning rate (relies on
    /// the input standardization train_model fits).
    static TrainConfig quick() {
        TrainConfig c;
        c.epochs = 60;
        c.batch_size = 16;
        c.lr = 3e-3;
        c.decay_every = 25;
        c.eval_every = 2;
        return c;
    }
};

struct EpochStats {
    std::size_t epoch = 0;
    double train_loss = 0.0;
    double test_loss = 0.0;
    double lr = 0.0;
};

struct TrainResult {
    std::vector<EpochStats> history;  ///< test loss averaged over datasets
    double final_train_loss = 0.0;
    double final_test_loss = 0.0;
    /// Train / test indices, one split per dataset in dataset order
    /// (dataset d splits with cfg.seed + d).
    std::vector<Dataset::Split> splits;
    /// Final test loss per dataset, in dataset order.
    std::vector<double> per_design_test;
};

/// Train `model` on one or more designs; deterministic given the seeds in
/// the configs.  The input standardization is fitted on the union of the
/// training splits.  Every epoch walks the datasets in a shuffled order,
/// drawing same-design mini-batches (one graph per batch is a GraphSAGE
/// requirement); the recorded test loss is the average across the
/// designs' test splits.  Several designs are an extension beyond the
/// paper's single-design setup, in the direction its conclusion sketches.
/// Throws ContractViolation for a config that would train nothing or
/// divide by zero: batch_size < 2 (batch norm needs two rows, so every
/// batch would be skipped), eval_every == 0 or decay_every == 0.
TrainResult train_model(BoolGebraModel& model,
                        std::span<const Dataset* const> datasets,
                        const TrainConfig& cfg = TrainConfig::quick());

/// The one-design form: train_model over {&ds}.
TrainResult train_model(BoolGebraModel& model, const Dataset& ds,
                        const TrainConfig& cfg = TrainConfig::quick());

/// Evaluate masked MSE of `model` on the given sample indices (averaged
/// over every labelled head entry).
double evaluate_loss(const BoolGebraModel& model, const Dataset& ds,
                     std::span<const std::size_t> indices,
                     std::size_t batch_size = 64);

/// Per-head masked MSE on the given sample indices, in the model's head
/// order (0 for heads the dataset never labels).
std::vector<double> evaluate_head_losses(
    const BoolGebraModel& model, const Dataset& ds,
    std::span<const std::size_t> indices, std::size_t batch_size = 64);

}  // namespace bg::core
