#pragma once

/// Shared scaffolding for the experiment harnesses.  Every harness runs in
/// *quick* mode by default (CPU-friendly sizes, minutes for the full
/// suite) and in *paper-scale* mode with `--full` or BOOLGEBRA_FULL=1
/// (the paper's 6000 samples / 600 training samples / 1500 epochs /
/// 512-wide model; hours on CPU).

#include <cstdio>
#include <string>
#include <vector>

#include "circuits/registry.hpp"
#include "core/dataset.hpp"
#include "core/model.hpp"
#include "core/sampling.hpp"
#include "core/trainer.hpp"
#include "util/parallel.hpp"
#include "util/progress.hpp"

namespace bgbench {

/// The harness's one worker pool (default size).  Sample generation,
/// dataset features and flows all run on it, so a harness uses at most
/// that many compute threads.
inline bg::ThreadPool& pool() {
    static bg::ThreadPool shared;
    return shared;
}

struct Scale {
    bool full = false;
    double design_scale = 0.25;      ///< fraction of the paper's AIG sizes
    std::size_t fig2_samples = 100;  ///< paper: 6000
    std::size_t train_samples = 64;  ///< paper: 600
    std::size_t flow_samples = 100;  ///< paper: 600
    std::size_t flow_top_k = 10;     ///< paper: 10
    bg::core::ModelConfig model;
    bg::core::TrainConfig train;

    static Scale from_args(int argc, char** argv) {
        Scale s;
        s.full = bg::full_scale_requested(argc, argv);
        if (s.full) {
            s.design_scale = 1.0;
            s.fig2_samples = 6000;
            s.train_samples = 600;
            s.flow_samples = 600;
            s.model = bg::core::ModelConfig::paper();
            s.train = bg::core::TrainConfig::paper();
        } else {
            s.model = bg::core::ModelConfig::quick();
            s.model.sage_dims = {32, 32, 16};
            s.model.mlp_dims = {32, 16, 1};
            s.train = bg::core::TrainConfig::quick();
            s.train.epochs = 60;
            s.train.batch_size = 16;
            s.train.lr = 3e-3;
            s.train.decay_every = 25;
            s.train.eval_every = 6;
        }
        return s;
    }

    void banner(const char* experiment) const {
        std::printf("== %s ==\n", experiment);
        std::printf("mode: %s (design scale %.2f, %zu train samples, "
                    "%zu epochs)%s\n\n",
                    full ? "PAPER-SCALE" : "quick", design_scale,
                    train_samples, train.epochs,
                    full ? "" : "   [--full or BOOLGEBRA_FULL=1 for "
                                "paper-scale]");
    }

    bg::aig::Aig design(const std::string& name) const {
        return full ? bg::circuits::make_benchmark(name)
                    : bg::circuits::make_benchmark_scaled(name, design_scale);
    }
};

/// Guided-sample dataset + trained model for one design.
struct TrainedDesign {
    bg::aig::Aig design;
    bg::core::Dataset dataset;
    bg::core::BoolGebraModel model;
    bg::core::TrainResult result;
};

inline TrainedDesign train_design(const Scale& s, const std::string& name,
                                  std::uint64_t sample_seed = 7) {
    TrainedDesign td{s.design(name), {}, bg::core::BoolGebraModel(s.model),
                     {}};
    const auto records = bg::core::generate_guided_samples(
        td.design, s.train_samples, sample_seed, {}, nullptr, nullptr,
        &pool());
    td.dataset = bg::core::build_dataset(td.design, records, {}, {}, &pool());
    td.result = bg::core::train_model(td.model, td.dataset, s.train);
    return td;
}

}  // namespace bgbench
