/// \file bench_fig6_cross_design.cpp
/// Reproduces Figure 6: cross-design inference — a model trained on one
/// design predicts QoR on a *different* design (9 combinations of
/// training designs {b11, c2670, c5315} and testing designs
/// {b11, b12, c2670, c5315}).  The shape to check: correlations remain
/// positive across designs (the model generalizes), with b11 the
/// strongest training design.

#include "bench_common.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
    const auto scale = bgbench::Scale::from_args(argc, argv);
    scale.banner("Figure 6: cross-design inference correlation");

    const std::vector<std::string> train_designs = {"b11", "c2670", "c5315"};
    const std::vector<std::string> test_designs = {"b11", "b12", "c2670",
                                                   "c5315"};

    // Pre-build evaluation sets once per test design.
    struct EvalSet {
        bg::core::Dataset ds;
        std::vector<double> labels;
    };
    std::vector<EvalSet> evals;
    for (const auto& name : test_designs) {
        const auto design = scale.design(name);
        const auto records = bg::core::generate_random_samples(
            design, std::max<std::size_t>(scale.train_samples / 2, 16),
            0xF16'6, {}, nullptr, &bgbench::pool());
        EvalSet e{bg::core::build_dataset(design, records, {}, {},
                                          &bgbench::pool()),
                  {}};
        for (const auto& s : e.ds.samples()) {
            e.labels.push_back(s.label);
        }
        evals.push_back(std::move(e));
    }

    bg::TablePrinter table({"train \\ test", "b11", "b12", "c2670",
                            "c5315"});
    double sum = 0.0;
    std::size_t combos = 0;
    double b11_sum = 0.0;
    for (const auto& tname : train_designs) {
        auto td = bgbench::train_design(scale, tname);
        std::vector<std::string> row{tname};
        for (std::size_t t = 0; t < test_designs.size(); ++t) {
            if (test_designs[t] == tname) {
                row.push_back("(self)");
                continue;
            }
            std::vector<std::size_t> all(evals[t].ds.size());
            for (std::size_t i = 0; i < all.size(); ++i) {
                all[i] = i;
            }
            const auto preds = td.model.predict(evals[t].ds, all);
            const double sr = bg::spearman(preds, evals[t].labels);
            row.push_back(bg::TablePrinter::fmt(sr));
            sum += sr;
            ++combos;
            if (tname == "b11") {
                b11_sum += sr;
            }
        }
        table.add_row(row);
    }
    std::printf("spearman(prediction, ground truth) on unseen random "
                "samples of the TEST design:\n\n");
    table.print();
    const double avg = sum / static_cast<double>(combos);
    std::printf("\naverage cross-design spearman: %.3f (b11-trained avg: "
                "%.3f)\n",
                avg, b11_sum / 3.0);
    std::printf("shape check (paper): cross-design correlations stay "
                "positive (generalization): %s\n",
                avg > 0.0 ? "YES" : "NO");
    return avg > 0.0 ? 0 : 1;
}
