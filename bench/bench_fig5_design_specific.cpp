/// \file bench_fig5_design_specific.cpp
/// Reproduces Figure 5: design-specific inference — predicted vs actual
/// normalized QoR on *unseen* randomly sampled decision vectors, per
/// design.  The paper's observations to check:
///  * b11 / b12 / c5315 correlate well;
///  * tiny designs (b07, b10) have discrete labels and weaker fits.

#include "bench_common.hpp"
#include "util/stats.hpp"

#include <cmath>
#include <set>

int main(int argc, char** argv) {
    const auto scale = bgbench::Scale::from_args(argc, argv);
    scale.banner(
        "Figure 5: design-specific predicted-vs-actual correlation");

    const std::vector<std::string> designs = {"b07", "b10", "b12",
                                              "b11", "c2670", "c5315"};
    bg::TablePrinter table({"design", "nodes", "labels", "pearson",
                            "spearman", "test MSE"});
    double corr_sum = 0.0;
    for (const auto& name : designs) {
        auto td = bgbench::train_design(scale, name);

        // Unseen evaluation set: fresh random decision vectors.
        const auto eval_records = bg::core::generate_random_samples(
            td.design, std::max<std::size_t>(scale.train_samples / 2, 16),
            0xEF'A1, {}, nullptr, &bgbench::pool());
        const auto eval_ds = bg::core::build_dataset(
            td.design, eval_records, {}, {}, &bgbench::pool());
        std::vector<std::size_t> all(eval_ds.size());
        for (std::size_t i = 0; i < all.size(); ++i) {
            all[i] = i;
        }
        const auto preds = td.model.predict(eval_ds, all);
        std::vector<double> labels;
        std::set<long> distinct;
        for (const auto& s : eval_ds.samples()) {
            labels.push_back(s.label);
            distinct.insert(std::lround(s.label * 1e6));
        }
        const double pr = bg::pearson(preds, labels);
        const double sr = bg::spearman(preds, labels);
        corr_sum += sr;
        table.add_row({name, std::to_string(td.design.num_ands()),
                       std::to_string(distinct.size()),
                       bg::TablePrinter::fmt(pr),
                       bg::TablePrinter::fmt(sr),
                       bg::TablePrinter::fmt(td.result.final_test_loss, 5)});
    }
    table.print();
    const double avg = corr_sum / static_cast<double>(designs.size());
    std::printf("\naverage spearman over designs: %.3f\n", avg);
    std::printf("shape check (paper): predictions correlate positively with "
                "ground truth on unseen samples: %s\n",
                avg > 0.0 ? "YES" : "NO");
    return avg > 0.0 ? 0 : 1;
}
