/// \file bench_objectives.cpp
/// Table-I-style comparison of the pluggable cost models: the same
/// trained predictor drives the flow over the same designs under the
/// size, depth, mapped-LUT and weighted objectives, reporting each run's
/// per-metric ratios (size / depth / objective scalar vs the original).
/// The shapes to check: the size objective minimizes the AND-count
/// column, the depth objective never ranks a deeper candidate best, and
/// the LUT objective's scalar column tracks `lut_map` counts.  Quick mode
/// by default; `--full` / BOOLGEBRA_FULL=1 is paper scale.

#include "bench_common.hpp"
#include "core/flow.hpp"
#include "opt/objective.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
    const auto scale = bgbench::Scale::from_args(argc, argv);
    scale.banner("Objectives: size vs depth vs luts vs weighted");

    // One cross-design predictor (trained on b11, as in Table I).
    bg::Stopwatch sw;
    auto td = bgbench::train_design(scale, "b11");
    std::printf("predictor trained on b11 only (%.1fs, test MSE %.5f)\n\n",
                sw.seconds(), td.result.final_test_loss);

    const std::vector<std::string> designs = {"b07", "b09", "b10", "b11"};
    const std::vector<std::string> objectives = {"size", "depth", "luts",
                                                 "weighted:1,4"};

    bool depth_sound = true;
    for (const auto& spec : objectives) {
        const auto objective = bg::opt::make_objective(spec);
        bg::TablePrinter table({"design", "ands", "depth", "BG-Best",
                                "D-Best", "V-Best", "BG-Mean", "D-Mean",
                                "sec"});
        double sums[5] = {0, 0, 0, 0, 0};
        for (const auto& name : designs) {
            const auto design = scale.design(name);
            bg::core::FlowConfig fc;
            fc.num_samples = scale.flow_samples;
            fc.top_k = scale.flow_top_k;
            fc.seed = 0x0B7EC7;
            fc.objective = objective;
            bg::Stopwatch flow_sw;
            const auto flow =
                bg::core::run_flow(design, td.model, fc, &bgbench::pool());
            const double secs = flow_sw.seconds();

            // Internal soundness: the committed best must be
            // comparator-minimal over the evaluated candidates.
            for (const auto& cost : flow.costs) {
                if (objective->better(cost, flow.best_cost)) {
                    depth_sound = false;
                }
            }

            table.add_row({name, std::to_string(flow.original_size),
                           std::to_string(flow.original_depth),
                           bg::TablePrinter::fmt(flow.bg_best_ratio),
                           bg::TablePrinter::fmt(flow.bg_best_depth_ratio),
                           bg::TablePrinter::fmt(flow.bg_best_value_ratio),
                           bg::TablePrinter::fmt(flow.bg_mean_ratio),
                           bg::TablePrinter::fmt(flow.bg_mean_depth_ratio),
                           bg::TablePrinter::fmt(secs, 2)});
            sums[0] += flow.bg_best_ratio;
            sums[1] += flow.bg_best_depth_ratio;
            sums[2] += flow.bg_best_value_ratio;
            sums[3] += flow.bg_mean_ratio;
            sums[4] += flow.bg_mean_depth_ratio;
        }
        const auto n = static_cast<double>(designs.size());
        table.add_row({"Avg.", "-", "-", bg::TablePrinter::fmt(sums[0] / n),
                       bg::TablePrinter::fmt(sums[1] / n),
                       bg::TablePrinter::fmt(sums[2] / n),
                       bg::TablePrinter::fmt(sums[3] / n),
                       bg::TablePrinter::fmt(sums[4] / n), "-"});
        std::printf("-- objective %s --\n", objective->name().c_str());
        table.print();
        std::printf("\n");
    }

    std::printf("shape check: every objective's best candidate is "
                "comparator-minimal: %s\n",
                depth_sound ? "YES" : "NO");
    return depth_sound ? 0 : 1;
}
