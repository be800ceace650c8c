/// \file bench_multi_head.cpp
/// Head-selected ranking vs size-as-proxy: for each design, train one
/// multi-head model (size / depth / mapped-LUT labels from the same
/// guided sample set), then run the depth- and LUT-objective flows twice
/// — once ranking with the matching head and once forced onto the size
/// head (FlowConfig::ranking_head, the PR-4 proxy behavior) — and report
/// the per-metric BG-Best ratios side by side.  The size objective is
/// included as the unchanged baseline (its two rows must be identical:
/// size ranking *is* the proxy).
///
/// Quick mode trains small models for seconds per design; --full uses the
/// paper-scale widths/epochs.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/flow.hpp"
#include "opt/objective.hpp"
#include "util/progress.hpp"

namespace {

struct Row {
    std::string design;
    std::string objective;
    double head_depth_ratio = 1.0;
    double proxy_depth_ratio = 1.0;
    double head_value_ratio = 1.0;
    double proxy_value_ratio = 1.0;
    std::string ranked_by;
};

}  // namespace

int main(int argc, char** argv) {
    const auto scale = bgbench::Scale::from_args(argc, argv);
    scale.banner("multi-head ranking vs size-as-proxy");

    const std::vector<std::string> designs = {"b07", "b09", "b10"};
    const std::vector<std::string> objectives = {"size", "depth", "luts:4"};

    bg::opt::LutMapParams lut;
    lut.k = 4;
    std::vector<Row> rows;
    for (const auto& name : designs) {
        const bg::aig::Aig design = scale.design(name);
        // One multi-head model per design, trained on all three labels.
        bg::core::ModelConfig mc = scale.model;
        mc.heads = {bg::core::MetricHead::Size, bg::core::MetricHead::Depth,
                    bg::core::MetricHead::Luts};
        bg::core::BoolGebraModel model(mc);
        bg::Stopwatch sw;
        bg::ThreadPool& pool = bgbench::pool();
        const auto records = bg::core::generate_guided_samples(
            design, scale.train_samples, 7, {}, nullptr, &lut, &pool);
        const auto ds =
            bg::core::build_dataset(design, records, {}, {}, &pool);
        const auto tr = bg::core::train_model(model, ds, scale.train);
        std::printf("%s: trained %zu-head model, test MSE %.4f (%.1fs)\n",
                    name.c_str(), model.num_heads(), tr.final_test_loss,
                    sw.seconds());

        for (const auto& spec : objectives) {
            bg::core::FlowConfig fc;
            fc.num_samples = scale.flow_samples;
            fc.top_k = scale.flow_top_k;
            fc.seed = 13;
            fc.objective = bg::opt::make_objective(spec);

            const auto by_head =
                bg::core::run_flow(design, model, fc, &pool);
            bg::core::FlowConfig proxy = fc;
            proxy.ranking_head = bg::core::MetricHead::Size;
            const auto by_proxy =
                bg::core::run_flow(design, model, proxy, &pool);

            Row row;
            row.design = name;
            row.objective = spec;
            row.ranked_by = by_head.ranked_by;
            row.head_depth_ratio = by_head.bg_best_depth_ratio;
            row.proxy_depth_ratio = by_proxy.bg_best_depth_ratio;
            row.head_value_ratio = by_head.bg_best_value_ratio;
            row.proxy_value_ratio = by_proxy.bg_best_value_ratio;
            rows.push_back(row);
        }
    }

    bg::TablePrinter table({"design", "objective", "ranked-by", "D-Best",
                            "D-Best(proxy)", "V-Best", "V-Best(proxy)"});
    for (const auto& r : rows) {
        table.add_row({r.design, r.objective, r.ranked_by,
                       bg::TablePrinter::fmt(r.head_depth_ratio),
                       bg::TablePrinter::fmt(r.proxy_depth_ratio),
                       bg::TablePrinter::fmt(r.head_value_ratio),
                       bg::TablePrinter::fmt(r.proxy_value_ratio)});
    }
    table.print();

    // Self-check: under the size objective the matching head *is* the
    // size head, so both rows must agree exactly.
    for (const auto& r : rows) {
        if (r.objective == "size" &&
            (r.head_depth_ratio != r.proxy_depth_ratio ||
             r.head_value_ratio != r.proxy_value_ratio)) {
            std::printf("FAIL: size objective diverged from its own proxy "
                        "on %s\n",
                        r.design.c_str());
            return 1;
        }
    }
    std::puts("\nself-check passed: size-objective ranking == size proxy");
    return 0;
}
