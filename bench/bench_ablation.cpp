/// \file bench_ablation.cpp
/// Ablations over the design choices DESIGN.md calls out (not in the
/// paper, but motivated by it):
///   A. feature sets — static-only vs dynamic-only vs both (§III-C.1
///      argues both matter);
///   B. training data — priority-guided vs purely random sampling
///      (§III-C.1's second challenge);
///   C. flow sampling budget — how BG-Best responds to the batch size
///      (the paper fixes 600; we sweep).

#include "bench_common.hpp"
#include "core/flow_engine.hpp"
#include "opt/standalone.hpp"
#include "util/stats.hpp"

namespace {

double eval_spearman(bg::core::BoolGebraModel& model,
                     const bg::core::Dataset& eval_ds) {
    std::vector<std::size_t> all(eval_ds.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
        all[i] = i;
    }
    const auto preds = model.predict(eval_ds, all);
    std::vector<double> labels;
    for (const auto& s : eval_ds.samples()) {
        labels.push_back(s.label);
    }
    return bg::spearman(preds, labels);
}

}  // namespace

int main(int argc, char** argv) {
    const auto scale = bgbench::Scale::from_args(argc, argv);
    scale.banner("Ablations: features, sampling strategy, flow budget");
    const auto design = scale.design("b11");
    std::printf("design b11: %s\n\n", design.to_string().c_str());

    // Shared records for A and B.
    bg::ThreadPool& pool = bgbench::pool();
    const auto guided_records = bg::core::generate_guided_samples(
        design, scale.train_samples, 0xAB1A, {}, nullptr, nullptr, &pool);
    const auto random_records = bg::core::generate_random_samples(
        design, scale.train_samples, 0xAB1A, {}, nullptr, &pool);
    const auto eval_records = bg::core::generate_random_samples(
        design, std::max<std::size_t>(scale.train_samples / 2, 16), 0xEA1,
        {}, nullptr, &pool);

    // --- A: feature-set ablation ----------------------------------------
    {
        bg::TablePrinter table({"features", "test MSE", "spearman(unseen)"});
        for (const auto& [label, cfg] :
             std::vector<std::pair<std::string, bg::core::FeatureConfig>>{
                 {"static+dynamic", {true, true}},
                 {"static only", {true, false}},
                 {"dynamic only", {false, true}}}) {
            const auto ds = bg::core::build_dataset(design, guided_records,
                                                    {}, cfg, &pool);
            const auto eval_ds = bg::core::build_dataset(design, eval_records,
                                                         {}, cfg, &pool);
            bg::core::BoolGebraModel model(scale.model);
            const auto tr = bg::core::train_model(model, ds, scale.train);
            table.add_row({label,
                           bg::TablePrinter::fmt(tr.final_test_loss, 5),
                           bg::TablePrinter::fmt(
                               eval_spearman(model, eval_ds))});
        }
        std::printf("A. feature-set ablation (trained on guided samples)\n");
        table.print();
    }

    // --- B: guided vs random training data -------------------------------
    {
        bg::TablePrinter table({"training data", "best red. in set",
                                "test MSE", "spearman(unseen)"});
        const auto eval_ds =
            bg::core::build_dataset(design, eval_records, {}, {}, &pool);
        for (const auto& [label, records] :
             std::vector<std::pair<std::string,
                                   const std::vector<bg::core::SampleRecord>*>>{
                 {"priority-guided", &guided_records},
                 {"purely random", &random_records}}) {
            const auto ds =
                bg::core::build_dataset(design, *records, {}, {}, &pool);
            bg::core::BoolGebraModel model(scale.model);
            const auto tr = bg::core::train_model(model, ds, scale.train);
            table.add_row({label, std::to_string(ds.best_reduction()),
                           bg::TablePrinter::fmt(tr.final_test_loss, 5),
                           bg::TablePrinter::fmt(
                               eval_spearman(model, eval_ds))});
        }
        std::printf("\nB. training-data ablation\n");
        table.print();
    }

    // --- C: flow sampling-budget sweep -----------------------------------
    {
        const auto ds =
            bg::core::build_dataset(design, guided_records, {}, {}, &pool);
        bg::core::BoolGebraModel model(scale.model);
        (void)bg::core::train_model(model, ds, scale.train);
        bg::TablePrinter table({"flow samples", "BG-Mean ratio",
                                "BG-Best ratio", "best reduction"});
        for (const std::size_t budget :
             {scale.flow_samples / 4, scale.flow_samples / 2,
              scale.flow_samples}) {
            bg::core::FlowConfig fc;
            fc.num_samples = std::max<std::size_t>(budget, 12);
            fc.top_k = scale.flow_top_k;
            fc.seed = 0xC0FFEE;
            const auto res =
                bg::core::run_flow(design, model, fc, &pool);
            table.add_row({std::to_string(fc.num_samples),
                           bg::TablePrinter::fmt(res.bg_mean_ratio),
                           bg::TablePrinter::fmt(res.bg_best_ratio),
                           std::to_string(res.best_reduction)});
        }
        std::printf("\nC. flow sampling-budget sweep\n");
        table.print();
    }

    // --- D: optimization-window parameter sweep ---------------------------
    {
        bg::TablePrinter table({"params", "rw red.", "rs red.", "rf red."});
        struct Setting {
            std::string label;
            bg::opt::OptParams p;
        };
        std::vector<Setting> settings;
        settings.push_back({"defaults", {}});
        settings.push_back({"small windows", {}});
        settings.back().p.rewrite_cut_size = 3;
        settings.back().p.refactor_max_leaves = 6;
        settings.back().p.resub_max_leaves = 5;
        settings.push_back({"large windows", {}});
        settings.back().p.refactor_max_leaves = 12;
        settings.back().p.resub_max_leaves = 10;
        settings.back().p.resub_max_divisors = 64;
        settings.push_back({"zero-gain", {}});
        settings.back().p.allow_zero_gain = true;
        for (const auto& s : settings) {
            std::vector<std::string> row{s.label};
            for (const auto op :
                 {bg::opt::OpKind::Rewrite, bg::opt::OpKind::Resub,
                  bg::opt::OpKind::Refactor}) {
                auto g = design;
                const auto res = bg::opt::standalone_pass(g, op, s.p);
                row.push_back(std::to_string(res.reduction()));
            }
            table.add_row(row);
        }
        std::printf("\nD. optimization-window parameter sweep "
                    "(stand-alone pass reductions on b11)\n");
        table.print();
    }

    // --- E: iterated flow (extension: commit best candidate, repeat) -----
    {
        const auto ds =
            bg::core::build_dataset(design, guided_records, {}, {}, &pool);
        bg::core::BoolGebraModel model(scale.model);
        (void)bg::core::train_model(model, ds, scale.train);
        bg::core::FlowConfig fc;
        fc.num_samples = scale.flow_samples / 2;
        fc.top_k = scale.flow_top_k;
        fc.seed = 0x17E7;
        bg::TablePrinter table(
            {"max rounds", "rounds run", "final ratio", "total reduction"});
        for (const std::size_t rounds : {1UL, 2UL, 4UL}) {
            // One round is the paper's single-shot flow: nothing is
            // committed and the final ratio is BG-Best.
            const auto res = bg::core::run_design_flow({"b11", design}, model,
                                                       fc, rounds, &pool)
                                 .iterated;
            int total = 0;
            for (const int r : res.per_round_reduction) {
                total += r;
            }
            table.add_row({std::to_string(rounds),
                           std::to_string(res.rounds()),
                           bg::TablePrinter::fmt(res.final_ratio),
                           std::to_string(total)});
        }
        std::printf("\nE. iterated flow (multi-round BoolGebra, an "
                    "extension beyond the paper's single-shot flow)\n");
        table.print();
    }
    return 0;
}
