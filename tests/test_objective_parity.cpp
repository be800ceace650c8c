#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <numeric>

#include "circuits/registry.hpp"
#include "core/dataset.hpp"
#include "core/flow.hpp"
#include "core/flow_engine.hpp"
#include "core/trainer.hpp"
#include "io/aiger.hpp"
#include "opt/objective.hpp"
#include "test_helpers.hpp"

/// \file test_objective_parity.cpp
/// The redesign's hard guarantee: with the default SizeObjective the flow
/// selects the same candidates, reports the same ratios and commits the
/// same graphs as the pre-objective code, bit for bit, at any worker
/// count.  The reference selection below re-implements the pre-redesign
/// step 3 (evaluate the top-k, keep the first max-reduction candidate,
/// average the size ratios) so any divergence in the generic
/// comparator-based path fails here.

namespace {

using namespace bg::core;  // NOLINT: test brevity
using bg::aig::Aig;
using bg::opt::OpKind;

ModelConfig tiny_config() {
    ModelConfig cfg;
    cfg.sage_dims = {12, 12, 8};
    cfg.mlp_dims = {16, 8, 1};
    cfg.dropout = 0.0F;
    cfg.seed = 21;
    return cfg;
}

FlowConfig flow_config() {
    FlowConfig fc;
    fc.num_samples = 30;
    fc.top_k = 6;
    fc.seed = 77;
    return fc;
}

void expect_flow_equal(const FlowResult& a, const FlowResult& b) {
    EXPECT_EQ(a.original_size, b.original_size);
    EXPECT_EQ(a.samples_evaluated, b.samples_evaluated);
    EXPECT_EQ(a.predictions, b.predictions);
    EXPECT_EQ(a.selected, b.selected);
    EXPECT_EQ(a.reductions, b.reductions);
    EXPECT_EQ(a.best_reduction, b.best_reduction);
    EXPECT_EQ(a.mean_reduction, b.mean_reduction);
    EXPECT_EQ(a.bg_best_ratio, b.bg_best_ratio);
    EXPECT_EQ(a.bg_mean_ratio, b.bg_mean_ratio);
    EXPECT_EQ(a.best_decisions, b.best_decisions);
}

TEST(SizeParity, NullAndExplicitSizeObjectiveAreIdentical) {
    const Aig g = bg::circuits::make_benchmark_scaled("b10", 0.4);
    const BoolGebraModel model(tiny_config());
    FlowConfig defaulted = flow_config();
    FlowConfig explicit_size = flow_config();
    explicit_size.objective = bg::opt::make_objective("size");
    const auto ra = run_flow(g, model, defaulted);
    const auto rb = run_flow(g, model, explicit_size);
    expect_flow_equal(ra, rb);
    EXPECT_EQ(ra.objective, "size");
    EXPECT_EQ(rb.objective, "size");
}

TEST(SizeParity, FlowMatchesPreRedesignReferenceSelection) {
    const Aig g = bg::circuits::make_benchmark_scaled("b10", 0.4);
    const BoolGebraModel model(tiny_config());
    const FlowConfig fc = flow_config();
    const auto res = run_flow(g, model, fc);

    // Reference: regenerate the same sample batch, rank by the reported
    // predictions and redo the pre-redesign evaluation/selection.
    const auto st = compute_static_features(g, fc.opt);
    const auto decisions =
        generate_decisions(g, fc.num_samples, fc.guided, fc.seed, st);
    ASSERT_EQ(res.predictions.size(), decisions.size());
    std::vector<std::size_t> order(decisions.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return res.predictions[a] < res.predictions[b];
                     });
    const std::size_t k = std::min(fc.top_k, order.size());
    const std::vector<std::size_t> selected(
        order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k));
    EXPECT_EQ(res.selected, selected);

    int best_reduction = 0;
    bg::opt::DecisionVector best_decisions;
    std::vector<int> reductions;
    double sum_ratio = 0.0;
    double sum_reduction = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
        const auto rec =
            evaluate_decisions(g, decisions[selected[i]], fc.opt);
        reductions.push_back(rec.reduction);
        if (rec.reduction > best_reduction || best_decisions.empty()) {
            best_reduction = std::max(best_reduction, rec.reduction);
            best_decisions = decisions[selected[i]];
        }
        sum_reduction += rec.reduction;
        sum_ratio += static_cast<double>(rec.final_size) /
                     static_cast<double>(g.num_ands());
    }
    EXPECT_EQ(res.reductions, reductions);
    EXPECT_EQ(res.best_reduction, best_reduction);
    EXPECT_EQ(res.best_decisions, best_decisions);
    EXPECT_EQ(res.mean_reduction,
              sum_reduction / static_cast<double>(k));
    EXPECT_EQ(res.bg_mean_ratio, sum_ratio / static_cast<double>(k));
    EXPECT_EQ(res.bg_best_ratio,
              static_cast<double>(static_cast<int>(g.num_ands()) -
                                  best_reduction) /
                  static_cast<double>(g.num_ands()));
}

TEST(SizeParity, IteratedFlowCommitsIdenticalGraphs) {
    const Aig g = bg::circuits::make_benchmark_scaled("b10", 0.4);
    const BoolGebraModel model(tiny_config());
    FlowConfig defaulted = flow_config();
    FlowConfig explicit_size = flow_config();
    explicit_size.objective = bg::opt::make_objective("size");

    const DesignJob job{"b10", g};
    JobControl control;
    control.want_graph = true;
    const auto full =
        run_design_flow(job, model, defaulted, 3, nullptr, nullptr, &control);
    const auto& ra = full.iterated;
    const auto rb =
        run_design_flow(job, model, explicit_size, 3, nullptr).iterated;
    EXPECT_EQ(ra.original_size, rb.original_size);
    EXPECT_EQ(ra.final_size, rb.final_size);
    EXPECT_EQ(ra.per_round_reduction, rb.per_round_reduction);
    EXPECT_EQ(ra.final_ratio, rb.final_ratio);
    EXPECT_EQ(ra.final_depth, rb.final_depth);

    // Reference: the committed graph equals a manual commit loop using
    // the pre-redesign stopping rule (best_reduction <= 0).
    Aig current = g;
    FlowConfig round_cfg = flow_config();
    std::vector<int> rounds_ref;
    for (std::size_t round = 0; round < 3; ++round) {
        round_cfg.seed = flow_config().seed + round;
        const auto flow = run_flow(current, model, round_cfg);
        if (flow.best_reduction <= 0 || flow.best_decisions.empty()) {
            break;
        }
        auto d = flow.best_decisions;
        (void)bg::opt::orchestrate(current, d, round_cfg.opt);
        current = current.compact();
        rounds_ref.push_back(flow.best_reduction);
    }
    EXPECT_EQ(ra.per_round_reduction, rounds_ref);
    EXPECT_EQ(ra.final_size, current.num_ands());
    EXPECT_EQ(current.depth(), ra.final_depth);
    // The returned graph is the committed one, byte for byte.
    ASSERT_NE(full.final_graph, nullptr);
    EXPECT_EQ(bg::io::write_aiger_binary_string(*full.final_graph),
              bg::io::write_aiger_binary_string(current));
}

TEST(SizeParity, EngineBatchIdenticalAcrossWorkersAndObjectiveSpelling) {
    const BoolGebraModel model(tiny_config());
    const auto jobs = jobs_from_specs({"b07", "b10"}, false, 0.3);

    BatchFlowResult reference;
    for (const std::size_t workers : {1UL, 2UL, 4UL}) {
        for (const bool explicit_size : {false, true}) {
            EngineConfig cfg;
            cfg.workers = workers;
            cfg.rounds = 2;
            cfg.flow = flow_config();
            if (explicit_size) {
                cfg.flow.objective = bg::opt::make_objective("size");
            }
            FlowEngine engine(cfg);
            const auto batch = engine.run(jobs, model);
            ASSERT_EQ(batch.designs.size(), jobs.size());
            EXPECT_EQ(batch.objective, "size");
            if (reference.designs.empty()) {
                reference = batch;
                continue;
            }
            EXPECT_EQ(batch.avg_bg_best_ratio, reference.avg_bg_best_ratio);
            EXPECT_EQ(batch.avg_bg_mean_ratio, reference.avg_bg_mean_ratio);
            EXPECT_EQ(batch.avg_final_ratio, reference.avg_final_ratio);
            for (std::size_t j = 0; j < jobs.size(); ++j) {
                expect_flow_equal(batch.designs[j].flow,
                                  reference.designs[j].flow);
                EXPECT_EQ(batch.designs[j].iterated.final_size,
                          reference.designs[j].iterated.final_size);
                EXPECT_EQ(batch.designs[j].iterated.per_round_reduction,
                          reference.designs[j].iterated.per_round_reduction);
            }
        }
    }
}

TEST(SizeParity, V1CheckpointFlowsBitIdenticalAtAnyWorkerCount) {
    // The multi-head redesign's guarantee: a legacy v1 single-head
    // checkpoint still ranks with the raw size column, so size-objective
    // flows reproduce the in-memory model's results — the PR-4 behavior —
    // bit for bit, sequentially and through the engine at any worker
    // count.
    const Aig g = bg::circuits::make_benchmark_scaled("b10", 0.4);
    BoolGebraModel trained(tiny_config());
    {
        const auto records = generate_guided_samples(g, 24, 13);
        const Dataset ds = build_dataset(g, records);
        TrainConfig tc = TrainConfig::quick();
        tc.epochs = 8;
        (void)train_model(trained, ds, tc);  // also fits the input stats
    }
    const auto path = std::filesystem::temp_directory_path() /
                      "bg_parity_v1_checkpoint.bin";
    trained.save(path);
    const BoolGebraModel loaded = load_checkpoint(path, tiny_config());
    EXPECT_EQ(loaded.num_heads(), 1u);

    const FlowConfig fc = flow_config();
    const auto direct = run_flow(g, trained, fc);
    const auto via_file = run_flow(g, loaded, fc);
    expect_flow_equal(direct, via_file);
    EXPECT_EQ(direct.ranked_by, "size");
    EXPECT_EQ(via_file.ranked_by, "size");

    const auto jobs = jobs_from_specs({"b07", "b10"}, false, 0.3);
    BatchFlowResult reference;
    for (const std::size_t workers : {1UL, 2UL, 4UL}) {
        EngineConfig cfg;
        cfg.workers = workers;
        cfg.rounds = 2;
        cfg.flow = flow_config();
        FlowEngine engine(cfg);
        const auto batch = engine.run(jobs, loaded);
        EXPECT_EQ(batch.ranked_by, "size");
        if (reference.designs.empty()) {
            // Worker-count-1 run with the *in-memory* model is the pin.
            EngineConfig ref_cfg = cfg;
            ref_cfg.workers = 1;
            FlowEngine ref_engine(ref_cfg);
            reference = ref_engine.run(jobs, trained);
        }
        ASSERT_EQ(batch.designs.size(), reference.designs.size());
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            expect_flow_equal(batch.designs[j].flow,
                              reference.designs[j].flow);
            EXPECT_EQ(batch.designs[j].iterated.final_size,
                      reference.designs[j].iterated.final_size);
        }
    }
    std::filesystem::remove(path);
}

TEST(SizeParity, OrchestrateDefaultEqualsExplicitSizeObjective) {
    for (const std::uint64_t seed : {5ULL, 9ULL}) {
        Aig g1 = bg::test::redundant_aig(8, 40, 4, seed);
        Aig g2 = g1;
        const auto d = bg::opt::uniform_decisions(g1, OpKind::Rewrite);
        const auto r1 = bg::opt::orchestrate(g1, d);
        const auto r2 =
            bg::opt::orchestrate(g2, d, {}, bg::opt::SizeObjective{});
        EXPECT_EQ(r1.final_size, r2.final_size);
        EXPECT_EQ(r1.applied, r2.applied);
        EXPECT_EQ(r1.num_applied, r2.num_applied);
        EXPECT_EQ(r2.num_rejected, 0u)
            << "size objective must accept every applicable candidate";
        EXPECT_EQ(g1.to_string(), g2.to_string());
    }
}

}  // namespace
