#include <gtest/gtest.h>

#include "aig/cec.hpp"
#include "circuits/registry.hpp"
#include "core/flow_engine.hpp"

namespace {

using namespace bg::core;  // NOLINT: test brevity

// Packed-layout parity suite: the storage redesign (packed NodeRef nodes,
// fanout arena, open-addressing strash) must leave every flow result
// bit-identical on every registry design at every worker count.  The
// sequential run_flow per design is the reference; the FlowEngine batch
// at 1/2/4 workers must reproduce it exactly — no float tolerance.

ModelConfig parity_model_config() {
    ModelConfig cfg;
    cfg.sage_dims = {12, 12, 8};
    cfg.mlp_dims = {16, 8, 1};
    cfg.dropout = 0.0F;
    cfg.seed = 29;
    return cfg;
}

FlowConfig parity_flow() {
    FlowConfig fc;
    fc.num_samples = 16;
    fc.top_k = 3;
    fc.seed = 5;
    return fc;
}

std::vector<DesignJob> all_registry_jobs() {
    std::vector<DesignJob> jobs;
    // Every registered design, scaled down uniformly so the whole suite
    // stays inside the smoke budget; the storage code paths (arena churn,
    // strash churn, replace cascades) are identical at any scale.
    for (const auto& name : bg::circuits::benchmark_names()) {
        jobs.push_back({name, bg::circuits::make_benchmark_scaled(name, 0.3)});
    }
    return jobs;
}

void expect_bit_identical(const FlowResult& got, const FlowResult& want) {
    EXPECT_EQ(got.original_size, want.original_size);
    EXPECT_EQ(got.predictions, want.predictions);
    EXPECT_EQ(got.selected, want.selected);
    EXPECT_EQ(got.reductions, want.reductions);
    EXPECT_EQ(got.best_reduction, want.best_reduction);
    EXPECT_EQ(got.bg_best_ratio, want.bg_best_ratio);
    EXPECT_EQ(got.bg_mean_ratio, want.bg_mean_ratio);
    EXPECT_EQ(got.best_decisions, want.best_decisions);
}

TEST(PackedParity, AllRegistryDesignsIdenticalAcrossWorkerCounts) {
    const auto jobs = all_registry_jobs();
    const BoolGebraModel model{parity_model_config()};

    std::vector<FlowResult> reference;
    for (const auto& job : jobs) {
        BoolGebraModel m(model);
        reference.push_back(run_flow(job.design, m, parity_flow()));
    }

    for (const std::size_t workers : {1UL, 2UL, 4UL}) {
        EngineConfig cfg;
        cfg.workers = workers;
        cfg.flow = parity_flow();
        FlowEngine engine(cfg);
        const auto batch = engine.run(jobs, model);
        ASSERT_EQ(batch.designs.size(), jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            SCOPED_TRACE("workers=" + std::to_string(workers) +
                         " design=" + jobs[i].name);
            expect_bit_identical(batch.designs[i].flow, reference[i]);
        }
    }
}

TEST(PackedParity, IteratedFlowsIdenticalAcrossWorkerCounts) {
    const auto jobs = all_registry_jobs();
    const BoolGebraModel model{parity_model_config()};

    std::vector<IteratedFlowResult> reference;
    for (const auto& job : jobs) {
        BoolGebraModel m(model);
        reference.push_back(
            run_design_flow(job, m, parity_flow(), 2, nullptr).iterated);
    }

    for (const std::size_t workers : {1UL, 2UL, 4UL}) {
        EngineConfig cfg;
        cfg.workers = workers;
        cfg.rounds = 2;
        cfg.flow = parity_flow();
        FlowEngine engine(cfg);
        const auto batch = engine.run(jobs, model);
        ASSERT_EQ(batch.designs.size(), jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            SCOPED_TRACE("workers=" + std::to_string(workers) +
                         " design=" + jobs[i].name);
            const auto& got = batch.designs[i].iterated;
            EXPECT_EQ(got.original_size, reference[i].original_size);
            EXPECT_EQ(got.final_size, reference[i].final_size);
            EXPECT_EQ(got.final_depth, reference[i].final_depth);
            EXPECT_EQ(got.per_round_reduction,
                      reference[i].per_round_reduction);
            EXPECT_EQ(got.final_ratio, reference[i].final_ratio);
        }
    }
}

TEST(PackedParity, RegistryGraphsAuditAndFingerprintStably) {
    // The packed storage must produce structurally identical graphs on
    // repeated deterministic construction: same fingerprint, clean audit.
    for (const auto& name : bg::circuits::benchmark_names()) {
        SCOPED_TRACE(name);
        const auto g1 = bg::circuits::make_benchmark(name);
        const auto g2 = bg::circuits::make_benchmark(name);
        g1.check_integrity();
        EXPECT_EQ(bg::aig::structural_fingerprint(g1),
                  bg::aig::structural_fingerprint(g2));
    }
}

}  // namespace
