/// \file test_intra_parallel_parity.cpp
/// Whole-flow pin for the intra-design parallel path: run_flow and the
/// multi-round run_design_flow with FlowConfig::intra_workers at 1/2/4 on
/// a pool of that size must reproduce the sequential, inline
/// (intra_workers = 0, no pool) result field for field on every registry
/// design — no float tolerance — under size and the depth-aware
/// objectives alike.  This is the user-visible
/// acceptance bar for the speculate/ordered-commit orchestrator:
/// parallelism is a pure latency optimization, invisible in the output.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "circuits/registry.hpp"
#include "core/flow.hpp"
#include "core/flow_engine.hpp"
#include "opt/objective.hpp"

namespace {

using namespace bg::core;  // NOLINT: test brevity

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

void expect_same_cost(const bg::opt::CostVector& got,
                      const bg::opt::CostVector& want) {
    EXPECT_EQ(got.value, want.value);
    EXPECT_EQ(got.size, want.size);
    EXPECT_EQ(got.depth, want.depth);
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
    ASSERT_EQ(got.costs.size(), want.costs.size());
    for (std::size_t i = 0; i < got.costs.size(); ++i) {
        SCOPED_TRACE("candidate " + std::to_string(i));
        expect_same_cost(got.costs[i], want.costs[i]);
    }
    expect_same_cost(got.best_cost, want.best_cost);
}

TEST(IntraParallelParity, RunFlowIdenticalAcrossIntraWorkerCounts) {
    const BoolGebraModel model{parity_model_config()};
    // Null is the default size objective; depth and weighted judge each
    // candidate's depth on the commit walk.
    for (const bg::opt::ObjectivePtr& objective :
         {bg::opt::ObjectivePtr{}, bg::opt::make_objective("depth"),
          bg::opt::make_objective("weighted:1,2")}) {
        FlowConfig base = parity_flow();
        base.objective = objective;
        const std::string objective_name = flow_objective(base).name();
        for (const auto& name : bg::circuits::benchmark_names()) {
            const auto design = bg::circuits::make_benchmark_scaled(name, 0.3);
            const FlowResult reference = run_flow(design, model, base);

            for (const std::size_t workers : {1UL, 2UL, 4UL}) {
                SCOPED_TRACE(objective_name + " " + name +
                             " intra_workers=" + std::to_string(workers));
                bg::ThreadPool pool(workers);
                FlowConfig cfg = base;
                cfg.intra_workers = workers;
                expect_bit_identical(
                    run_flow(design, model, cfg, &pool), reference);
            }
        }
    }
}

TEST(IntraParallelParity, IteratedFlowIdenticalAcrossIntraWorkerCounts) {
    const BoolGebraModel model{parity_model_config()};
    for (const auto& name : bg::circuits::benchmark_names()) {
        const DesignJob job{name,
                            bg::circuits::make_benchmark_scaled(name, 0.3)};
        const IteratedFlowResult reference =
            run_design_flow(job, model, parity_flow(), 2, nullptr).iterated;

        for (const std::size_t workers : {1UL, 2UL, 4UL}) {
            SCOPED_TRACE(name + " intra_workers=" + std::to_string(workers));
            bg::ThreadPool pool(workers);
            FlowConfig cfg = parity_flow();
            cfg.intra_workers = workers;
            const auto got =
                run_design_flow(job, model, cfg, 2, &pool).iterated;
            EXPECT_EQ(got.original_size, reference.original_size);
            EXPECT_EQ(got.final_size, reference.final_size);
            EXPECT_EQ(got.final_depth, reference.final_depth);
            EXPECT_EQ(got.per_round_reduction,
                      reference.per_round_reduction);
            EXPECT_EQ(got.final_ratio, reference.final_ratio);
        }
    }
}

TEST(IntraParallelParity, DesignFlowIdenticalWithSharedPool) {
    // The FlowEngine path: intra-parallel rounds run nested on the same
    // pool that fans jobs out across designs (nesting-safe for_each) —
    // still pinned to the sequential reference.
    const BoolGebraModel model{parity_model_config()};
    const DesignJob job{"b12",
                        bg::circuits::make_benchmark_scaled("b12", 0.3)};
    const auto reference =
        run_design_flow(job, model, parity_flow(), /*rounds=*/2, nullptr);

    bg::ThreadPool pool(4);
    FlowConfig cfg = parity_flow();
    cfg.intra_workers = 4;
    const auto got = run_design_flow(job, model, cfg, /*rounds=*/2, &pool);
    EXPECT_EQ(got.iterated.final_size, reference.iterated.final_size);
    EXPECT_EQ(got.iterated.per_round_reduction,
              reference.iterated.per_round_reduction);
    EXPECT_EQ(got.iterated.final_ratio, reference.iterated.final_ratio);
    expect_bit_identical(got.flow, reference.flow);
}

}  // namespace
