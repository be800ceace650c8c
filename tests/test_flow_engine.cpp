#include <gtest/gtest.h>

#include "circuits/registry.hpp"
#include "core/flow_engine.hpp"
#include "io/aiger.hpp"
#include "util/glob.hpp"

namespace {

using namespace bg::core;  // NOLINT: test brevity

ModelConfig tiny_config() {
    ModelConfig cfg;
    cfg.sage_dims = {12, 12, 8};
    cfg.mlp_dims = {16, 8, 1};
    cfg.dropout = 0.0F;
    cfg.seed = 21;
    return cfg;
}

FlowConfig tiny_flow() {
    FlowConfig fc;
    fc.num_samples = 24;
    fc.top_k = 4;
    fc.seed = 11;
    return fc;
}

std::vector<DesignJob> tiny_jobs() {
    std::vector<DesignJob> jobs;
    for (const char* name : {"b07", "b09", "b10"}) {
        jobs.push_back({name, bg::circuits::make_benchmark_scaled(name, 0.3)});
    }
    return jobs;
}

void expect_same_flow(const FlowResult& got, const FlowResult& want) {
    EXPECT_EQ(got.original_size, want.original_size);
    EXPECT_EQ(got.predictions, want.predictions);
    EXPECT_EQ(got.selected, want.selected);
    EXPECT_EQ(got.reductions, want.reductions);
    EXPECT_EQ(got.best_reduction, want.best_reduction);
    EXPECT_EQ(got.bg_best_ratio, want.bg_best_ratio);
    EXPECT_EQ(got.bg_mean_ratio, want.bg_mean_ratio);
    EXPECT_EQ(got.best_decisions, want.best_decisions);
}

TEST(FlowEngine, BatchedMatchesSequentialAtEveryWorkerCount) {
    const auto jobs = tiny_jobs();
    const BoolGebraModel model{tiny_config()};

    // Sequential reference, one plain run_flow per design.
    std::vector<FlowResult> reference;
    for (const auto& job : jobs) {
        BoolGebraModel m(model);
        reference.push_back(run_flow(job.design, m, tiny_flow()));
    }

    for (const std::size_t workers : {1UL, 2UL, 8UL}) {
        EngineConfig cfg;
        cfg.workers = workers;
        cfg.flow = tiny_flow();
        FlowEngine engine(cfg);
        const auto batch = engine.run(jobs, model);
        ASSERT_EQ(batch.designs.size(), jobs.size()) << workers;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            SCOPED_TRACE("workers=" + std::to_string(workers) + " design=" +
                         jobs[i].name);
            EXPECT_EQ(batch.designs[i].name, jobs[i].name);
            expect_same_flow(batch.designs[i].flow, reference[i]);
        }
    }
}

TEST(FlowEngine, RepeatedRunsAreIdentical) {
    const auto jobs = tiny_jobs();
    const BoolGebraModel model{tiny_config()};
    EngineConfig cfg;
    cfg.workers = 4;
    cfg.flow = tiny_flow();
    FlowEngine engine(cfg);
    const auto a = engine.run(jobs, model);
    const auto b = engine.run(jobs, model);  // pool reuse across batches
    ASSERT_EQ(a.designs.size(), b.designs.size());
    for (std::size_t i = 0; i < a.designs.size(); ++i) {
        SCOPED_TRACE(a.designs[i].name);
        expect_same_flow(a.designs[i].flow, b.designs[i].flow);
        EXPECT_EQ(a.designs[i].iterated.final_size,
                  b.designs[i].iterated.final_size);
    }
}

TEST(FlowEngine, IteratedRoundsMatchInlineDesignFlow) {
    const auto jobs = tiny_jobs();
    const BoolGebraModel model{tiny_config()};
    EngineConfig cfg;
    cfg.workers = 2;
    cfg.rounds = 3;
    cfg.flow = tiny_flow();
    FlowEngine engine(cfg);
    const auto batch = engine.run(jobs, model);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(jobs[i].name);
        BoolGebraModel m(model);
        const auto want =
            run_design_flow(jobs[i], m, cfg.flow, cfg.rounds, nullptr)
                .iterated;
        const auto& got = batch.designs[i].iterated;
        EXPECT_EQ(got.original_size, want.original_size);
        EXPECT_EQ(got.final_size, want.final_size);
        EXPECT_EQ(got.per_round_reduction, want.per_round_reduction);
        EXPECT_EQ(got.final_ratio, want.final_ratio);
    }
}

TEST(FlowEngine, SingleShotFinalRatioIsBgBest) {
    const auto jobs = tiny_jobs();
    const BoolGebraModel model{tiny_config()};
    EngineConfig cfg;
    cfg.flow = tiny_flow();
    FlowEngine engine(cfg);
    const auto batch = engine.run(jobs, model);
    for (const auto& d : batch.designs) {
        SCOPED_TRACE(d.name);
        EXPECT_EQ(d.iterated.final_ratio, d.flow.bg_best_ratio);
        EXPECT_EQ(d.samples_run, cfg.flow.num_samples);
    }
}

TEST(FlowEngine, SingleRoundGraphIsTheReportedCandidate) {
    // Under `luts` the LUT-best candidate can fail to beat the input while
    // still shrinking the AND count.  A single round reports that
    // candidate in final_*, so the returned graph must be that candidate
    // too, not the input design.
    const DesignJob job{"c2670",
                        bg::circuits::make_benchmark_scaled("c2670", 0.2)};
    const BoolGebraModel model{ModelConfig::quick()};
    FlowConfig fc;
    fc.num_samples = 16;
    fc.top_k = 4;
    fc.seed = 1;
    fc.objective = bg::opt::make_objective("luts");
    JobControl control;
    control.want_graph = true;
    const auto res =
        run_design_flow(job, model, fc, 1, nullptr, nullptr, &control);
    // The case at stake: an unproductive round whose candidate is smaller.
    EXPECT_TRUE(res.iterated.per_round_reduction.empty());
    EXPECT_LT(res.iterated.final_size, job.design.num_ands());
    ASSERT_NE(res.final_graph, nullptr);
    EXPECT_EQ(res.final_graph->num_ands(), res.iterated.final_size);
    EXPECT_EQ(res.final_graph->depth(), res.iterated.final_depth);
    // The very graph run_flow kept, not a re-run of its decisions.
    EXPECT_EQ(res.final_graph.get(), res.flow.best_graph.get());
}

TEST(FlowEngine, AggregatesAreMeansOfPerDesignRatios) {
    const auto jobs = tiny_jobs();
    const BoolGebraModel model{tiny_config()};
    EngineConfig cfg;
    cfg.workers = 2;
    cfg.flow = tiny_flow();
    FlowEngine engine(cfg);
    const auto batch = engine.run(jobs, model);

    double best = 0.0;
    double mean = 0.0;
    std::size_t samples = 0;
    for (const auto& d : batch.designs) {
        best += d.flow.bg_best_ratio;
        mean += d.flow.bg_mean_ratio;
        samples += d.samples_run;
    }
    const auto n = static_cast<double>(batch.designs.size());
    EXPECT_DOUBLE_EQ(batch.avg_bg_best_ratio, best / n);
    EXPECT_DOUBLE_EQ(batch.avg_bg_mean_ratio, mean / n);
    EXPECT_EQ(batch.total_samples, samples);
    EXPECT_GT(batch.total_seconds, 0.0);
    EXPECT_GT(batch.designs_per_second, 0.0);
    EXPECT_GT(batch.samples_per_second, 0.0);
}

TEST(FlowEngine, EmptyBatchYieldsNeutralAggregates) {
    const BoolGebraModel model{tiny_config()};
    FlowEngine engine;
    const auto batch = engine.run({}, model);
    EXPECT_TRUE(batch.designs.empty());
    EXPECT_EQ(batch.avg_bg_best_ratio, 1.0);
    EXPECT_EQ(batch.avg_bg_mean_ratio, 1.0);
    EXPECT_EQ(batch.total_samples, 0u);
}

TEST(FlowEngineHelpers, JobsFromRegistryBuildsScaledDesigns) {
    const std::vector<std::string> names = {"b07", "b10"};
    const auto full = jobs_from_registry(names);
    const auto scaled = jobs_from_registry(names, 0.3);
    ASSERT_EQ(full.size(), 2u);
    ASSERT_EQ(scaled.size(), 2u);
    EXPECT_EQ(full[0].name, "b07");
    EXPECT_GT(full[0].design.num_ands(), scaled[0].design.num_ands());
    const std::vector<std::string> unknown = {"no_such_design"};
    EXPECT_THROW((void)jobs_from_registry(unknown), std::out_of_range);
}

TEST(FlowEngine, SamplesRunCountsOnlyExecutedRounds) {
    // Iterated flow with a generous round budget: the round driver must
    // report the decision vectors actually scored (executed rounds,
    // including the final unproductive one), not rounds * num_samples.
    const DesignJob job = {"b09",
                          bg::circuits::make_benchmark_scaled("b09", 0.3)};
    const BoolGebraModel model{tiny_config()};
    constexpr std::size_t kRounds = 10;
    const FlowConfig flow = tiny_flow();
    bg::ThreadPool pool(2);
    const auto res = run_design_flow(job, model, flow, kRounds, &pool);

    // The flow stops committing long before the budget on this tiny
    // design; the early-break round still ran (and is still counted).
    ASSERT_LT(res.iterated.rounds(), kRounds);
    const std::size_t executed = res.iterated.rounds() + 1;
    EXPECT_EQ(res.samples_run, executed * flow.num_samples);
    EXPECT_LT(res.samples_run, kRounds * flow.num_samples);
    EXPECT_EQ(res.flow.samples_evaluated, flow.num_samples);
}

TEST(FlowEngineHelpers, ScaledGeneratorIsIdentityAtScaleOne) {
    // jobs_from_registry routes every scale through make_benchmark_scaled;
    // that is only sound if scale 1.0 reproduces make_benchmark exactly.
    for (const auto& name : bg::circuits::benchmark_names()) {
        SCOPED_TRACE(name);
        const auto direct = bg::circuits::make_benchmark(name);
        const auto scaled = bg::circuits::make_benchmark_scaled(name, 1.0);
        EXPECT_EQ(bg::io::write_aiger_string(direct),
                  bg::io::write_aiger_string(scaled));
    }
    const std::vector<std::string> names = {"b07"};
    const auto jobs = jobs_from_registry(names);  // default scale 1.0
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(bg::io::write_aiger_string(jobs[0].design),
              bg::io::write_aiger_string(bg::circuits::make_benchmark("b07")));
}

TEST(FlowEngineHelpers, GlobMatchEdgeCases) {
    // Empty pattern / empty text.
    EXPECT_TRUE(bg::glob_match("", ""));
    EXPECT_FALSE(bg::glob_match("", "a"));
    EXPECT_FALSE(bg::glob_match("a", ""));
    EXPECT_TRUE(bg::glob_match("*", ""));
    EXPECT_TRUE(bg::glob_match("**", ""));
    EXPECT_FALSE(bg::glob_match("?", ""));

    // Literals and '?'.
    EXPECT_TRUE(bg::glob_match("b07", "b07"));
    EXPECT_FALSE(bg::glob_match("b07", "b08"));
    EXPECT_FALSE(bg::glob_match("b07", "b071"));
    EXPECT_TRUE(bg::glob_match("b0?", "b07"));
    EXPECT_FALSE(bg::glob_match("b0?", "b0"));
    EXPECT_FALSE(bg::glob_match("b0?", "b077"));
    EXPECT_TRUE(bg::glob_match("???", "b07"));

    // '*' runs, prefixes, suffixes.
    EXPECT_TRUE(bg::glob_match("*", "anything"));
    EXPECT_TRUE(bg::glob_match("b*", "b12"));
    EXPECT_TRUE(bg::glob_match("*7", "b07"));
    EXPECT_TRUE(bg::glob_match("b*7", "b07"));
    EXPECT_TRUE(bg::glob_match("b*7", "b7"));
    EXPECT_FALSE(bg::glob_match("b*7", "b08"));
    EXPECT_TRUE(bg::glob_match("c*0", "c2670"));

    // Repeated-star backtracking: the second star must be able to re-seek
    // after the first match attempt fails.
    EXPECT_TRUE(bg::glob_match("*a*b", "xaxxab"));
    EXPECT_TRUE(bg::glob_match("a*b*c", "aXbXbc"));
    EXPECT_FALSE(bg::glob_match("a*b*c", "aXbXb"));
    EXPECT_TRUE(bg::glob_match("*ab", "ababab"));
    EXPECT_FALSE(bg::glob_match("*ab*x", "ababab"));
    EXPECT_TRUE(bg::glob_match("a?*c", "abc"));
    EXPECT_FALSE(bg::glob_match("a?*c", "ac"));

    // Mixed star/question with trailing stars.
    EXPECT_TRUE(bg::glob_match("b1*", "b1"));
    EXPECT_TRUE(bg::glob_match("b1**", "b12"));
    EXPECT_FALSE(bg::glob_match("b1*2*4", "b1234X"));
    EXPECT_TRUE(bg::glob_match("b1*2*4", "b1X2X4"));
}

TEST(FlowEngineHelpers, RegistryPatternExpansion) {
    const auto all_names = bg::circuits::benchmark_names();
    EXPECT_EQ(expand_registry_pattern("*"), all_names);

    const auto b1x = expand_registry_pattern("b1?");
    for (const auto& name : b1x) {
        EXPECT_EQ(name.size(), 3u);
        EXPECT_EQ(name.substr(0, 2), "b1");
    }
    EXPECT_FALSE(b1x.empty());

    const auto literal = expand_registry_pattern("b07");
    ASSERT_EQ(literal.size(), 1u);
    EXPECT_EQ(literal[0], "b07");

    EXPECT_TRUE(expand_registry_pattern("zzz*").empty());
}

}  // namespace
