#include "core/flow_engine.hpp"

#include <optional>

#include "circuits/design_source.hpp"
#include "circuits/registry.hpp"
#include "core/flow_service.hpp"
#include "util/contracts.hpp"
#include "util/glob.hpp"
#include "util/progress.hpp"

namespace bg::core {

using aig::Aig;

DesignFlowResult run_design_flow(const DesignJob& job,
                                 const BoolGebraModel& model,
                                 const FlowConfig& flow_cfg,
                                 std::size_t rounds, ThreadPool* pool,
                                 verify::PortfolioCec* prover,
                                 const JobControl* control) {
    BG_EXPECTS(rounds >= 1, "a design flow needs at least one round");
    const opt::Objective& obj = flow_objective(flow_cfg);
    const bg::CancelToken* cancel =
        control != nullptr ? control->cancel : nullptr;
    DesignFlowResult res;
    res.name = job.name;
    res.original_size = job.design.num_ands();
    res.iterated.original_size = res.original_size;

    const bg::Stopwatch watch;
    Aig current = job.design;
    FlowConfig round_cfg = flow_cfg;
    // The token rides OptParams into every run_flow stage and orchestrate
    // node walk; null leaves those paths bit-identical to uncontrolled
    // runs.  A provided JobControl owns the cancel decision; without one,
    // whatever the caller put in flow.opt.cancel stays in effect.
    if (control != nullptr) {
        round_cfg.opt.cancel = cancel;
    }

    for (std::size_t round = 0; round < rounds; ++round) {
        poll_cancel(cancel, "run_design_flow round boundary");
        round_cfg.seed = flow_cfg.seed + round;  // fresh samples per round
        const FlowResult flow = run_flow(current, model, round_cfg, pool);
        res.samples_run += flow.samples_evaluated;
        if (round == 0) {
            res.flow = flow;
            res.iterated.original_depth = flow.original_depth;
        }
        // Productive = the objective-best strictly improves on the round's
        // entry cost (under size: best_reduction > 0, as before).
        if (!obj.better(flow.best_cost, flow.original_cost)) {
            break;
        }
        res.iterated.per_round_reduction.push_back(flow.best_reduction);
        if (rounds == 1) {
            break;  // single-shot: nothing is committed
        }
        current = flow.best_graph->compact();
        if (control != nullptr && control->on_progress) {
            control->on_progress(round + 1, current.num_ands());
        }
    }
    // The one final graph: a single round's winner (uncommitted), else
    // the committed graph.
    std::shared_ptr<const Aig> final_graph =
        rounds == 1 ? res.flow.best_graph
                    : std::make_shared<const Aig>(std::move(current));
    res.iterated.final_size = final_graph->num_ands();
    res.iterated.final_ratio =
        static_cast<double>(res.iterated.final_size) /
        static_cast<double>(res.iterated.original_size);
    res.iterated.final_depth = final_graph->depth();
    res.iterated.final_depth_ratio =
        res.iterated.original_depth != 0
            ? static_cast<double>(res.iterated.final_depth) /
                  static_cast<double>(res.iterated.original_depth)
            : 1.0;
    if (rounds == 1 && control != nullptr && control->on_progress) {
        control->on_progress(1, res.iterated.final_size);
    }
    if (flow_cfg.verify) {
        // The job's one proof, after its last round: the final graph
        // against the input design, never each round.
        const bg::CancelToken* token = round_cfg.opt.cancel;
        std::optional<verify::PortfolioCec> local;
        verify::PortfolioCec& cec =
            prover != nullptr ? *prover : local.emplace(flow_cfg.verify_opts);
        res.verification = cec.check(job.design, *final_graph, token);
        // A proof cut short by the token is a cancelled job, not an
        // undecided verdict.
        poll_cancel(token, "run_design_flow proof");
    }
    if (control != nullptr && control->want_graph) {
        res.final_graph = std::move(final_graph);
    }
    res.seconds = watch.seconds();
    return res;
}

FlowEngine::FlowEngine(EngineConfig cfg) : cfg_(cfg) {
    BG_EXPECTS(cfg_.rounds >= 1, "engine needs at least one flow round");
    ServiceConfig scfg;
    scfg.workers = cfg_.workers;
    scfg.rounds = cfg_.rounds;
    scfg.flow = cfg_.flow;
    service_ = std::make_unique<FlowService>(scfg);
}

FlowEngine::~FlowEngine() = default;

std::size_t FlowEngine::workers() const { return service_->workers(); }

BatchFlowResult FlowEngine::run(std::span<const DesignJob> jobs,
                                const BoolGebraModel& model) {
    BatchFlowResult out;
    out.designs.resize(jobs.size());
    const bg::Stopwatch watch;
    // Non-owning snapshot: `model` outlives the batch because every
    // future is waited on below, and the service's reference is dropped
    // again before returning.
    service_->swap_model(ModelSnapshot(&model, [](const BoolGebraModel*) {}));
    try {
        std::vector<std::future<DesignFlowResult>> futures;
        futures.reserve(jobs.size());
        for (const auto& job : jobs) {
            futures.push_back(service_->submit(job));
        }
        for (std::size_t j = 0; j < futures.size(); ++j) {
            out.designs[j] = futures[j].get();
        }
    } catch (...) {
        // Never keep the non-owning snapshot past this call: wait out any
        // already-submitted jobs, drop the reference, then rethrow.
        service_->drain();
        service_->swap_model(nullptr);
        throw;
    }
    service_->swap_model(nullptr);
    out.total_seconds = watch.seconds();
    out.objective = flow_objective(cfg_.flow).name();
    out.ranked_by =
        plan_ranking(model, flow_objective(cfg_.flow), cfg_.flow.ranking_head)
            .describe;

    if (!out.designs.empty()) {
        double best = 0.0;
        double mean = 0.0;
        double final_r = 0.0;
        double best_depth = 0.0;
        double best_value = 0.0;
        double final_depth = 0.0;
        for (const auto& d : out.designs) {
            best += d.flow.bg_best_ratio;
            mean += d.flow.bg_mean_ratio;
            final_r += d.iterated.final_ratio;
            best_depth += d.flow.bg_best_depth_ratio;
            best_value += d.flow.bg_best_value_ratio;
            final_depth += d.iterated.final_depth_ratio;
            out.total_samples += d.samples_run;
            if (d.verification) {
                switch (d.verification->verdict) {
                    case aig::CecVerdict::Equivalent:
                        ++out.jobs_verified;
                        break;
                    case aig::CecVerdict::NotEquivalent:
                        ++out.jobs_refuted;
                        break;
                    case aig::CecVerdict::ProbablyEquivalent:
                        ++out.jobs_unknown;
                        break;
                }
            }
        }
        const auto n = static_cast<double>(out.designs.size());
        out.avg_bg_best_ratio = best / n;
        out.avg_bg_mean_ratio = mean / n;
        out.avg_final_ratio = final_r / n;
        out.avg_bg_best_depth_ratio = best_depth / n;
        out.avg_bg_best_value_ratio = best_value / n;
        out.avg_final_depth_ratio = final_depth / n;
    }
    if (out.total_seconds > 0.0) {
        out.designs_per_second =
            static_cast<double>(out.designs.size()) / out.total_seconds;
        out.samples_per_second =
            static_cast<double>(out.total_samples) / out.total_seconds;
    }
    return out;
}

std::vector<DesignJob> jobs_from_registry(std::span<const std::string> names,
                                          double scale) {
    std::vector<DesignJob> jobs;
    jobs.reserve(names.size());
    for (const auto& name : names) {
        // One code path for every scale: make_benchmark_scaled(name, 1.0)
        // reproduces make_benchmark exactly (asserted by
        // tests/test_flow_engine.cpp), so no float-equality dispatch.
        jobs.push_back({name, circuits::make_benchmark_scaled(name, scale)});
    }
    return jobs;
}

std::vector<std::string> expand_registry_pattern(const std::string& pattern) {
    std::vector<std::string> out;
    for (const auto& info : circuits::benchmark_registry()) {
        if (bg::glob_match(pattern, info.name)) {
            out.push_back(info.name);
        }
    }
    return out;
}

std::vector<DesignJob> jobs_from_specs(const std::vector<std::string>& specs,
                                       bool all, double scale) {
    std::vector<DesignJob> jobs;
    for (const auto& r :
         circuits::resolve_design_specs(specs, all, scale)) {
        jobs.push_back({r.name, r.load()});
    }
    return jobs;
}

}  // namespace bg::core
