/// \file bench_ops_micro.cpp
/// google-benchmark micro-benchmarks of the core engines: structural
/// hashing, cut enumeration, NPN canonization, ISOP + factoring, the
/// three transformability checks, simulation, orchestration and the
/// GraphSAGE forward/backward.

#include <benchmark/benchmark.h>

#include "aig/simulation.hpp"
#include "circuits/registry.hpp"
#include "core/dataset.hpp"
#include "core/model.hpp"
#include "core/sampling.hpp"
#include "cut/cut_enum.hpp"
#include "opt/lut_map.hpp"
#include "opt/rewrite_lib.hpp"
#include "opt/standalone.hpp"
#include "sat/cec_sat.hpp"
#include "tt/factor.hpp"
#include "tt/isop.hpp"
#include "tt/npn.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

bg::aig::Aig design() {
    static const bg::aig::Aig g =
        bg::circuits::make_benchmark_scaled("b11", 0.5);
    return g;
}

void BM_Strash(benchmark::State& state) {
    bg::Rng rng(1);
    for (auto _ : state) {
        bg::aig::Aig g;
        const auto pis = g.add_pis(16);
        std::vector<bg::aig::Lit> pool(pis.begin(), pis.end());
        for (int i = 0; i < 500; ++i) {
            const auto a = bg::aig::lit_not_cond(
                pool[rng.next_below(pool.size())], rng.next_bool());
            const auto b = bg::aig::lit_not_cond(
                pool[rng.next_below(pool.size())], rng.next_bool());
            pool.push_back(g.and_(a, b));
        }
        benchmark::DoNotOptimize(g.num_ands());
    }
    state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_Strash);

void BM_CutEnumeration(benchmark::State& state) {
    const auto g = design();
    const auto ands = g.topo_ands();
    std::size_t i = 0;
    for (auto _ : state) {
        const auto cuts =
            bg::cut::enumerate_cuts(g, ands[i % ands.size()], 4, 24);
        benchmark::DoNotOptimize(cuts.size());
        ++i;
    }
}
BENCHMARK(BM_CutEnumeration);

void BM_NpnCanonize(benchmark::State& state) {
    std::uint16_t f = 0x1234;
    for (auto _ : state) {
        const auto c = bg::tt::npn_canonize(f);
        benchmark::DoNotOptimize(c.canon);
        f = static_cast<std::uint16_t>(f * 33 + 17);
    }
}
BENCHMARK(BM_NpnCanonize);

void BM_IsopFactor(benchmark::State& state) {
    bg::Rng rng(2);
    bg::tt::TruthTable t(8);
    for (std::uint64_t m = 0; m < t.num_bits(); ++m) {
        t.set_bit(m, rng.next_bool());
    }
    for (auto _ : state) {
        const auto ff = bg::tt::factor(bg::tt::isop(t));
        benchmark::DoNotOptimize(ff.aig_node_count());
    }
}
BENCHMARK(BM_IsopFactor);

void BM_RewriteLibLookup(benchmark::State& state) {
    auto& lib = bg::opt::RewriteLibrary::instance();
    std::uint16_t f = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(lib.structure_for(f).num_gates());
        f = static_cast<std::uint16_t>(f + 641);
    }
}
BENCHMARK(BM_RewriteLibLookup);

void BM_CheckRewrite(benchmark::State& state) {
    const auto g = design();
    const auto ands = g.topo_ands();
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            bg::opt::check_rewrite(g, ands[i % ands.size()]).applicable);
        ++i;
    }
}
BENCHMARK(BM_CheckRewrite);

void BM_CheckResub(benchmark::State& state) {
    const auto g = design();
    const auto ands = g.topo_ands();
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            bg::opt::check_resub(g, ands[i % ands.size()]).applicable);
        ++i;
    }
}
BENCHMARK(BM_CheckResub);

void BM_CheckRefactor(benchmark::State& state) {
    const auto g = design();
    const auto ands = g.topo_ands();
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            bg::opt::check_refactor(g, ands[i % ands.size()]).applicable);
        ++i;
    }
}
BENCHMARK(BM_CheckRefactor);

void BM_Simulate64Words(benchmark::State& state) {
    const auto g = design();
    bg::Rng rng(3);
    const auto pats = bg::aig::random_patterns(g.num_pis(), 64, rng);
    for (auto _ : state) {
        const auto sigs = bg::aig::simulate(g, pats);
        benchmark::DoNotOptimize(sigs.size());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(g.num_ands()) * 64);
}
BENCHMARK(BM_Simulate64Words);

void BM_OrchestratePass(benchmark::State& state) {
    const auto base = design();
    bg::Rng rng(4);
    for (auto _ : state) {
        state.PauseTiming();
        auto g = base;
        const auto d = bg::core::random_decisions(g, rng);
        state.ResumeTiming();
        auto copy = g;
        benchmark::DoNotOptimize(
            bg::opt::orchestrate(copy, d).reduction());
    }
}
BENCHMARK(BM_OrchestratePass);

void BM_StaticFeatures(benchmark::State& state) {
    const auto g = design();
    bg::ThreadPool pool;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            bg::core::compute_static_features(g, {}, &pool).size());
    }
}
BENCHMARK(BM_StaticFeatures);

void BM_MeanAggregate(benchmark::State& state) {
    // The GraphSAGE neighbor aggregation — the next-largest inference
    // cost after the blocked GEMMs.  Arg(0)=1 runs the fast path with the
    // CSR's precomputed 1/deg (what build_csr provides to every flow);
    // Arg(0)=0 strips it to measure the per-call-division fallback.
    auto g = design();
    auto csr = bg::core::build_csr(g);
    if (state.range(0) == 0) {
        csr.inv_deg.clear();
    }
    constexpr std::size_t batch = 8;
    constexpr std::size_t feat = 48;  // quick-mode hidden width
    bg::Rng rng(6);
    bg::nn::Matrix x(batch * csr.num_nodes(), feat);
    for (auto& v : x.data()) {
        v = rng.next_float();
    }
    bg::nn::Matrix h;
    for (auto _ : state) {
        bg::nn::mean_aggregate(x, csr, batch, h);
        benchmark::DoNotOptimize(h.data().data());
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(batch * csr.neighbors.size() * feat));
}
BENCHMARK(BM_MeanAggregate)->Arg(0)->Arg(1);

void BM_SageForward(benchmark::State& state) {
    const auto g = design();
    const auto csr = bg::core::build_csr(g);
    bg::Rng rng(5);
    bg::nn::SageConv conv(12, 32, rng);
    bg::nn::Matrix x(8 * csr.num_nodes(), 12);
    for (auto& v : x.data()) {
        v = rng.next_float();
    }
    for (auto _ : state) {
        auto y = conv.forward(x, csr, 8);
        benchmark::DoNotOptimize(y.data().data());
    }
}
BENCHMARK(BM_SageForward);

void BM_SatCec(benchmark::State& state) {
    const auto original = design();
    auto optimized = original;
    (void)bg::opt::standalone_pass(optimized, bg::opt::OpKind::Rewrite);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            bg::sat::check_equivalence_sat(original, optimized));
    }
}
BENCHMARK(BM_SatCec);

void BM_LutMapping(benchmark::State& state) {
    const auto g = design();
    for (auto _ : state) {
        benchmark::DoNotOptimize(bg::opt::map_to_luts(g).num_luts());
    }
}
BENCHMARK(BM_LutMapping);

void BM_ModelForwardBackward(benchmark::State& state) {
    const auto g = design();
    bg::ThreadPool pool;
    const auto records =
        bg::core::generate_guided_samples(g, 8, 1, {}, nullptr, nullptr, &pool);
    const auto ds = bg::core::build_dataset(g, records, {}, {}, &pool);
    bg::core::ModelConfig cfg = bg::core::ModelConfig::quick();
    cfg.sage_dims = {32, 32, 16};
    cfg.mlp_dims = {32, 16, 1};
    bg::core::BoolGebraModel model(cfg);
    bg::nn::Matrix x(8 * ds.num_nodes(), 12);
    std::vector<float> labels(8, 0.5F);
    for (std::size_t s = 0; s < 8; ++s) {
        const auto& f = ds.samples()[s].features;
        std::copy(f.begin(), f.end(), x.row(s * ds.num_nodes()));
    }
    for (auto _ : state) {
        model.zero_grad();
        auto pred = model.forward(x, ds.csr(), 8);
        bg::nn::Matrix dpred(pred.rows(), 1);
        for (std::size_t i = 0; i < 8; ++i) {
            dpred.at(i, 0) = pred.at(i, 0) - labels[i];
        }
        model.backward(dpred);
        benchmark::DoNotOptimize(pred.at(0, 0));
    }
}
BENCHMARK(BM_ModelForwardBackward);

}  // namespace

BENCHMARK_MAIN();
