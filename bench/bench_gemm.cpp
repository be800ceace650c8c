/// \file bench_gemm.cpp
/// Micro-benchmark for the dense GEMM layer: naive (seed) triple loop vs
/// the blocked/register-tiled kernel, sequential and ThreadPool-sharded.
/// Every timed configuration is also parity-checked against the naive
/// reference, so a wrong-but-fast kernel cannot slip through.  A second
/// table times one SAGE layer on one b07 inference chunk at the paper's
/// widths: the unfused composition (two fresh-output matmuls, add, bias,
/// clamp) against the fused per-panel SageConv kernel, after checking
/// that the two agree bit for bit.  A third table runs the paper-width
/// model on b07's 600 guided flow samples: it counts rows against
/// distinct rows per trunk layer and times the dense training forward()
/// per 64-sample chunk against the distinct-row predict_batch_head, after
/// checking that their predictions agree bit for bit.  Full mode also
/// counts the distinct rows of a 100k-AND graph's 64 guided samples.
///
/// Usage: bench_gemm [--quick] [--workers N]
///   --quick     fewer repetitions, no 100k-AND count (CI mode)
///   --workers   pool width for the parallel rows (default: hardware)

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <vector>

#include "circuits/generators.hpp"
#include "circuits/registry.hpp"
#include "core/features.hpp"
#include "core/flow.hpp"
#include "core/model.hpp"
#include "core/sampling.hpp"
#include "naive_gemm.hpp"
#include "nn/matrix.hpp"
#include "nn/sage.hpp"
#include "util/parallel.hpp"
#include "util/progress.hpp"
#include "util/rng.hpp"

namespace {

using bg::nn::ConstMatrixView;
using bg::nn::Matrix;

Matrix random_matrix(std::size_t r, std::size_t c, bg::Rng& rng) {
    Matrix m(r, c);
    for (auto& v : m.data()) {
        v = 2.0F * rng.next_float() - 1.0F;
    }
    return m;
}

/// Best-of-reps wall time of fn(), with enough inner iterations that one
/// measurement is >= min_time.
template <typename Fn>
double time_best(Fn&& fn, int reps, double min_time) {
    fn();  // warm-up (and first-touch of the output)
    int iters = 1;
    for (;;) {
        bg::Stopwatch watch;
        for (int i = 0; i < iters; ++i) {
            fn();
        }
        const double dt = watch.seconds();
        if (dt >= min_time || iters >= (1 << 20)) {
            double best = dt / iters;
            for (int r = 1; r < reps; ++r) {
                watch.reset();
                for (int i = 0; i < iters; ++i) {
                    fn();
                }
                best = std::min(best, watch.seconds() / iters);
            }
            return best;
        }
        iters *= 2;
    }
}

bool bit_equal(const Matrix& a, const Matrix& b) {
    if (a.rows() != b.rows() || a.cols() != b.cols()) {
        return false;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a.data()[i] != b.data()[i]) {
            return false;
        }
    }
    return true;
}

struct Case {
    const char* name;
    std::size_t n, k, m;
};

/// One SAGE layer the unfused way, given the neighbour aggregate: two
/// fresh-output matmuls, elementwise add, add_row_bias, ReLU6 clamp.
void sage_unfused(const Matrix& x, const Matrix& agg, const Matrix& w_self,
                  const Matrix& w_neigh, std::span<const float> bias,
                  Matrix& y, bg::ThreadPool* pool) {
    bg::nn::matmul(x, w_self, y, pool);
    Matrix yn;
    bg::nn::matmul(agg, w_neigh, yn, pool);
    for (std::size_t i = 0; i < y.size(); ++i) {
        y.data()[i] += yn.data()[i];
    }
    bg::nn::add_row_bias(y, bias);
    for (auto& v : y.data()) {
        v = std::clamp(v, 0.0F, 6.0F);
    }
}

/// Time one b07 64-sample chunk through a paper-width SAGE layer both
/// ways; false on a bit mismatch.
bool bench_sage_layer(const char* name, const bg::nn::Csr& csr,
                      std::size_t batch, std::size_t in, std::size_t out,
                      bg::ThreadPool& pool, int reps, double min_time) {
    bg::Rng rng(0x5A6E ^ (in << 12) ^ out);
    const Matrix x = random_matrix(batch * csr.num_nodes(), in, rng);
    bg::nn::SageConv conv(in, out, rng);
    auto params = conv.params();
    Matrix w_self(in, out);
    Matrix w_neigh(in, out);
    std::copy_n(params[0].value, w_self.size(), w_self.data().data());
    std::copy_n(params[1].value, w_neigh.size(), w_neigh.data().data());
    for (std::size_t j = 0; j < out; ++j) {
        params[2].value[j] = 2.0F * rng.next_float() - 1.0F;
    }
    const std::span<const float> bias(params[2].value, out);
    Matrix agg;
    bg::nn::mean_aggregate(x, csr, batch, agg);

    Matrix unfused;
    sage_unfused(x, agg, w_self, w_neigh, bias, unfused, &pool);
    Matrix fused(x.rows(), out);
    const auto stacked = bg::nn::RowMap::stacked(batch);
    conv.forward_eval(x, csr, stacked, fused, &pool);
    if (!bit_equal(unfused, fused)) {
        std::printf("%-14s PARITY FAILURE\n", name);
        return false;
    }
    const double t_unfused = time_best(
        [&] { sage_unfused(x, agg, w_self, w_neigh, bias, unfused, &pool); },
        reps, min_time);
    const double t_fused = time_best(
        [&] { conv.forward_eval(x, csr, stacked, fused, &pool); }, reps,
        min_time);
    std::printf("%-14s %8.1fms %8.1fms %8.2fx\n", name, t_unfused * 1e3,
                t_fused * 1e3, t_unfused / t_fused);
    return true;
}

/// The stacked feature matrix run_flow hands to inference: `samples`
/// guided decision vectors of `g` with predicted dynamic features.
Matrix flow_features(const bg::aig::Aig& g, std::size_t samples,
                     std::uint64_t seed, bg::ThreadPool& pool) {
    using namespace bg::core;
    const StaticFeatures st = compute_static_features(g, {}, &pool);
    const auto decisions = generate_decisions(g, samples, true, seed, st);
    const std::size_t n = g.num_slots();
    const auto width = static_cast<std::size_t>(feature_dim);
    Matrix x(samples * n, width);
    pool.for_each(samples, [&](std::size_t s) {
        const auto dy = compute_dynamic_features(
            g, predicted_applied(g, decisions[s], st));
        assemble_features_into(st, dy, {}, {x.row(s * n), n * width});
    });
    return x;
}

/// Rows against distinct rows per trunk layer, and the trunk GEMM work
/// left against the dense forward's, weighting layer l by its in x out
/// widths: its self GEMM runs over the count(l-1) classes of its input
/// and its neighbour GEMM over its own count(l) classes.
void print_classes(const bg::nn::RowClasses& classes, std::size_t rows,
                   std::span<const int> sage_dims) {
    static const char* const names[] = {"input", "sage1", "sage2", "sage3"};
    double all = 0.0;
    double left = 0.0;
    int in = bg::core::feature_dim;
    double prev_share = 0.0;
    for (std::size_t l = 0; l < classes.cls.size(); ++l) {
        const double share = static_cast<double>(classes.count(l)) /
                             static_cast<double>(rows);
        std::printf("%-8s %10zu %10zu %8.1f%%\n", names[l], rows,
                    classes.count(l), 100.0 * share);
        if (l > 0) {
            const double w = static_cast<double>(in) * sage_dims[l - 1];
            all += 2.0 * w;
            left += w * (prev_share + share);
            in = sage_dims[l - 1];
        }
        prev_share = share;
    }
    std::printf("trunk GEMM work left (in x out weighted): %.1f%%\n",
                100.0 * left / all);
}

/// b07 at paper widths, 600 guided samples: distinct rows per layer, and
/// the dense forward() per 64-sample chunk against predict_batch_head;
/// false on a bit mismatch.
bool bench_distinct_trunk(bg::ThreadPool& pool, bool quick) {
    using bg::core::BoolGebraModel;
    const auto g = bg::circuits::make_benchmark("b07");
    const auto csr = bg::core::build_csr(g);
    const std::size_t n = csr.num_nodes();
    constexpr std::size_t samples = 600;
    const Matrix x = flow_features(g, samples, 2, pool);
    auto cfg = bg::core::ModelConfig::paper();
    cfg.dropout = 0.0F;  // forward() then computes what evaluation does
    BoolGebraModel model(cfg);

    std::printf("\nDistinct-row trunk, b07 at paper widths, %zu guided flow"
                " samples (%zu rows a layer), pool = %zu workers\n\n",
                samples, samples * n, pool.size());
    std::printf("%-8s %10s %10s %9s\n", "layer", "rows", "distinct",
                "share");
    bg::Stopwatch watch;
    const auto classes = bg::nn::intern_rows(x, csr, samples,
                                             cfg.sage_dims.size(), &pool);
    const double t_intern = watch.seconds();
    print_classes(classes, samples * n, cfg.sage_dims);

    const std::size_t chunk = BoolGebraModel::kPredictBatch;
    std::vector<double> pred;
    const double t_distinct = time_best(
        [&] { pred = model.predict_batch_head(csr, n, x, 0, chunk, &pool); },
        quick ? 1 : 3, 0.0);
    std::vector<double> dense;
    const auto dense_pass = [&] {
        dense.clear();
        for (std::size_t start = 0; start < samples; start += chunk) {
            const std::size_t b = std::min(chunk, samples - start);
            const Matrix y =
                model.forward(x.rows_view(start * n, b * n), csr, b, &pool);
            for (std::size_t s = 0; s < b; ++s) {
                dense.push_back(y.at(s, 0));
            }
        }
    };
    bg::Stopwatch dense_watch;
    dense_pass();
    const double t_dense = dense_watch.seconds();
    for (std::size_t s = 0; s < samples; ++s) {
        if (std::bit_cast<std::uint64_t>(pred[s]) !=
            std::bit_cast<std::uint64_t>(dense[s])) {
            std::printf("sample %zu PARITY FAILURE\n", s);
            return false;
        }
    }
    std::printf("\n%-30s %8.3fs\n%-30s %8.3fs (interning %.3fs)\n"
                "%-30s %8.2fx\n",
                "dense forward(), 64/chunk", t_dense,
                "distinct-row predict_batch_head", t_distinct, t_intern,
                "speedup", t_dense / t_distinct);
    return true;
}

/// Counts only: the distinct rows of a 100k-AND dense graph's 64 guided
/// flow samples (the trunk work ratio at 100k ANDs).
void count_distinct_100k(bg::ThreadPool& pool) {
    const auto g = bg::circuits::dense_random_aig(64, 100000, 42);
    const auto csr = bg::core::build_csr(g);
    constexpr std::size_t samples = 64;
    const Matrix x = flow_features(g, samples, 2, pool);
    const auto cfg = bg::core::ModelConfig::paper();
    std::printf("\nDistinct rows, dense_random_aig 100k ANDs, %zu guided"
                " flow samples\n\n%-8s %10s %10s %9s\n",
                samples, "layer", "rows", "distinct", "share");
    print_classes(bg::nn::intern_rows(x, csr, samples,
                                      cfg.sage_dims.size(), &pool),
                  samples * csr.num_nodes(), cfg.sage_dims);
}

}  // namespace

int main(int argc, char** argv) {
    bool quick = false;
    std::size_t workers = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
            workers = static_cast<std::size_t>(std::max(0, std::atoi(argv[++i])));
        }
    }
    const int reps = quick ? 2 : 5;
    const double min_time = quick ? 0.05 : 0.2;
    bg::ThreadPool pool(workers);

    const Case cases[] = {
        {"square-64", 64, 64, 64},
        {"square-128", 128, 128, 128},
        {"square-256", 256, 256, 256},
        {"odd-257x129", 257, 193, 129},
        // Inference shapes: (B*N, in) x (in, hidden) feature GEMMs.
        {"sage-in", 4096, 12, 48},
        {"sage-hidden", 4096, 48, 48},
    };

    std::printf("GEMM kernels (Release, floats).  naive = seed triple loop;"
                " blocked = register-tiled; pool = %zu workers\n\n",
                pool.size());
    std::printf("%-14s %10s %10s %10s %9s %9s\n", "case", "naive", "blocked",
                "pool", "speedup", "pool-x");

    bool all_ok = true;
    for (const auto& c : cases) {
        bg::Rng rng(0xBEEF ^ c.n ^ (c.m << 8));
        const Matrix a = random_matrix(c.n, c.k, rng);
        const Matrix b = random_matrix(c.k, c.m, rng);
        Matrix ref;
        bg::test::matmul_naive(a, b, ref);
        Matrix out;
        bg::nn::matmul(a, b, out);
        Matrix out_pool;
        bg::nn::matmul(a, b, out_pool, &pool);
        if (!bit_equal(ref, out) || !bit_equal(ref, out_pool)) {
            std::printf("%-14s PARITY FAILURE\n", c.name);
            all_ok = false;
            continue;
        }
        const double gflop =
            2.0 * static_cast<double>(c.n) * static_cast<double>(c.k) *
            static_cast<double>(c.m) * 1e-9;
        const double t_naive = time_best(
            [&] { bg::test::matmul_naive(a, b, out); }, reps, min_time);
        const double t_blocked =
            time_best([&] { bg::nn::matmul(a, b, out); }, reps, min_time);
        const double t_pool = time_best(
            [&] { bg::nn::matmul(a, b, out, &pool); }, reps, min_time);
        std::printf("%-14s %8.2fGF %8.2fGF %8.2fGF %8.2fx %8.2fx\n", c.name,
                    gflop / t_naive, gflop / t_blocked, gflop / t_pool,
                    t_naive / t_blocked, t_naive / t_pool);
    }

    // Transposed variants at the training shapes.
    {
        bg::Rng rng(0xF00D);
        const Matrix a = random_matrix(256, 192, rng);
        const Matrix b = random_matrix(256, 160, rng);
        Matrix ref;
        bg::test::matmul_tn_naive(a, b, ref);
        Matrix out;
        bg::nn::matmul_tn(a, b, out);
        all_ok = all_ok && bit_equal(ref, out);
        const double gflop = 2.0 * 192.0 * 256.0 * 160.0 * 1e-9;
        const double tn_naive = time_best(
            [&] { bg::test::matmul_tn_naive(a, b, out); }, reps, min_time);
        const double tn_blocked =
            time_best([&] { bg::nn::matmul_tn(a, b, out); }, reps, min_time);
        std::printf("%-14s %8.2fGF %8.2fGF %10s %8.2fx\n", "tn-256",
                    gflop / tn_naive, gflop / tn_blocked, "-",
                    tn_naive / tn_blocked);

        const Matrix d = random_matrix(256, 192, rng);
        const Matrix e = random_matrix(160, 192, rng);
        Matrix ref_nt;
        bg::test::matmul_nt_naive(d, e, ref_nt);
        Matrix out_nt;
        bg::nn::matmul_nt(d, e, out_nt);
        all_ok = all_ok && bit_equal(ref_nt, out_nt);
        const double gflop_nt = 2.0 * 256.0 * 192.0 * 160.0 * 1e-9;
        const double nt_naive = time_best(
            [&] { bg::test::matmul_nt_naive(d, e, out_nt); }, reps, min_time);
        const double nt_blocked = time_best(
            [&] { bg::nn::matmul_nt(d, e, out_nt); }, reps, min_time);
        std::printf("%-14s %8.2fGF %8.2fGF %10s %8.2fx\n", "nt-256",
                    gflop_nt / nt_naive, gflop_nt / nt_blocked, "-",
                    nt_naive / nt_blocked);
    }

    // One SAGE layer on one inference chunk of registry b07 at the paper's
    // widths.  The naive triple loop is skipped at these sizes; the fused
    // layer is checked against the unfused composition instead.
    {
        const auto csr =
            bg::core::build_csr(bg::circuits::make_benchmark("b07"));
        constexpr std::size_t batch = 64;  // BoolGebraModel::kPredictBatch
        std::printf("\nSAGE layer, one b07 chunk (%zu samples x %zu nodes ="
                    " %zu rows), pool = %zu workers.\nunfused = 2 matmul +"
                    " add + bias + clamp (aggregate precomputed); panel ="
                    " fused kernel incl. aggregation\n\n",
                    batch, csr.num_nodes(), batch * csr.num_nodes(),
                    pool.size());
        std::printf("%-14s %10s %10s %9s\n", "layer", "unfused", "panel",
                    "speedup");
        all_ok = bench_sage_layer("b07-12x512", csr, batch, 12, 512, pool,
                                  reps, min_time) &&
                 all_ok;
        all_ok = bench_sage_layer("b07-512x512", csr, batch, 512, 512, pool,
                                  reps, min_time) &&
                 all_ok;
    }

    all_ok = bench_distinct_trunk(pool, quick) && all_ok;
    if (!quick) {
        count_distinct_100k(pool);
    }

    if (!all_ok) {
        std::printf("\nFAIL: a blocked kernel, the fused SAGE layer or the"
                    " distinct-row trunk does not match its reference"
                    " bit-for-bit\n");
        return 1;
    }
    std::printf("\nall kernels parity-checked against the naive reference;"
                " the SAGE layer against the unfused composition; the"
                " distinct-row predictions against the dense forward()\n");
    return 0;
}
