/// \file bench_gemm.cpp
/// Micro-benchmark for the dense GEMM layer: naive (seed) triple loop vs
/// the blocked/register-tiled kernel, sequential and ThreadPool-sharded.
/// Every timed configuration is also parity-checked against the naive
/// reference, so a wrong-but-fast kernel cannot slip through.
///
/// Usage: bench_gemm [--quick] [--workers N]
///   --quick     fewer repetitions (CI nightly mode)
///   --workers   pool width for the parallel rows (default: hardware)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "naive_gemm.hpp"
#include "nn/matrix.hpp"
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

    if (!all_ok) {
        std::printf("\nFAIL: blocked kernel does not match the naive"
                    " reference bit-for-bit\n");
        return 1;
    }
    std::printf("\nall kernels parity-checked against the naive reference\n");
    return 0;
}
