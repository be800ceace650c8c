#include "nn/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"
#include "util/parallel.hpp"

namespace bg::nn {

Matrix Matrix::xavier(std::size_t fan_in, std::size_t fan_out, bg::Rng& rng) {
    Matrix m(fan_in, fan_out);
    const float bound = std::sqrt(
        6.0F / static_cast<float>(fan_in + fan_out));
    for (auto& v : m.data_) {
        v = (2.0F * rng.next_float() - 1.0F) * bound;
    }
    return m;
}

// ---------------------------------------------------------------------------
// Blocked GEMM
//
// C += A * B as  (row panels) x (k blocks) x (register tiles).  Each output
// element accumulates its k contributions strictly in ascending p order —
// the same order as the naive ikj loop — so blocking, tiling, the tile
// size a given ISA picks, and row-panel sharding never change a single bit
// of the result.  The micro kernel keeps an Mr x Nr tile of C in registers
// across a whole k block; its loops have compile-time trip counts so the
// compiler fully unrolls and vectorizes them.
//
// The row-panel driver is compiled once per ISA (SSE baseline, AVX2,
// AVX-512) and the variant is picked once at runtime — the rest of the
// build keeps its portable flags.  matrix.cpp is compiled with
// -ffp-contract=off (see CMakeLists) so no variant fuses mul+add into FMA;
// every kernel therefore matches the naive reference bit-for-bit.
// ---------------------------------------------------------------------------

namespace {

#if defined(__GNUC__) || defined(__clang__)
#define BG_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define BG_ALWAYS_INLINE inline
#endif

/// k-block depth: a kKc-deep panel of B stays cache-resident while a whole
/// row panel of A streams past it.
constexpr std::size_t kKc = 256;
/// Full Mr x Nr tile: compile-time bounds, accumulators live in registers
/// for the whole k block.  always_inline so the body is compiled with the
/// ISA of whichever driver variant it is expanded into.
template <std::size_t Mr, std::size_t Nr>
BG_ALWAYS_INLINE void micro_tile_full(const float* a, std::size_t lda,
                                      const float* b, std::size_t ldb,
                                      float* c, std::size_t ldc,
                                      std::size_t kc) {
    float acc[Mr][Nr];
    for (std::size_t r = 0; r < Mr; ++r) {
        for (std::size_t j = 0; j < Nr; ++j) {
            acc[r][j] = c[r * ldc + j];
        }
    }
    for (std::size_t p = 0; p < kc; ++p) {
        const float* bp = b + p * ldb;
        for (std::size_t r = 0; r < Mr; ++r) {
            const float ar = a[r * lda + p];
            for (std::size_t j = 0; j < Nr; ++j) {
                acc[r][j] += ar * bp[j];
            }
        }
    }
    for (std::size_t r = 0; r < Mr; ++r) {
        for (std::size_t j = 0; j < Nr; ++j) {
            c[r * ldc + j] = acc[r][j];
        }
    }
}

/// Edge tile with runtime bounds (mr <= Mr, nr <= Nr); same accumulation
/// order as the full tile.
template <std::size_t Mr, std::size_t Nr>
BG_ALWAYS_INLINE void micro_tile_edge(const float* a, std::size_t lda,
                                      const float* b, std::size_t ldb,
                                      float* c, std::size_t ldc,
                                      std::size_t kc, std::size_t mr,
                                      std::size_t nr) {
    float acc[Mr][Nr];
    for (std::size_t r = 0; r < mr; ++r) {
        for (std::size_t j = 0; j < nr; ++j) {
            acc[r][j] = c[r * ldc + j];
        }
    }
    for (std::size_t p = 0; p < kc; ++p) {
        const float* bp = b + p * ldb;
        for (std::size_t r = 0; r < mr; ++r) {
            const float ar = a[r * lda + p];
            for (std::size_t j = 0; j < nr; ++j) {
                acc[r][j] += ar * bp[j];
            }
        }
    }
    for (std::size_t r = 0; r < mr; ++r) {
        for (std::size_t j = 0; j < nr; ++j) {
            c[r * ldc + j] = acc[r][j];
        }
    }
}

/// C[r0..r1) += A[r0..r1) * B over the full k and m extents.  Raw pointers
/// and strides only: routing them through the view structs here defeats
/// the vectorizer (measured 6x slower).
template <std::size_t Mr, std::size_t Nr>
BG_ALWAYS_INLINE void gemm_rows_impl(const float* A, std::size_t lda,
                                     const float* B, std::size_t ldb,
                                     float* C, std::size_t ldc,
                                     std::size_t r0, std::size_t r1,
                                     std::size_t k, std::size_t m) {
    for (std::size_t pp = 0; pp < k; pp += kKc) {
        const std::size_t kc = std::min(kKc, k - pp);
        const float* bpp = B + pp * ldb;
        for (std::size_t i = r0; i < r1; i += Mr) {
            const std::size_t mr = std::min(Mr, r1 - i);
            const float* ai = A + i * lda + pp;
            float* ci = C + i * ldc;
            std::size_t j = 0;
            if (mr == Mr) {
                for (; j + Nr <= m; j += Nr) {
                    micro_tile_full<Mr, Nr>(ai, lda, bpp + j, ldb, ci + j,
                                            ldc, kc);
                }
            }
            for (; j < m; j += Nr) {
                micro_tile_edge<Mr, Nr>(ai, lda, bpp + j, ldb, ci + j, ldc,
                                        kc, mr, std::min(Nr, m - j));
            }
        }
    }
}

using RowsFn = void (*)(const float*, std::size_t, const float*, std::size_t,
                        float*, std::size_t, std::size_t, std::size_t,
                        std::size_t, std::size_t);

void gemm_rows_portable(const float* A, std::size_t lda, const float* B,
                        std::size_t ldb, float* C, std::size_t ldc,
                        std::size_t r0, std::size_t r1, std::size_t k,
                        std::size_t m) {
    gemm_rows_impl<4, 8>(A, lda, B, ldb, C, ldc, r0, r1, k, m);
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define BG_GEMM_MULTIVERSION 1
// Tile sizes per ISA: the accumulator tile must fit the register file
// (AVX2: 4x32 floats = 16 ymm; AVX-512: 8x32 = 16 zmm of 32).
__attribute__((target("avx2"))) void gemm_rows_avx2(
    const float* A, std::size_t lda, const float* B, std::size_t ldb,
    float* C, std::size_t ldc, std::size_t r0, std::size_t r1, std::size_t k,
    std::size_t m) {
    gemm_rows_impl<4, 32>(A, lda, B, ldb, C, ldc, r0, r1, k, m);
}
__attribute__((target("avx512f"))) void gemm_rows_avx512(
    const float* A, std::size_t lda, const float* B, std::size_t ldb,
    float* C, std::size_t ldc, std::size_t r0, std::size_t r1, std::size_t k,
    std::size_t m) {
    gemm_rows_impl<8, 32>(A, lda, B, ldb, C, ldc, r0, r1, k, m);
}
#endif

RowsFn pick_rows_fn() {
#if defined(BG_GEMM_MULTIVERSION)
    if (__builtin_cpu_supports("avx512f")) {
        return gemm_rows_avx512;
    }
    if (__builtin_cpu_supports("avx2")) {
        return gemm_rows_avx2;
    }
#endif
    return gemm_rows_portable;
}

/// ISA dispatch, resolved once (thread-safe magic static).
RowsFn rows_fn() {
    static const RowsFn fn = pick_rows_fn();
    return fn;
}

void gemm_rows(ConstMatrixView a, ConstMatrixView b, MatrixView c,
               std::size_t r0, std::size_t r1) {
    rows_fn()(a.row(0), a.stride(), b.row(0), b.stride(), c.row(0),
              c.stride(), r0, r1, a.cols(), b.cols());
}

/// Cache-blocked transpose pack (the `_tn`/`_nt` operands become plain
/// row-major panels for the one shared kernel).
Matrix transposed(ConstMatrixView a) {
    Matrix t(a.cols(), a.rows());
    constexpr std::size_t kTb = 32;
    for (std::size_t ii = 0; ii < a.rows(); ii += kTb) {
        const std::size_t ie = std::min(ii + kTb, a.rows());
        for (std::size_t jj = 0; jj < a.cols(); jj += kTb) {
            const std::size_t je = std::min(jj + kTb, a.cols());
            for (std::size_t i = ii; i < ie; ++i) {
                const float* src = a.row(i);
                for (std::size_t j = jj; j < je; ++j) {
                    t.at(j, i) = src[j];
                }
            }
        }
    }
    return t;
}

}  // namespace

void gemm_accumulate(ConstMatrixView a, ConstMatrixView b, MatrixView c,
                     bg::ThreadPool* pool) {
    BG_EXPECTS(a.cols() == b.rows() && c.rows() == a.rows() &&
                   c.cols() == b.cols(),
               "gemm shape mismatch");
    const std::size_t n = a.rows();
    if (n == 0 || b.cols() == 0 || a.cols() == 0) {
        return;
    }
    const std::size_t panels = (n + kRowPanel - 1) / kRowPanel;
    if (pool == nullptr || panels <= 1 || pool->size() == 0) {
        gemm_rows(a, b, c, 0, n);
        return;
    }
    // Disjoint row panels: each output element is produced by exactly one
    // worker with the sequential kernel, so the result is schedule-free.
    pool->for_each(panels, [&](std::size_t pi) {
        const std::size_t lo = pi * kRowPanel;
        gemm_rows(a, b, c, lo, std::min(n, lo + kRowPanel));
    });
}

void matmul(ConstMatrixView a, ConstMatrixView b, Matrix& c,
            bg::ThreadPool* pool) {
    BG_EXPECTS(a.cols() == b.rows(), "matmul shape mismatch");
    c = Matrix(a.rows(), b.cols());
    gemm_accumulate(a, b, c.view(), pool);
}

void matmul_tn(ConstMatrixView a, ConstMatrixView b, Matrix& c,
               bg::ThreadPool* pool) {
    BG_EXPECTS(a.rows() == b.rows(), "matmul_tn shape mismatch");
    const Matrix at = transposed(a);
    c = Matrix(a.cols(), b.cols());
    gemm_accumulate(at, b, c.view(), pool);
}

void matmul_nt(ConstMatrixView a, ConstMatrixView b, Matrix& c,
               bg::ThreadPool* pool) {
    BG_EXPECTS(a.cols() == b.cols(), "matmul_nt shape mismatch");
    const Matrix bt = transposed(b);
    c = Matrix(a.rows(), b.rows());
    gemm_accumulate(a, bt, c.view(), pool);
}

void add_row_bias(MatrixView y, std::span<const float> bias) {
    BG_EXPECTS(bias.size() == y.cols(), "bias width mismatch");
    for (std::size_t i = 0; i < y.rows(); ++i) {
        float* yi = y.row(i);
        for (std::size_t j = 0; j < y.cols(); ++j) {
            yi[j] += bias[j];
        }
    }
}

void accumulate_bias_grad(ConstMatrixView dy, std::span<float> bias_grad) {
    BG_EXPECTS(bias_grad.size() == dy.cols(), "bias grad width mismatch");
    for (std::size_t i = 0; i < dy.rows(); ++i) {
        const float* row = dy.row(i);
        for (std::size_t j = 0; j < dy.cols(); ++j) {
            bias_grad[j] += row[j];
        }
    }
}

}  // namespace bg::nn
