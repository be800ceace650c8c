#pragma once

/// \file naive_gemm.hpp
/// The seed's triple-loop GEMM kernels, kept as the reference that
/// test_matrix_view and bench_gemm compare the blocked kernels in
/// src/nn/matrix.cpp against bit for bit.  Header-only test support: the
/// library does not ship them.  Every target that includes this header is
/// compiled with -ffp-contract=off, as matrix.cpp is, so FMA contraction
/// cannot break the parity.

#include "nn/matrix.hpp"
#include "util/contracts.hpp"

namespace bg::test {

inline void matmul_naive(nn::ConstMatrixView a, nn::ConstMatrixView b,
                         nn::Matrix& c) {
    BG_EXPECTS(a.cols() == b.rows(), "matmul shape mismatch");
    c = nn::Matrix(a.rows(), b.cols());
    const std::size_t n = a.rows();
    const std::size_t k = a.cols();
    const std::size_t m = b.cols();
    for (std::size_t i = 0; i < n; ++i) {
        float* ci = c.row(i);
        const float* ai = a.row(i);
        for (std::size_t p = 0; p < k; ++p) {
            const float av = ai[p];
            if (av == 0.0F) {
                continue;
            }
            const float* bp = b.row(p);
            for (std::size_t j = 0; j < m; ++j) {
                ci[j] += av * bp[j];
            }
        }
    }
}

inline void matmul_tn_naive(nn::ConstMatrixView a, nn::ConstMatrixView b,
                            nn::Matrix& c) {
    BG_EXPECTS(a.rows() == b.rows(), "matmul_tn shape mismatch");
    c = nn::Matrix(a.cols(), b.cols());
    const std::size_t n = a.rows();
    const std::size_t k = a.cols();
    const std::size_t m = b.cols();
    for (std::size_t r = 0; r < n; ++r) {
        const float* ar = a.row(r);
        const float* br = b.row(r);
        for (std::size_t i = 0; i < k; ++i) {
            const float av = ar[i];
            if (av == 0.0F) {
                continue;
            }
            float* ci = c.row(i);
            for (std::size_t j = 0; j < m; ++j) {
                ci[j] += av * br[j];
            }
        }
    }
}

inline void matmul_nt_naive(nn::ConstMatrixView a, nn::ConstMatrixView b,
                            nn::Matrix& c) {
    BG_EXPECTS(a.cols() == b.cols(), "matmul_nt shape mismatch");
    c = nn::Matrix(a.rows(), b.rows());
    const std::size_t n = a.rows();
    const std::size_t k = a.cols();
    const std::size_t m = b.rows();
    for (std::size_t i = 0; i < n; ++i) {
        const float* ai = a.row(i);
        float* ci = c.row(i);
        for (std::size_t j = 0; j < m; ++j) {
            const float* bj = b.row(j);
            float acc = 0.0F;
            for (std::size_t p = 0; p < k; ++p) {
                acc += ai[p] * bj[p];
            }
            ci[j] = acc;
        }
    }
}

}  // namespace bg::test
