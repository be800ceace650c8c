/// \file test_matrix_view.cpp
/// MatrixView/ConstMatrixView semantics (strides, aliasing, view-of-view,
/// degenerate panels) and blocked-GEMM parity against the naive reference
/// kernels across odd shapes — bit-for-bit, including under ThreadPool
/// row-panel sharding and for non-contiguous view operands.

#include <gtest/gtest.h>

#include "naive_gemm.hpp"
#include "nn/matrix.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using bg::nn::ConstMatrixView;
using bg::nn::Matrix;
using bg::nn::MatrixView;

Matrix random_matrix(std::size_t r, std::size_t c, bg::Rng& rng,
                     float scale = 1.0F) {
    Matrix m(r, c);
    for (auto& v : m.data()) {
        v = scale * (2.0F * rng.next_float() - 1.0F);
    }
    return m;
}

void expect_bit_equal(const Matrix& a, const Matrix& b) {
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a.data()[i], b.data()[i]) << "element " << i;
    }
}

// ---------------------------------------------------------------------------
// View semantics
// ---------------------------------------------------------------------------

TEST(MatrixView, WholeMatrixViewIsContiguous) {
    bg::Rng rng(1);
    const Matrix m = random_matrix(5, 7, rng);
    const ConstMatrixView v = m.view();
    EXPECT_EQ(v.rows(), 5U);
    EXPECT_EQ(v.cols(), 7U);
    EXPECT_EQ(v.stride(), 7U);
    EXPECT_TRUE(v.contiguous());
    for (std::size_t i = 0; i < 5; ++i) {
        for (std::size_t j = 0; j < 7; ++j) {
            EXPECT_EQ(v.at(i, j), m.at(i, j));
        }
    }
}

TEST(MatrixView, RowPanelSharesStorage) {
    bg::Rng rng(2);
    Matrix m = random_matrix(6, 4, rng);
    const ConstMatrixView panel = m.rows_view(2, 3);
    EXPECT_EQ(panel.rows(), 3U);
    EXPECT_EQ(panel.cols(), 4U);
    EXPECT_TRUE(panel.contiguous());
    EXPECT_EQ(panel.row(0), m.row(2));  // same storage, not a copy
    // Writes through the owner are visible through the view.
    m.at(3, 1) = 42.0F;
    EXPECT_EQ(panel.at(1, 1), 42.0F);
}

TEST(MatrixView, MutableViewWritesAlias) {
    Matrix m(4, 3);
    MatrixView panel = m.rows_view(1, 2);
    panel.at(0, 2) = 7.0F;
    panel.row(1)[0] = -3.0F;
    EXPECT_EQ(m.at(1, 2), 7.0F);
    EXPECT_EQ(m.at(2, 0), -3.0F);
}

TEST(MatrixView, BlockIsNonContiguous) {
    bg::Rng rng(3);
    const Matrix m = random_matrix(8, 10, rng);
    const ConstMatrixView b = m.view().block(2, 3, 4, 5);
    EXPECT_EQ(b.rows(), 4U);
    EXPECT_EQ(b.cols(), 5U);
    EXPECT_EQ(b.stride(), 10U);
    EXPECT_FALSE(b.contiguous());
    for (std::size_t i = 0; i < 4; ++i) {
        for (std::size_t j = 0; j < 5; ++j) {
            EXPECT_EQ(b.at(i, j), m.at(2 + i, 3 + j));
        }
    }
}

TEST(MatrixView, ViewOfViewComposes) {
    bg::Rng rng(4);
    const Matrix m = random_matrix(10, 6, rng);
    const ConstMatrixView outer = m.view().block(1, 1, 8, 4);
    const ConstMatrixView inner = outer.rows_view(2, 3).block(1, 1, 2, 2);
    EXPECT_EQ(inner.stride(), 6U);  // still the root stride
    for (std::size_t i = 0; i < 2; ++i) {
        for (std::size_t j = 0; j < 2; ++j) {
            EXPECT_EQ(inner.at(i, j), m.at(1 + 2 + 1 + i, 1 + 1 + j));
        }
    }
}

TEST(MatrixView, DegeneratePanels) {
    bg::Rng rng(5);
    const Matrix m = random_matrix(9, 9, rng);
    const ConstMatrixView one_row = m.rows_view(4, 1);
    EXPECT_EQ(one_row.rows(), 1U);
    EXPECT_EQ(one_row.cols(), 9U);
    const ConstMatrixView one_col = m.view().block(0, 5, 9, 1);
    EXPECT_EQ(one_col.cols(), 1U);
    EXPECT_FALSE(one_col.contiguous());
    for (std::size_t i = 0; i < 9; ++i) {
        EXPECT_EQ(one_col.at(i, 0), m.at(i, 5));
    }
    const ConstMatrixView empty = m.rows_view(3, 0);
    EXPECT_TRUE(empty.empty());
    EXPECT_EQ(empty.size(), 0U);
}

TEST(MatrixView, MaterializeStridedView) {
    bg::Rng rng(6);
    const Matrix m = random_matrix(7, 8, rng);
    const Matrix copy(m.view().block(1, 2, 5, 3));
    EXPECT_EQ(copy.rows(), 5U);
    EXPECT_EQ(copy.cols(), 3U);
    for (std::size_t i = 0; i < 5; ++i) {
        for (std::size_t j = 0; j < 3; ++j) {
            EXPECT_EQ(copy.at(i, j), m.at(1 + i, 2 + j));
        }
    }
}

// ---------------------------------------------------------------------------
// Blocked GEMM parity vs the naive kernels
// ---------------------------------------------------------------------------

// Shapes chosen to hit every edge path: 1x1, single row/col, tile-size
// boundaries (4/8/32 plus-minus one), k-block boundary (256/257), and the
// 257x129 odd panel from the issue.
struct Shape {
    std::size_t n, k, m;
};
const Shape kShapes[] = {
    {1, 1, 1},     {1, 5, 1},     {1, 1, 9},    {3, 1, 2},    {2, 3, 5},
    {4, 8, 8},     {5, 9, 7},     {7, 33, 31},  {8, 32, 32},  {9, 31, 33},
    {16, 17, 40},  {33, 64, 65},  {63, 12, 48}, {64, 257, 9}, {65, 128, 33},
    {257, 193, 129}};

TEST(BlockedGemm, MatmulMatchesNaiveBitExact) {
    bg::Rng rng(7);
    for (const auto& s : kShapes) {
        const Matrix a = random_matrix(s.n, s.k, rng);
        const Matrix b = random_matrix(s.k, s.m, rng);
        Matrix ref;
        bg::test::matmul_naive(a, b, ref);
        Matrix out;
        bg::nn::matmul(a, b, out);
        expect_bit_equal(ref, out);
    }
}

TEST(BlockedGemm, MatmulTnMatchesNaiveBitExact) {
    bg::Rng rng(8);
    for (const auto& s : kShapes) {
        const Matrix a = random_matrix(s.k, s.n, rng);  // A^T is n x k
        const Matrix b = random_matrix(s.k, s.m, rng);
        Matrix ref;
        bg::test::matmul_tn_naive(a, b, ref);
        Matrix out;
        bg::nn::matmul_tn(a, b, out);
        expect_bit_equal(ref, out);
    }
}

TEST(BlockedGemm, MatmulNtMatchesNaiveBitExact) {
    bg::Rng rng(9);
    for (const auto& s : kShapes) {
        const Matrix a = random_matrix(s.n, s.k, rng);
        const Matrix b = random_matrix(s.m, s.k, rng);  // B^T is k x m
        Matrix ref;
        bg::test::matmul_nt_naive(a, b, ref);
        Matrix out;
        bg::nn::matmul_nt(a, b, out);
        expect_bit_equal(ref, out);
    }
}

TEST(BlockedGemm, SparseInputsWithZeroRows) {
    // The naive kernel skips zero A entries; the blocked kernel must land
    // on the same values anyway (features are full of exact zeros).
    bg::Rng rng(10);
    Matrix a = random_matrix(37, 29, rng);
    for (std::size_t i = 0; i < a.rows(); i += 3) {
        for (std::size_t j = 0; j < a.cols(); ++j) {
            a.at(i, j) = 0.0F;
        }
    }
    for (std::size_t j = 0; j < a.cols(); j += 4) {
        for (std::size_t i = 0; i < a.rows(); ++i) {
            a.at(i, j) = 0.0F;
        }
    }
    const Matrix b = random_matrix(29, 23, rng);
    Matrix ref;
    bg::test::matmul_naive(a, b, ref);
    Matrix out;
    bg::nn::matmul(a, b, out);
    expect_bit_equal(ref, out);
}

TEST(BlockedGemm, StridedViewOperandsMatchMaterializedCopies) {
    bg::Rng rng(11);
    const Matrix big_a = random_matrix(70, 90, rng);
    const Matrix big_b = random_matrix(80, 100, rng);
    const ConstMatrixView a = big_a.view().block(3, 5, 41, 37);
    const ConstMatrixView b = big_b.view().block(7, 2, 37, 53);
    Matrix from_views;
    bg::nn::matmul(a, b, from_views);
    Matrix from_copies;
    bg::nn::matmul(Matrix(a), Matrix(b), from_copies);
    expect_bit_equal(from_copies, from_views);
}

TEST(BlockedGemm, AccumulateIntoStridedDestination) {
    bg::Rng rng(12);
    const Matrix a = random_matrix(6, 10, rng);
    const Matrix b = random_matrix(10, 5, rng);
    Matrix dense;
    bg::nn::matmul(a, b, dense);
    // Write the same product into a sub-block of a larger zeroed matrix.
    Matrix target(12, 9);
    bg::nn::gemm_accumulate(a, b, target.view().block(3, 2, 6, 5));
    for (std::size_t i = 0; i < 12; ++i) {
        for (std::size_t j = 0; j < 9; ++j) {
            const bool inside = i >= 3 && i < 9 && j >= 2 && j < 7;
            EXPECT_EQ(target.at(i, j),
                      inside ? dense.at(i - 3, j - 2) : 0.0F);
        }
    }
}

TEST(BlockedGemm, ThreadPoolShardingIsBitStable) {
    bg::Rng rng(13);
    const Matrix a = random_matrix(257, 65, rng);
    const Matrix b = random_matrix(65, 43, rng);
    Matrix seq;
    bg::nn::matmul(a, b, seq);
    for (const std::size_t workers : {1U, 2U, 8U}) {
        bg::ThreadPool pool(workers);
        Matrix par;
        bg::nn::matmul(a, b, par, &pool);
        expect_bit_equal(seq, par);
        Matrix par_tn;
        bg::nn::matmul_tn(Matrix(b), Matrix(b), par_tn, &pool);
        Matrix seq_tn;
        bg::nn::matmul_tn(Matrix(b), Matrix(b), seq_tn);
        expect_bit_equal(seq_tn, par_tn);
    }
}

TEST(BlockedGemm, PoolRepeatedCallsAreDeterministic) {
    bg::Rng rng(14);
    const Matrix a = random_matrix(130, 70, rng);
    const Matrix b = random_matrix(70, 66, rng);
    bg::ThreadPool pool(4);
    Matrix first;
    bg::nn::matmul(a, b, first, &pool);
    for (int round = 0; round < 5; ++round) {
        Matrix again;
        bg::nn::matmul(a, b, again, &pool);
        expect_bit_equal(first, again);
    }
}

}  // namespace
