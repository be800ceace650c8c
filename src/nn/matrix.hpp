#pragma once

/// \file matrix.hpp
/// Dense float32 matrix layer: an owning row-major Matrix, non-owning
/// strided views (MatrixView / ConstMatrixView), and the three GEMM
/// variants the training and inference loops need.
///
/// The GEMM kernels are cache-blocked and register-tiled but *bit-stable*:
/// every output element accumulates its k contributions strictly in
/// p = 0..k-1 order, independent of blocking, tiling, view strides and of
/// whether row panels are sharded across a ThreadPool.  Results are
/// therefore identical across worker counts, which the FlowEngine relies
/// on.  No BLAS dependency.

#include <cstddef>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace bg {
class ThreadPool;  // util/parallel.hpp
}

namespace bg::nn {

/// Non-owning read-only view of a row-major panel: rows x cols elements
/// whose consecutive rows are `stride` floats apart (stride == cols means
/// the panel is contiguous).  Views are cheap to copy and must not outlive
/// the storage they point into.
class ConstMatrixView {
public:
    ConstMatrixView() = default;
    ConstMatrixView(const float* data, std::size_t rows, std::size_t cols,
                    std::size_t stride)
        : data_(data), rows_(rows), cols_(cols), stride_(stride) {}

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t stride() const { return stride_; }
    std::size_t size() const { return rows_ * cols_; }
    bool empty() const { return rows_ == 0 || cols_ == 0; }
    bool contiguous() const { return stride_ == cols_; }

    const float* row(std::size_t r) const { return data_ + r * stride_; }
    float at(std::size_t r, std::size_t c) const { return row(r)[c]; }

    /// Panel of `count` whole rows starting at `start`; works on any view
    /// (view-of-view keeps the parent stride).
    ConstMatrixView rows_view(std::size_t start, std::size_t count) const {
        return {row(start), count, cols_, stride_};
    }
    /// Arbitrary sub-block; non-contiguous unless it spans all columns.
    ConstMatrixView block(std::size_t r0, std::size_t c0, std::size_t nrows,
                          std::size_t ncols) const {
        return {row(r0) + c0, nrows, ncols, stride_};
    }

private:
    const float* data_ = nullptr;
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::size_t stride_ = 0;
};

/// Mutable counterpart of ConstMatrixView.
class MatrixView {
public:
    MatrixView() = default;
    MatrixView(float* data, std::size_t rows, std::size_t cols,
               std::size_t stride)
        : data_(data), rows_(rows), cols_(cols), stride_(stride) {}

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t stride() const { return stride_; }
    std::size_t size() const { return rows_ * cols_; }
    bool empty() const { return rows_ == 0 || cols_ == 0; }
    bool contiguous() const { return stride_ == cols_; }

    float* row(std::size_t r) const { return data_ + r * stride_; }
    float& at(std::size_t r, std::size_t c) const { return row(r)[c]; }

    MatrixView rows_view(std::size_t start, std::size_t count) const {
        return {row(start), count, cols_, stride_};
    }
    MatrixView block(std::size_t r0, std::size_t c0, std::size_t nrows,
                     std::size_t ncols) const {
        return {row(r0) + c0, nrows, ncols, stride_};
    }

    operator ConstMatrixView() const {  // NOLINT(google-explicit-constructor)
        return {data_, rows_, cols_, stride_};
    }

private:
    float* data_ = nullptr;
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::size_t stride_ = 0;
};

class Matrix {
public:
    Matrix() = default;
    Matrix(std::size_t rows, std::size_t cols)
        : rows_(rows), cols_(cols), data_(rows * cols, 0.0F) {}
    /// Materialize a (possibly strided) view into owned contiguous storage.
    explicit Matrix(ConstMatrixView v)
        : rows_(v.rows()), cols_(v.cols()), data_(v.rows() * v.cols()) {
        for (std::size_t r = 0; r < rows_; ++r) {
            const float* src = v.row(r);
            std::copy(src, src + cols_, data_.data() + r * cols_);
        }
    }

    static Matrix zeros(std::size_t rows, std::size_t cols) {
        return Matrix(rows, cols);
    }
    /// Xavier/Glorot uniform initialization for a (fan_in x fan_out) weight.
    static Matrix xavier(std::size_t fan_in, std::size_t fan_out,
                         bg::Rng& rng);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    float& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
    float at(std::size_t r, std::size_t c) const {
        return data_[r * cols_ + c];
    }
    float* row(std::size_t r) { return data_.data() + r * cols_; }
    const float* row(std::size_t r) const { return data_.data() + r * cols_; }

    std::span<float> data() { return data_; }
    std::span<const float> data() const { return data_; }

    void fill(float v) { std::fill(data_.begin(), data_.end(), v); }

    MatrixView view() { return {data_.data(), rows_, cols_, cols_}; }
    ConstMatrixView view() const { return {data_.data(), rows_, cols_, cols_}; }
    /// Zero-copy panel of whole rows (the FlowEngine/predict_batch_head
    /// chunking primitive).
    MatrixView rows_view(std::size_t start, std::size_t count) {
        return view().rows_view(start, count);
    }
    ConstMatrixView rows_view(std::size_t start, std::size_t count) const {
        return view().rows_view(start, count);
    }

    operator ConstMatrixView() const {  // NOLINT(google-explicit-constructor)
        return view();
    }
    operator MatrixView() {  // NOLINT(google-explicit-constructor)
        return view();
    }

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<float> data_;
};

/// Rows of C per parallel work item of the GEMM driver (a multiple of
/// every register-tile height); the SAGE layer kernel (sage.hpp) runs one
/// task per panel of the same height.
inline constexpr std::size_t kRowPanel = 64;

/// C = A * B.  Blocked/tiled kernel; `pool` (optional) shards disjoint
/// kRowPanel-row panels of C, leaving results bit-identical to the
/// sequential run.  `c` is reallocated, so it must not alias the storage
/// behind `a` or `b`.
void matmul(ConstMatrixView a, ConstMatrixView b, Matrix& c,
            bg::ThreadPool* pool = nullptr);
/// C = A^T * B (gradients w.r.t. weights); transpose-packs A.
void matmul_tn(ConstMatrixView a, ConstMatrixView b, Matrix& c,
               bg::ThreadPool* pool = nullptr);
/// C = A * B^T (gradients w.r.t. inputs); transpose-packs B.
void matmul_nt(ConstMatrixView a, ConstMatrixView b, Matrix& c,
               bg::ThreadPool* pool = nullptr);

/// C += A * B into an existing correctly-shaped destination view.
void gemm_accumulate(ConstMatrixView a, ConstMatrixView b, MatrixView c,
                     bg::ThreadPool* pool = nullptr);

/// Y += bias broadcast over rows.
void add_row_bias(MatrixView y, std::span<const float> bias);
/// bias_grad += column sums of dY.
void accumulate_bias_grad(ConstMatrixView dy, std::span<float> bias_grad);

}  // namespace bg::nn
