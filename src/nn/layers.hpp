#pragma once

/// \file layers.hpp
/// The dense layers of the BoolGebra predictor (Fig 3g): Linear, ReLU6,
/// Sigmoid, Dropout and BatchNorm1d, each with explicit forward/backward.
/// `forward()` is the training pass: it caches what backward needs, draws
/// dropout masks and updates batch-norm running statistics.  Inputs are
/// taken as ConstMatrixView so batched callers can pass zero-copy row
/// panels.  The training loop is single-threaded by design (one model
/// instance per thread if parallelism is wanted); the optional `pool`
/// shards the GEMM row panels without changing a single output bit.
///
/// `forward_eval()` is the only evaluation pass.  It is genuinely `const`
/// and never touches the backward caches, so one model instance can serve
/// concurrent inference (the FlowService shares a
/// `shared_ptr<const BoolGebraModel>` across jobs).  Dropout has none: it
/// is the identity at evaluation time, and the model skips it.  Each call
/// allocates its own outputs, so concurrent calls share no buffer.

#include "nn/matrix.hpp"
#include "util/rng.hpp"

namespace bg::nn {

/// A view of one trainable tensor for the optimizer.
struct ParamRef {
    float* value = nullptr;
    float* grad = nullptr;
    std::size_t size = 0;
};

class Linear {
public:
    Linear(std::size_t in, std::size_t out, bg::Rng& rng);

    /// Training pass: caches the input for backward.
    Matrix forward(ConstMatrixView x, bg::ThreadPool* pool = nullptr);
    /// Same output bits as forward() without touching any member.
    Matrix forward_eval(ConstMatrixView x,
                        bg::ThreadPool* pool = nullptr) const;
    /// Accumulates parameter gradients, returns dL/dx.
    Matrix backward(const Matrix& dy);

    void zero_grad();
    std::vector<ParamRef> params();

    std::size_t in_dim() const { return w_.rows(); }
    std::size_t out_dim() const { return w_.cols(); }
    Matrix& weights() { return w_; }
    std::vector<float>& bias() { return b_; }

private:
    Matrix w_;  // in x out
    std::vector<float> b_;
    Matrix gw_;
    std::vector<float> gb_;
    Matrix cache_x_;
};

/// min(max(x, 0), 6) — the paper's activation.
class ReLU6 {
public:
    Matrix forward(const Matrix& x);
    /// In-place clamp of the (by-value) input; stateless.
    Matrix forward_eval(Matrix x) const;
    Matrix backward(const Matrix& dy);

private:
    Matrix cache_x_;
};

/// ReLU6's input gradient given its input `x`: dy where 0 < x < 6, else 0
/// (also used by SageConv, which applies the activation itself).
Matrix relu6_backward(const Matrix& x, const Matrix& dy);

class Sigmoid {
public:
    Matrix forward(const Matrix& x);
    /// In-place logistic of the (by-value) input; stateless.
    Matrix forward_eval(Matrix x) const;
    Matrix backward(const Matrix& dy);

private:
    Matrix cache_y_;
};

/// Inverted dropout: scales kept elements by 1/(1-rate).  A rate of 0 is
/// the identity; evaluation skips the layer.
class Dropout {
public:
    explicit Dropout(float rate) : rate_(rate) {}

    Matrix forward(const Matrix& x, bg::Rng& rng);
    Matrix backward(const Matrix& dy);

    float rate() const { return rate_; }

private:
    float rate_;
    std::vector<float> mask_;  // per element, 0 or 1/(1-rate)
};

class BatchNorm1d {
public:
    explicit BatchNorm1d(std::size_t dim, float momentum = 0.1F,
                         float eps = 1e-5F);

    /// Training pass on batch statistics.  A single-row batch falls back
    /// to forward_eval() (no cache, no running-statistics update).
    Matrix forward(const Matrix& x);
    /// Running statistics for a single row, batch statistics otherwise;
    /// touches no member.
    Matrix forward_eval(const Matrix& x) const;
    Matrix backward(const Matrix& dy);

    void zero_grad();
    std::vector<ParamRef> params();

    std::size_t dim() const { return gamma_.size(); }

private:
    /// Per-column batch mean/variance, shared by forward() and
    /// forward_eval() so their arithmetic cannot drift apart.
    void batch_stats(const Matrix& x, std::vector<float>& mean,
                     std::vector<float>& var) const;

    std::vector<float> gamma_;
    std::vector<float> beta_;
    std::vector<float> g_gamma_;
    std::vector<float> g_beta_;
    std::vector<float> running_mean_;
    std::vector<float> running_var_;
    float momentum_;
    float eps_;
    // Backward caches, filled by forward().
    Matrix cache_xhat_;
    std::vector<float> cache_inv_std_;
};

}  // namespace bg::nn
