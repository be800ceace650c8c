#include "nn/layers.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace bg::nn {

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

Linear::Linear(std::size_t in, std::size_t out, bg::Rng& rng)
    : w_(Matrix::xavier(in, out, rng)),
      b_(out, 0.0F),
      gw_(in, out),
      gb_(out, 0.0F) {}

Matrix Linear::forward(ConstMatrixView x, bg::ThreadPool* pool) {
    cache_x_ = Matrix(x);
    return forward_eval(x, pool);
}

Matrix Linear::forward_eval(ConstMatrixView x, bg::ThreadPool* pool) const {
    BG_EXPECTS(x.cols() == w_.rows(), "linear input width mismatch");
    Matrix y;
    matmul(x, w_, y, pool);
    add_row_bias(y, b_);
    return y;
}

Matrix Linear::backward(const Matrix& dy) {
    BG_EXPECTS(!cache_x_.empty() && dy.rows() == cache_x_.rows(),
               "linear backward needs a forward first");
    Matrix gw_batch;
    matmul_tn(cache_x_, dy, gw_batch);
    for (std::size_t i = 0; i < gw_.size(); ++i) {
        gw_.data()[i] += gw_batch.data()[i];
    }
    accumulate_bias_grad(dy, gb_);
    Matrix dx;
    matmul_nt(dy, w_, dx);
    return dx;
}

void Linear::zero_grad() {
    gw_.fill(0.0F);
    std::fill(gb_.begin(), gb_.end(), 0.0F);
}

std::vector<ParamRef> Linear::params() {
    return {
        {w_.data().data(), gw_.data().data(), w_.size()},
        {b_.data(), gb_.data(), b_.size()},
    };
}

// ---------------------------------------------------------------------------
// ReLU6
// ---------------------------------------------------------------------------

Matrix ReLU6::forward(const Matrix& x) {
    cache_x_ = x;
    return forward_eval(x);
}

Matrix ReLU6::forward_eval(Matrix x) const {
    for (auto& v : x.data()) {
        v = std::clamp(v, 0.0F, 6.0F);
    }
    return x;
}

Matrix ReLU6::backward(const Matrix& dy) {
    return relu6_backward(cache_x_, dy);
}

Matrix relu6_backward(const Matrix& x, const Matrix& dy) {
    BG_EXPECTS(dy.size() == x.size(), "relu6 backward shape mismatch");
    Matrix dx = dy;
    for (std::size_t i = 0; i < dx.size(); ++i) {
        const float v = x.data()[i];
        if (v <= 0.0F || v >= 6.0F) {
            dx.data()[i] = 0.0F;
        }
    }
    return dx;
}

// ---------------------------------------------------------------------------
// Sigmoid
// ---------------------------------------------------------------------------

Matrix Sigmoid::forward(const Matrix& x) {
    Matrix y = forward_eval(x);
    cache_y_ = y;
    return y;
}

Matrix Sigmoid::forward_eval(Matrix x) const {
    for (auto& v : x.data()) {
        v = 1.0F / (1.0F + std::exp(-v));
    }
    return x;
}

Matrix Sigmoid::backward(const Matrix& dy) {
    BG_EXPECTS(dy.size() == cache_y_.size(), "sigmoid backward shape mismatch");
    Matrix dx = dy;
    for (std::size_t i = 0; i < dx.size(); ++i) {
        const float y = cache_y_.data()[i];
        dx.data()[i] *= y * (1.0F - y);
    }
    return dx;
}

// ---------------------------------------------------------------------------
// Dropout
// ---------------------------------------------------------------------------

Matrix Dropout::forward(const Matrix& x, bg::Rng& rng) {
    if (rate_ <= 0.0F) {
        return x;
    }
    const float keep = 1.0F - rate_;
    const float scale = 1.0F / keep;
    mask_.assign(x.size(), 0.0F);
    Matrix y = x;
    for (std::size_t i = 0; i < y.size(); ++i) {
        if (rng.next_float() < keep) {
            mask_[i] = scale;
            y.data()[i] *= scale;
        } else {
            y.data()[i] = 0.0F;
        }
    }
    return y;
}

Matrix Dropout::backward(const Matrix& dy) {
    if (rate_ <= 0.0F) {
        return dy;
    }
    BG_EXPECTS(dy.size() == mask_.size(), "dropout backward shape mismatch");
    Matrix dx = dy;
    for (std::size_t i = 0; i < dx.size(); ++i) {
        dx.data()[i] *= mask_[i];
    }
    return dx;
}

// ---------------------------------------------------------------------------
// BatchNorm1d
// ---------------------------------------------------------------------------

BatchNorm1d::BatchNorm1d(std::size_t dim, float momentum, float eps)
    : gamma_(dim, 1.0F),
      beta_(dim, 0.0F),
      g_gamma_(dim, 0.0F),
      g_beta_(dim, 0.0F),
      running_mean_(dim, 0.0F),
      running_var_(dim, 1.0F),
      momentum_(momentum),
      eps_(eps) {}

void BatchNorm1d::batch_stats(const Matrix& x, std::vector<float>& mean,
                              std::vector<float>& var) const {
    const std::size_t n = x.rows();
    const std::size_t d = x.cols();
    mean.assign(d, 0.0F);
    var.assign(d, 0.0F);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < d; ++j) {
            mean[j] += x.at(i, j);
        }
    }
    for (auto& m : mean) {
        m /= static_cast<float>(n);
    }
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < d; ++j) {
            const float c = x.at(i, j) - mean[j];
            var[j] += c * c;
        }
    }
    for (auto& v : var) {
        v /= static_cast<float>(n);
    }
}

Matrix BatchNorm1d::forward(const Matrix& x) {
    if (x.rows() == 1) {
        // A degenerate single-row batch (backward then requires a fresh
        // multi-row forward): no cache, no running-stat update — same bits
        // as the const path.
        cache_xhat_ = Matrix();
        cache_inv_std_.clear();
        return forward_eval(x);
    }
    BG_EXPECTS(x.cols() == gamma_.size(), "batchnorm width mismatch");
    const std::size_t n = x.rows();
    const std::size_t d = x.cols();
    std::vector<float> mean;
    std::vector<float> var;
    batch_stats(x, mean, var);

    cache_xhat_ = Matrix(n, d);
    cache_inv_std_.assign(d, 0.0F);
    for (std::size_t j = 0; j < d; ++j) {
        cache_inv_std_[j] = 1.0F / std::sqrt(var[j] + eps_);
        running_mean_[j] =
            (1.0F - momentum_) * running_mean_[j] + momentum_ * mean[j];
        running_var_[j] =
            (1.0F - momentum_) * running_var_[j] + momentum_ * var[j];
    }
    Matrix y(n, d);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < d; ++j) {
            const float xhat = (x.at(i, j) - mean[j]) * cache_inv_std_[j];
            cache_xhat_.at(i, j) = xhat;
            y.at(i, j) = gamma_[j] * xhat + beta_[j];
        }
    }
    return y;
}

Matrix BatchNorm1d::forward_eval(const Matrix& x) const {
    BG_EXPECTS(x.cols() == gamma_.size(), "batchnorm width mismatch");
    const std::size_t n = x.rows();
    const std::size_t d = x.cols();
    Matrix y(n, d);
    // Batch statistics are used whenever the batch is large enough —
    // including at evaluation time.  With graph-level mean pooling the
    // inter-sample signal is small relative to the running variance, and
    // the standard running-stat eval mode washes it out (a known
    // small-batch-regression pathology); normalizing the evaluation batch
    // itself preserves the ranking the predictor was trained to produce.
    if (n == 1) {
        for (std::size_t j = 0; j < d; ++j) {
            const float inv = 1.0F / std::sqrt(running_var_[j] + eps_);
            const float xhat = (x.at(0, j) - running_mean_[j]) * inv;
            y.at(0, j) = gamma_[j] * xhat + beta_[j];
        }
        return y;
    }
    std::vector<float> mean;
    std::vector<float> var;
    batch_stats(x, mean, var);
    for (std::size_t j = 0; j < d; ++j) {
        const float inv_std = 1.0F / std::sqrt(var[j] + eps_);
        for (std::size_t i = 0; i < n; ++i) {
            const float xhat = (x.at(i, j) - mean[j]) * inv_std;
            y.at(i, j) = gamma_[j] * xhat + beta_[j];
        }
    }
    return y;
}

Matrix BatchNorm1d::backward(const Matrix& dy) {
    BG_EXPECTS(!cache_xhat_.empty(),
               "batchnorm backward requires a multi-row forward");
    const std::size_t n = dy.rows();
    const std::size_t d = dy.cols();
    // Standard batch-norm gradient.
    std::vector<float> sum_dy(d, 0.0F);
    std::vector<float> sum_dy_xhat(d, 0.0F);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < d; ++j) {
            sum_dy[j] += dy.at(i, j);
            sum_dy_xhat[j] += dy.at(i, j) * cache_xhat_.at(i, j);
        }
    }
    for (std::size_t j = 0; j < d; ++j) {
        g_beta_[j] += sum_dy[j];
        g_gamma_[j] += sum_dy_xhat[j];
    }
    Matrix dx(n, d);
    const float inv_n = 1.0F / static_cast<float>(n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < d; ++j) {
            const float term = dy.at(i, j) - inv_n * sum_dy[j] -
                               inv_n * cache_xhat_.at(i, j) * sum_dy_xhat[j];
            dx.at(i, j) = gamma_[j] * cache_inv_std_[j] * term;
        }
    }
    return dx;
}

void BatchNorm1d::zero_grad() {
    std::fill(g_gamma_.begin(), g_gamma_.end(), 0.0F);
    std::fill(g_beta_.begin(), g_beta_.end(), 0.0F);
}

std::vector<ParamRef> BatchNorm1d::params() {
    return {
        {gamma_.data(), g_gamma_.data(), gamma_.size()},
        {beta_.data(), g_beta_.data(), beta_.size()},
    };
}

}  // namespace bg::nn
