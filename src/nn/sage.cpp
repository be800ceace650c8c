#include "nn/sage.hpp"

#include <algorithm>

#include "util/contracts.hpp"
#include "util/parallel.hpp"

namespace bg::nn {

void Csr::build_inv_deg() {
    const std::size_t n = num_nodes();
    inv_deg.assign(n, 0.0F);
    for (std::size_t v = 0; v < n; ++v) {
        const auto deg = degree(v);
        if (deg != 0) {
            // Exactly the expression the aggregation fallback uses, so the
            // cached and on-the-fly paths stay bit-identical.
            inv_deg[v] = 1.0F / static_cast<float>(deg);
        }
    }
}

namespace {

/// Rows [r0, r1) of the mean aggregation into rows 0..r1-r0 of `h`: each
/// row sums its neighbours' rows from +0 in CSR edge order, then scales
/// by 1/deg (isolated nodes stay 0).
void aggregate_rows(ConstMatrixView x, const Csr& csr, std::size_t r0,
                    std::size_t r1, MatrixView h) {
    const std::size_t n = csr.num_nodes();
    const std::size_t f = x.cols();
    // Raw pointers: by-value view structs defeat vectorization of the
    // accumulation loop (see the GEMM kernels in matrix.cpp), and rows are
    // touched exactly once each, so no whole-matrix zero fill is needed.
    const std::int32_t* offsets = csr.offsets.data();
    const std::int32_t* neighbors = csr.neighbors.data();
    const float* inv_deg =
        csr.inv_deg.size() == n ? csr.inv_deg.data() : nullptr;
    for (std::size_t r = r0; r < r1; ++r) {
        const std::size_t b = r / n;
        const std::size_t i = r - b * n;
        const std::size_t base = b * n;
        float* hi = h.row(r - r0);
        std::fill(hi, hi + f, 0.0F);
        const auto beg = offsets[i];
        const auto end = offsets[i + 1];
        if (beg == end) {
            continue;
        }
        for (auto e = beg; e < end; ++e) {
            const float* xj =
                x.row(base + static_cast<std::size_t>(
                                 neighbors[static_cast<std::size_t>(e)]));
            for (std::size_t c = 0; c < f; ++c) {
                hi[c] += xj[c];
            }
        }
        const float inv = inv_deg != nullptr
                              ? inv_deg[i]
                              : 1.0F / static_cast<float>(end - beg);
        for (std::size_t c = 0; c < f; ++c) {
            hi[c] *= inv;
        }
    }
}

/// Per-thread panel tiles of the layer kernel.  They belong to the pool
/// task, never to a caller's scratch, because concurrent forwards share
/// one pool; a panel task runs no nested pool loop, so one set per thread
/// is never used by two tasks at once.
thread_local std::vector<float> t_panel_tiles;

}  // namespace

void mean_aggregate(ConstMatrixView x, const Csr& csr, std::size_t batch,
                    Matrix& h) {
    BG_EXPECTS(x.rows() == batch * csr.num_nodes(),
               "feature rows must be batch * nodes");
    if (!(h.rows() == x.rows() && h.cols() == x.cols())) {
        h = Matrix(x.rows(), x.cols());
    }
    aggregate_rows(x, csr, 0, x.rows(), h.view());
}

void mean_aggregate_transpose(ConstMatrixView dh, const Csr& csr,
                              std::size_t batch, Matrix& dx) {
    const std::size_t n = csr.num_nodes();
    BG_EXPECTS(dh.rows() == batch * n, "gradient rows must be batch * nodes");
    const std::size_t f = dh.cols();
    dx = Matrix(dh.rows(), f);
    for (std::size_t b = 0; b < batch; ++b) {
        const std::size_t base = b * n;
        for (std::size_t i = 0; i < n; ++i) {
            const auto deg = csr.degree(i);
            if (deg == 0) {
                continue;
            }
            const float inv = 1.0F / static_cast<float>(deg);
            const float* dhi = dh.row(base + i);
            for (auto e = csr.offsets[i]; e < csr.offsets[i + 1]; ++e) {
                float* dxj =
                    dx.row(base + static_cast<std::size_t>(csr.neighbors[
                                      static_cast<std::size_t>(e)]));
                for (std::size_t c = 0; c < f; ++c) {
                    dxj[c] += dhi[c] * inv;
                }
            }
        }
    }
}

void mean_pool(ConstMatrixView x, std::size_t batch, Matrix& pooled) {
    BG_EXPECTS(batch > 0 && x.rows() % batch == 0,
               "rows must divide evenly into batch blocks");
    const std::size_t n = x.rows() / batch;
    const std::size_t f = x.cols();
    pooled = Matrix(batch, f);
    const float inv = 1.0F / static_cast<float>(n);
    for (std::size_t b = 0; b < batch; ++b) {
        float* p = pooled.row(b);
        for (std::size_t i = 0; i < n; ++i) {
            const float* xi = x.row(b * n + i);
            for (std::size_t c = 0; c < f; ++c) {
                p[c] += xi[c];
            }
        }
        for (std::size_t c = 0; c < f; ++c) {
            p[c] *= inv;
        }
    }
}

void mean_pool_backward(const Matrix& dpooled, std::size_t num_nodes,
                        Matrix& dx) {
    const std::size_t batch = dpooled.rows();
    const std::size_t f = dpooled.cols();
    dx = Matrix(batch * num_nodes, f);
    const float inv = 1.0F / static_cast<float>(num_nodes);
    for (std::size_t b = 0; b < batch; ++b) {
        const float* dp = dpooled.row(b);
        for (std::size_t i = 0; i < num_nodes; ++i) {
            float* d = dx.row(b * num_nodes + i);
            for (std::size_t c = 0; c < f; ++c) {
                d[c] = dp[c] * inv;
            }
        }
    }
}

SageConv::SageConv(std::size_t in, std::size_t out, bg::Rng& rng)
    : w_self_(Matrix::xavier(in, out, rng)),
      w_neigh_(Matrix::xavier(in, out, rng)),
      b_(out, 0.0F),
      gw_self_(in, out),
      gw_neigh_(in, out),
      gb_(out, 0.0F) {}

void SageConv::run_panels(ConstMatrixView x, const Csr& csr,
                          std::size_t batch, MatrixView out, MatrixView agg,
                          MatrixView pre, bg::ThreadPool* pool) const {
    const std::size_t rows = x.rows();
    const std::size_t in = in_dim();
    const std::size_t width = out_dim();
    BG_EXPECTS(x.cols() == in, "sage input width mismatch");
    BG_EXPECTS(rows == batch * csr.num_nodes(),
               "feature rows must be batch * nodes");
    BG_EXPECTS(out.rows() == rows && out.cols() == width,
               "sage output shape mismatch");
    const std::size_t panels = (rows + kRowPanel - 1) / kRowPanel;
    bg::for_each_index(pool, panels, [&](std::size_t p) {
        const std::size_t r0 = p * kRowPanel;
        const std::size_t m = std::min(kRowPanel, rows - r0);
        const std::size_t agg_len = agg.empty() ? m * in : 0;
        auto& tiles = t_panel_tiles;
        if (tiles.size() < agg_len + 2 * m * width) {
            tiles.resize(agg_len + 2 * m * width);
        }
        const MatrixView h = agg.empty() ? MatrixView(tiles.data(), m, in, in)
                                         : agg.rows_view(r0, m);
        aggregate_rows(x, csr, r0, r0 + m, h);
        // Both products start from +0 and accumulate in ascending k, as
        // matmul into a fresh matrix does.
        float* self = tiles.data() + agg_len;
        float* neigh = self + m * width;
        std::fill(self, neigh + m * width, 0.0F);
        gemm_accumulate(x.rows_view(r0, m), w_self_,
                        MatrixView(self, m, width, width), nullptr);
        gemm_accumulate(h, w_neigh_, MatrixView(neigh, m, width, width),
                        nullptr);
        const float* bias = b_.data();
        for (std::size_t r = 0; r < m; ++r) {
            const float* sr = self + r * width;
            const float* nr = neigh + r * width;
            float* o = out.row(r0 + r);
            if (pre.empty()) {
                for (std::size_t c = 0; c < width; ++c) {
                    o[c] = std::clamp((sr[c] + nr[c]) + bias[c], 0.0F, 6.0F);
                }
                continue;
            }
            float* pr = pre.row(r0 + r);
            for (std::size_t c = 0; c < width; ++c) {
                pr[c] = (sr[c] + nr[c]) + bias[c];
                o[c] = std::clamp(pr[c], 0.0F, 6.0F);
            }
        }
    });
}

Matrix SageConv::forward(ConstMatrixView x, const Csr& csr,
                         std::size_t batch, bg::ThreadPool* pool) {
    cache_x_ = Matrix(x);
    cache_h_ = Matrix(x.rows(), in_dim());
    cache_pre_ = Matrix(x.rows(), out_dim());
    Matrix y(x.rows(), out_dim());
    run_panels(x, csr, batch, y, cache_h_, cache_pre_, pool);
    csr_ = &csr;
    batch_ = batch;
    return y;
}

void SageConv::forward_eval(ConstMatrixView x, const Csr& csr,
                            std::size_t batch, MatrixView out,
                            bg::ThreadPool* pool) const {
    run_panels(x, csr, batch, out, {}, {}, pool);
}

Matrix SageConv::backward(const Matrix& dy) {
    BG_EXPECTS(csr_ != nullptr, "backward without forward");
    const Matrix dpre = relu6_backward(cache_pre_, dy);
    Matrix g;
    matmul_tn(cache_x_, dpre, g);
    for (std::size_t i = 0; i < gw_self_.size(); ++i) {
        gw_self_.data()[i] += g.data()[i];
    }
    matmul_tn(cache_h_, dpre, g);
    for (std::size_t i = 0; i < gw_neigh_.size(); ++i) {
        gw_neigh_.data()[i] += g.data()[i];
    }
    accumulate_bias_grad(dpre, gb_);

    Matrix dx;
    matmul_nt(dpre, w_self_, dx);
    Matrix dh;
    matmul_nt(dpre, w_neigh_, dh);
    Matrix dx_agg;
    mean_aggregate_transpose(dh, *csr_, batch_, dx_agg);
    for (std::size_t i = 0; i < dx.size(); ++i) {
        dx.data()[i] += dx_agg.data()[i];
    }
    return dx;
}

void SageConv::zero_grad() {
    gw_self_.fill(0.0F);
    gw_neigh_.fill(0.0F);
    std::fill(gb_.begin(), gb_.end(), 0.0F);
}

std::vector<ParamRef> SageConv::params() {
    return {
        {w_self_.data().data(), gw_self_.data().data(), w_self_.size()},
        {w_neigh_.data().data(), gw_neigh_.data().data(), w_neigh_.size()},
        {b_.data(), gb_.data(), b_.size()},
    };
}

}  // namespace bg::nn
