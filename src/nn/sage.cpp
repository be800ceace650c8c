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

void mean_aggregate(ConstMatrixView x, const Csr& csr, std::size_t batch,
                    Matrix& h, bg::ThreadPool* pool) {
    const std::size_t n = csr.num_nodes();
    BG_EXPECTS(x.rows() == batch * n, "feature rows must be batch * nodes");
    const std::size_t f = x.cols();
    if (!(h.rows() == x.rows() && h.cols() == f)) {
        h = Matrix(x.rows(), f);
    }
    // Raw pointers: by-value view structs defeat vectorization of the
    // accumulation loop (see the GEMM kernels in matrix.cpp), and rows are
    // touched exactly once each, so no whole-matrix zero fill is needed.
    const std::int32_t* offsets = csr.offsets.data();
    const std::int32_t* neighbors = csr.neighbors.data();
    const float* inv_deg =
        csr.inv_deg.size() == n ? csr.inv_deg.data() : nullptr;
    // Rows are independent and each is accumulated wholly by one thread in
    // edge order, so any partition of the row range gives the same bits as
    // the serial loop.
    const auto row_range = [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
            const std::size_t b = r / n;
            const std::size_t i = r - b * n;
            const std::size_t base = b * n;
            float* hi = h.row(r);
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
    };

    const std::size_t rows = batch * n;
    const std::size_t edges = csr.neighbors.size();
    // Per-row cost ~ degree + 1; below this much total work the fork-join
    // overhead outweighs the sharding.
    constexpr std::size_t k_min_shard_work = std::size_t{1} << 15;
    if (pool == nullptr || pool->size() < 2 ||
        batch * (edges + n) < k_min_shard_work) {
        row_range(0, rows);
        return;
    }

    // Edge-balanced shard boundaries: the cumulative cost of rows before
    // global row r = (b, i) is b*(edges+n) + offsets[i] + i, monotone in
    // r, so each boundary is a binary search — heavy hubs split across
    // boundaries land wholly in one shard, light tails pack together.
    const std::size_t num_shards = std::min(rows, pool->size() * 4);
    const std::size_t total = batch * (edges + n);
    const auto cum = [&](std::size_t r) {
        const std::size_t b = r / n;
        const std::size_t i = r - b * n;
        return b * (edges + n) + static_cast<std::size_t>(offsets[i]) + i;
    };
    std::vector<std::size_t> bounds(num_shards + 1, 0);
    bounds[num_shards] = rows;
    for (std::size_t s = 1; s < num_shards; ++s) {
        const std::size_t target = total / num_shards * s;
        std::size_t lo = bounds[s - 1];
        std::size_t hi = rows;
        while (lo < hi) {
            const std::size_t mid = lo + (hi - lo) / 2;
            if (cum(mid) < target) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        bounds[s] = lo;
    }
    pool->for_each(num_shards, [&](std::size_t s) {
        row_range(bounds[s], bounds[s + 1]);
    });
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

Matrix SageConv::forward(ConstMatrixView x, const Csr& csr,
                         std::size_t batch, bg::ThreadPool* pool) {
    Matrix agg;  // aggregated neighbors
    Matrix y = forward_eval(x, csr, batch, agg, pool);
    cache_x_ = Matrix(x);
    cache_h_ = std::move(agg);
    csr_ = &csr;
    batch_ = batch;
    return y;
}

Matrix SageConv::forward_eval(ConstMatrixView x, const Csr& csr,
                              std::size_t batch, Matrix& agg,
                              bg::ThreadPool* pool) const {
    BG_EXPECTS(x.cols() == w_self_.rows(), "sage input width mismatch");
    mean_aggregate(x, csr, batch, agg, pool);
    Matrix y;
    matmul(x, w_self_, y, pool);
    Matrix yn;
    matmul(agg, w_neigh_, yn, pool);
    for (std::size_t i = 0; i < y.size(); ++i) {
        y.data()[i] += yn.data()[i];
    }
    add_row_bias(y, b_);
    return y;
}

Matrix SageConv::backward(const Matrix& dy) {
    BG_EXPECTS(csr_ != nullptr, "backward without forward");
    Matrix g;
    matmul_tn(cache_x_, dy, g);
    for (std::size_t i = 0; i < gw_self_.size(); ++i) {
        gw_self_.data()[i] += g.data()[i];
    }
    matmul_tn(cache_h_, dy, g);
    for (std::size_t i = 0; i < gw_neigh_.size(); ++i) {
        gw_neigh_.data()[i] += g.data()[i];
    }
    accumulate_bias_grad(dy, gb_);

    Matrix dx;
    matmul_nt(dy, w_self_, dx);
    Matrix dh;
    matmul_nt(dy, w_neigh_, dh);
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
