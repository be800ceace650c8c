#include "nn/sage.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

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

/// Row r of a RowMap as its (sample, node).
struct MappedRow {
    std::size_t sample;
    std::size_t node;
};

MappedRow locate(const RowMap& map, std::size_t n, std::size_t r) {
    if (map.rows.empty()) {
        return {r / n, r % n};
    }
    const std::size_t v = map.rows[r];
    return {v % map.samples, v / map.samples};
}

/// Where row (s, j)'s operand lives in the layer input.
std::size_t operand_row(const RowMap& map, std::size_t n, std::size_t s,
                        std::size_t j) {
    return map.operands.empty() ? s * n + j
                                : map.operands[j * map.samples + s];
}

/// Where row r's own operand lives in the layer input.
std::size_t self_operand(const RowMap& map, std::size_t n, std::size_t r) {
    const auto [s, i] = locate(map, n, r);
    return operand_row(map, n, s, i);
}

/// Output rows [r0, r1) of the mean aggregation into rows 0..r1-r0 of
/// `h`: each row sums its neighbours' operand rows from +0 in CSR edge
/// order, then scales by 1/deg (isolated nodes stay 0).
void aggregate_rows(ConstMatrixView x, const Csr& csr, const RowMap& map,
                    std::size_t r0, std::size_t r1, MatrixView h) {
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
        const auto [s, i] = locate(map, n, r);
        float* hi = h.row(r - r0);
        std::fill(hi, hi + f, 0.0F);
        const auto beg = offsets[i];
        const auto end = offsets[i + 1];
        if (beg == end) {
            continue;
        }
        for (auto e = beg; e < end; ++e) {
            const float* xj = x.row(operand_row(
                map, n, s,
                static_cast<std::size_t>(
                    neighbors[static_cast<std::size_t>(e)])));
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

/// splitmix64's finalizer over a running hash and the next key word.
std::uint64_t mix(std::uint64_t h, std::uint64_t w) {
    h ^= w + 0x9E3779B97F4A7C15ULL;
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
    return h ^ (h >> 31);
}

/// One node's B rows numbered by class, in a flat open-addressing table
/// of local class ids (linear probing, power-of-two capacity at least
/// twice B, so it never fills).  Reused across the nodes of one task.
class NodeInterner {
public:
    explicit NodeInterner(std::size_t samples)
        : hash(samples), slots_(std::bit_ceil(2 * samples)) {
        first_.reserve(samples);
    }

    /// Writes row s's local class to ids[s], numbering classes by first
    /// occurrence over s, and returns the class count.  `hash[s]` must
    /// hold row s's key hash; `same(s, r)` compares rows s and r operand
    /// by operand, so a hash match alone never merges two rows.
    template <typename Same>
    std::uint32_t number(const Same& same, std::uint32_t* ids) {
        std::fill(slots_.begin(), slots_.end(), kEmpty);
        first_.clear();
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t s = 0; s < hash.size(); ++s) {
            std::size_t p = hash[s] & mask;
            for (;;) {
                const std::uint32_t c = slots_[p];
                if (c == kEmpty) {
                    ids[s] = static_cast<std::uint32_t>(first_.size());
                    slots_[p] = ids[s];
                    first_.push_back(static_cast<std::uint32_t>(s));
                    break;
                }
                const std::uint32_t r = first_[c];
                if (hash[r] == hash[s] && same(s, r)) {
                    ids[s] = c;
                    break;
                }
                p = (p + 1) & mask;
            }
        }
        return static_cast<std::uint32_t>(first_.size());
    }

    std::vector<std::uint64_t> hash;  ///< row s's key hash

private:
    static constexpr std::uint32_t kEmpty =
        std::numeric_limits<std::uint32_t>::max();
    std::vector<std::uint32_t> slots_;
    std::vector<std::uint32_t> first_;  ///< class -> its first sample
};

/// Layer 0 at node i: row (s, i)'s class is its input bits.
std::uint32_t intern_input_node(ConstMatrixView x, std::size_t n,
                                std::size_t i, NodeInterner& interner,
                                std::uint32_t* ids) {
    const std::size_t samples = interner.hash.size();
    for (std::size_t s = 0; s < samples; ++s) {
        const float* row = x.row(s * n + i);
        std::uint64_t h = 0;
        for (std::size_t c = 0; c < x.cols(); ++c) {
            h = mix(h, std::bit_cast<std::uint32_t>(row[c]));
        }
        interner.hash[s] = h;
    }
    return interner.number(
        [&](std::size_t s, std::size_t r) {
            return std::memcmp(x.row(s * n + i), x.row(r * n + i),
                               x.cols() * sizeof(float)) == 0;
        },
        ids);
}

/// Layer l at node i: row (s, i)'s class is the layer-(l-1) classes
/// `prev` of (s, i) and of its neighbours (s, j) in edge order.  `prev`
/// is node-major, so each operand is one contiguous column.
std::uint32_t intern_layer_node(const Csr& csr, const std::uint32_t* prev,
                                std::size_t i, NodeInterner& interner,
                                std::uint32_t* ids) {
    const std::size_t samples = interner.hash.size();
    const std::int32_t* nbr =
        csr.neighbors.data() + static_cast<std::size_t>(csr.offsets[i]);
    const std::size_t deg = csr.degree(i);
    const auto column = [&](std::size_t e) {
        const std::size_t node =
            e == 0 ? i : static_cast<std::size_t>(nbr[e - 1]);
        return prev + node * samples;
    };
    std::fill(interner.hash.begin(), interner.hash.end(), 0);
    for (std::size_t e = 0; e <= deg; ++e) {
        const std::uint32_t* col = column(e);
        for (std::size_t s = 0; s < samples; ++s) {
            interner.hash[s] = mix(interner.hash[s], col[s]);
        }
    }
    return interner.number(
        [&](std::size_t s, std::size_t r) {
            for (std::size_t e = 0; e <= deg; ++e) {
                const std::uint32_t* col = column(e);
                if (col[s] != col[r]) {
                    return false;
                }
            }
            return true;
        },
        ids);
}

/// Nodes per interning task.
constexpr std::size_t kInternNodes = 32;

/// Per-thread panel tiles of the layer kernel.  They belong to the pool
/// task, never to the caller, because concurrent forwards share one
/// pool; a panel task runs no nested pool loop, so one set per thread
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
    aggregate_rows(x, csr, RowMap::stacked(batch), 0, x.rows(), h.view());
}

RowClasses intern_rows(ConstMatrixView x, const Csr& csr, std::size_t batch,
                       std::size_t layers, bg::ThreadPool* pool) {
    const std::size_t n = csr.num_nodes();
    BG_EXPECTS(batch > 0, "interning needs at least one sample");
    BG_EXPECTS(x.rows() == batch * n, "feature rows must be batch * nodes");
    // Class ids and i*B + s row handles are 32-bit.
    BG_EXPECTS(x.rows() <= std::numeric_limits<std::uint32_t>::max(),
               "too many trunk rows for 32-bit class ids");
    RowClasses rc;
    rc.samples = batch;
    rc.cls.resize(layers + 1);
    rc.rep.resize(layers + 1);
    const std::size_t blocks = (n + kInternNodes - 1) / kInternNodes;
    std::vector<std::uint32_t> offset(n + 1, 0);
    for (std::size_t l = 0; l <= layers; ++l) {
        std::vector<std::uint32_t>& cls = rc.cls[l];
        cls.resize(batch * n);
        // Each node numbers its rows by first occurrence into its own
        // column of `cls`, and its class count into offset[i + 1].
        bg::for_each_index(pool, blocks, [&](std::size_t b) {
            NodeInterner interner(batch);
            const std::size_t end = std::min(n, (b + 1) * kInternNodes);
            for (std::size_t i = b * kInternNodes; i < end; ++i) {
                std::uint32_t* ids = cls.data() + i * batch;
                offset[i + 1] =
                    l == 0 ? intern_input_node(x, n, i, interner, ids)
                           : intern_layer_node(csr, rc.cls[l - 1].data(), i,
                                               interner, ids);
            }
        });
        // Number the classes globally, by node: a prefix sum over the
        // per-node counts, then each node shifts its column and records
        // the first row of every class.
        for (std::size_t i = 0; i < n; ++i) {
            offset[i + 1] += offset[i];
        }
        std::vector<std::uint32_t>& rep = rc.rep[l];
        rep.resize(offset[n]);
        bg::for_each_index(pool, blocks, [&](std::size_t b) {
            const std::size_t end = std::min(n, (b + 1) * kInternNodes);
            for (std::size_t i = b * kInternNodes; i < end; ++i) {
                std::uint32_t* ids = cls.data() + i * batch;
                std::uint32_t fresh = 0;
                for (std::size_t s = 0; s < batch; ++s) {
                    if (ids[s] == fresh) {
                        rep[offset[i] + fresh] =
                            static_cast<std::uint32_t>(i * batch + s);
                        ++fresh;
                    }
                    ids[s] += offset[i];
                }
            }
        });
    }
    return rc;
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

void mean_pool(ConstMatrixView x, std::size_t batch, Matrix& pooled,
               std::span<const std::uint32_t> cls) {
    const std::size_t total = cls.empty() ? x.rows() : cls.size();
    BG_EXPECTS(batch > 0 && total % batch == 0,
               "rows must divide evenly into batch blocks");
    const std::size_t n = total / batch;
    const std::size_t f = x.cols();
    pooled = Matrix(batch, f);
    const float inv = 1.0F / static_cast<float>(n);
    for (std::size_t b = 0; b < batch; ++b) {
        float* p = pooled.row(b);
        for (std::size_t i = 0; i < n; ++i) {
            const float* xi =
                x.row(cls.empty() ? b * n + i : cls[i * batch + b]);
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
                          const RowMap& map, MatrixView out, MatrixView agg,
                          MatrixView pre, bg::ThreadPool* pool) const {
    const std::size_t n = csr.num_nodes();
    const bool mapped = !map.rows.empty();
    const std::size_t rows = mapped ? map.rows.size() : map.samples * n;
    const std::size_t in = in_dim();
    const std::size_t width = out_dim();
    BG_EXPECTS(x.cols() == in, "sage input width mismatch");
    BG_EXPECTS(out.rows() == rows && out.cols() == width,
               "sage output shape mismatch");
    if (mapped) {
        BG_EXPECTS(map.operands.size() == map.samples * n,
                   "row map needs one operand per (sample, node)");
        BG_EXPECTS(std::all_of(map.rows.begin(), map.rows.end(),
                               [&](std::uint32_t v) {
                                   return v < map.operands.size();
                               }) &&
                       std::all_of(map.operands.begin(), map.operands.end(),
                                   [&](std::uint32_t r) {
                                       return r < x.rows();
                                   }),
                   "row map points outside its rows or operands");
    } else {
        BG_EXPECTS(map.operands.empty() && x.rows() == map.samples * n,
                   "feature rows must be batch * nodes");
    }
    // Every product starts from +0 and accumulates in ascending k, as
    // matmul into a fresh matrix does, whichever row or panel computes it.
    // Each input row's self product is computed once, into a table read by
    // operand row: a class map's rows share self operands.
    Matrix self_table(x.rows(), width);
    gemm_accumulate(x, w_self_, self_table.view(), pool);
    const std::size_t panels = (rows + kRowPanel - 1) / kRowPanel;
    bg::for_each_index(pool, panels, [&](std::size_t p) {
        const std::size_t r0 = p * kRowPanel;
        const std::size_t m = std::min(kRowPanel, rows - r0);
        const std::size_t agg_len = agg.empty() ? m * in : 0;
        auto& tiles = t_panel_tiles;
        if (tiles.size() < agg_len + m * width) {
            tiles.resize(agg_len + m * width);
        }
        const MatrixView h = agg.empty() ? MatrixView(tiles.data(), m, in, in)
                                         : agg.rows_view(r0, m);
        aggregate_rows(x, csr, map, r0, r0 + m, h);
        float* neigh = tiles.data() + agg_len;
        std::fill(neigh, neigh + m * width, 0.0F);
        gemm_accumulate(h, w_neigh_, MatrixView(neigh, m, width, width),
                        nullptr);
        const float* bias = b_.data();
        for (std::size_t r = 0; r < m; ++r) {
            const float* sr = self_table.row(self_operand(map, n, r0 + r));
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
    run_panels(x, csr, RowMap::stacked(batch), y, cache_h_, cache_pre_,
               pool);
    csr_ = &csr;
    batch_ = batch;
    return y;
}

void SageConv::forward_eval(ConstMatrixView x, const Csr& csr,
                            const RowMap& map, MatrixView out,
                            bg::ThreadPool* pool) const {
    run_panels(x, csr, map, out, {}, {}, pool);
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
