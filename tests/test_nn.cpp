#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>

#include "naive_gemm.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/matrix.hpp"
#include "nn/optimizer.hpp"
#include "nn/sage.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using namespace bg::nn;  // NOLINT: test brevity

Matrix random_matrix(std::size_t r, std::size_t c, bg::Rng& rng,
                     float scale = 1.0F) {
    Matrix m(r, c);
    for (auto& v : m.data()) {
        v = static_cast<float>(rng.next_gaussian()) * scale;
    }
    return m;
}

/// Central finite difference of a scalar function w.r.t. one float.
double numeric_grad(float* x, const std::function<double()>& f,
                    double h = 1e-3) {
    const float saved = *x;
    *x = static_cast<float>(saved + h);
    const double up = f();
    *x = static_cast<float>(saved - h);
    const double down = f();
    *x = saved;
    return (up - down) / (2.0 * h);
}

TEST(Matrix, MatmulAgainstReference) {
    bg::Rng rng(1);
    const Matrix a = random_matrix(3, 4, rng);
    const Matrix b = random_matrix(4, 5, rng);
    Matrix c;
    matmul(a, b, c);
    for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t j = 0; j < 5; ++j) {
            float ref = 0;
            for (std::size_t k = 0; k < 4; ++k) {
                ref += a.at(i, k) * b.at(k, j);
            }
            EXPECT_NEAR(c.at(i, j), ref, 1e-4);
        }
    }
}

TEST(Matrix, TransposedVariants) {
    bg::Rng rng(2);
    const Matrix a = random_matrix(4, 3, rng);
    const Matrix b = random_matrix(4, 5, rng);
    Matrix c;
    matmul_tn(a, b, c);  // (3x4)*(4x5)
    EXPECT_EQ(c.rows(), 3u);
    EXPECT_EQ(c.cols(), 5u);
    for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t j = 0; j < 5; ++j) {
            float ref = 0;
            for (std::size_t k = 0; k < 4; ++k) {
                ref += a.at(k, i) * b.at(k, j);
            }
            EXPECT_NEAR(c.at(i, j), ref, 1e-4);
        }
    }
    const Matrix d = random_matrix(6, 3, rng);
    const Matrix e = random_matrix(5, 3, rng);
    Matrix f;
    matmul_nt(d, e, f);  // (6x3)*(3x5)
    EXPECT_EQ(f.rows(), 6u);
    EXPECT_EQ(f.cols(), 5u);
    for (std::size_t i = 0; i < 6; ++i) {
        for (std::size_t j = 0; j < 5; ++j) {
            float ref = 0;
            for (std::size_t k = 0; k < 3; ++k) {
                ref += d.at(i, k) * e.at(j, k);
            }
            EXPECT_NEAR(f.at(i, j), ref, 1e-4);
        }
    }
}

TEST(Matrix, XavierBounds) {
    bg::Rng rng(3);
    const Matrix m = Matrix::xavier(100, 50, rng);
    const float bound = std::sqrt(6.0F / 150.0F);
    for (const float v : m.data()) {
        EXPECT_LE(std::abs(v), bound + 1e-6F);
    }
}

TEST(Linear, GradientCheck) {
    bg::Rng rng(4);
    Linear lin(5, 3, rng);
    const Matrix x = random_matrix(4, 5, rng);
    const std::vector<float> target{0.3F, -0.1F, 0.7F, 0.2F};

    // Scalar objective: sum of squares of outputs (simple and smooth).
    const auto objective = [&]() {
        Linear copy = lin;  // forward only; cache irrelevant
        const Matrix y = copy.forward(x);
        double s = 0;
        for (const float v : y.data()) {
            s += 0.5 * v * v;
        }
        return s;
    };

    lin.zero_grad();
    const Matrix y = lin.forward(x);
    Matrix dy = y;  // dL/dy = y for L = 0.5*sum(y^2)
    const Matrix dx = lin.backward(dy);

    // Check a few weight gradients.
    auto params = lin.params();
    for (const std::size_t i : {0UL, 3UL, 7UL, 14UL}) {
        const double num = numeric_grad(&params[0].value[i], objective);
        EXPECT_NEAR(params[0].grad[i], num, 5e-2)
            << "weight gradient " << i;
    }
    for (const std::size_t i : {0UL, 2UL}) {
        const double num = numeric_grad(&params[1].value[i], objective);
        EXPECT_NEAR(params[1].grad[i], num, 5e-2) << "bias gradient " << i;
    }
    // Input gradient via perturbing x requires re-running forward; check
    // shape only here (input grads are covered by the SAGE test below).
    EXPECT_EQ(dx.rows(), x.rows());
    EXPECT_EQ(dx.cols(), x.cols());
}

TEST(ReLU6, ForwardBackward) {
    Matrix x(1, 5);
    x.at(0, 0) = -1.0F;
    x.at(0, 1) = 0.5F;
    x.at(0, 2) = 5.9F;
    x.at(0, 3) = 7.0F;
    x.at(0, 4) = 0.0F;
    ReLU6 act;
    const Matrix y = act.forward(x);
    EXPECT_FLOAT_EQ(y.at(0, 0), 0.0F);
    EXPECT_FLOAT_EQ(y.at(0, 1), 0.5F);
    EXPECT_FLOAT_EQ(y.at(0, 2), 5.9F);
    EXPECT_FLOAT_EQ(y.at(0, 3), 6.0F);
    Matrix dy(1, 5);
    dy.fill(1.0F);
    const Matrix dx = act.backward(dy);
    EXPECT_FLOAT_EQ(dx.at(0, 0), 0.0F);  // clipped below
    EXPECT_FLOAT_EQ(dx.at(0, 1), 1.0F);
    EXPECT_FLOAT_EQ(dx.at(0, 2), 1.0F);
    EXPECT_FLOAT_EQ(dx.at(0, 3), 0.0F);  // clipped above
}

TEST(Sigmoid, ForwardBackward) {
    Matrix x(1, 3);
    x.at(0, 0) = 0.0F;
    x.at(0, 1) = 100.0F;
    x.at(0, 2) = -100.0F;
    Sigmoid s;
    const Matrix y = s.forward(x);
    EXPECT_NEAR(y.at(0, 0), 0.5, 1e-6);
    EXPECT_NEAR(y.at(0, 1), 1.0, 1e-6);
    EXPECT_NEAR(y.at(0, 2), 0.0, 1e-6);
    Matrix dy(1, 3);
    dy.fill(1.0F);
    const Matrix dx = s.backward(dy);
    EXPECT_NEAR(dx.at(0, 0), 0.25, 1e-6);
    EXPECT_NEAR(dx.at(0, 1), 0.0, 1e-6);
}

TEST(Dropout, TrainEvalBehaviour) {
    bg::Rng rng(5);
    Dropout drop(0.5F);
    Matrix x(10, 20);
    x.fill(1.0F);
    const Matrix train = drop.forward(x, rng);
    std::size_t zeros = 0;
    for (const float v : train.data()) {
        if (v == 0.0F) {
            ++zeros;
        } else {
            EXPECT_FLOAT_EQ(v, 2.0F);  // inverted scaling 1/(1-0.5)
        }
    }
    EXPECT_GT(zeros, 50u);
    EXPECT_LT(zeros, 150u);
    // Backward uses the same mask.
    Matrix dy(10, 20);
    dy.fill(1.0F);
    const Matrix dx = drop.backward(dy);
    for (std::size_t i = 0; i < dx.size(); ++i) {
        EXPECT_FLOAT_EQ(dx.data()[i], train.data()[i]);
    }
    // A rate of 0 is the identity both ways and draws nothing.
    Dropout off(0.0F);
    const bg::Rng before = rng;
    const Matrix same = off.forward(x, rng);
    const Matrix back = off.backward(dy);
    for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_EQ(same.data()[i], x.data()[i]);
        EXPECT_EQ(back.data()[i], dy.data()[i]);
    }
    EXPECT_EQ(rng.next_u64(), bg::Rng(before).next_u64());
}

TEST(BatchNorm, NormalizesBatch) {
    bg::Rng rng(6);
    BatchNorm1d bn(4);
    const Matrix x = random_matrix(32, 4, rng, 5.0F);
    const Matrix y = bn.forward(x);
    for (std::size_t j = 0; j < 4; ++j) {
        double mean = 0;
        double var = 0;
        for (std::size_t i = 0; i < 32; ++i) {
            mean += y.at(i, j);
        }
        mean /= 32;
        for (std::size_t i = 0; i < 32; ++i) {
            var += (y.at(i, j) - mean) * (y.at(i, j) - mean);
        }
        var /= 32;
        EXPECT_NEAR(mean, 0.0, 1e-4);
        EXPECT_NEAR(var, 1.0, 1e-2);
    }
}

TEST(BatchNorm, GradientCheck) {
    bg::Rng rng(7);
    BatchNorm1d bn(3);
    Matrix x = random_matrix(8, 3, rng);

    const auto objective = [&]() {
        BatchNorm1d copy = bn;
        const Matrix y = copy.forward(x);
        double s = 0;
        for (std::size_t i = 0; i < y.size(); ++i) {
            s += 0.5 * y.data()[i] * y.data()[i];
        }
        return s;
    };

    bn.zero_grad();
    const Matrix y = bn.forward(x);
    const Matrix dx = bn.backward(y);

    auto params = bn.params();
    for (const std::size_t i : {0UL, 1UL, 2UL}) {
        EXPECT_NEAR(params[0].grad[i], numeric_grad(&params[0].value[i],
                                                    objective),
                    5e-2)
            << "gamma " << i;
        EXPECT_NEAR(params[1].grad[i], numeric_grad(&params[1].value[i],
                                                    objective),
                    5e-2)
            << "beta " << i;
    }
    // Input gradient by perturbing an entry of x.
    for (const std::size_t i : {0UL, 5UL, 11UL}) {
        const double num = numeric_grad(&x.data()[i], objective);
        EXPECT_NEAR(dx.data()[i], num, 5e-2) << "input " << i;
    }
}

Csr line_graph(std::size_t n) {
    // 0 - 1 - 2 - ... - (n-1)
    Csr csr;
    csr.offsets.assign(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const int deg = (i == 0 || i + 1 == n) ? 1 : 2;
        csr.offsets[i + 1] = csr.offsets[i] + deg;
    }
    csr.neighbors.resize(static_cast<std::size_t>(csr.offsets[n]));
    std::size_t cursor = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (i > 0) {
            csr.neighbors[cursor++] = static_cast<std::int32_t>(i - 1);
        }
        if (i + 1 < n) {
            csr.neighbors[cursor++] = static_cast<std::int32_t>(i + 1);
        }
    }
    return csr;
}

TEST(Sage, MeanAggregateCachedInvDegBitIdenticalToFallback) {
    // The precomputed-1/deg fast path must reproduce the on-the-fly
    // division bit for bit, including reuse of a stale output matrix.
    bg::Rng rng(123);
    for (const std::size_t n : {1UL, 3UL, 17UL, 64UL}) {
        Csr plain = line_graph(n);
        Csr cached = plain;
        cached.build_inv_deg();
        ASSERT_EQ(cached.inv_deg.size(), n);
        for (const std::size_t batch : {1UL, 2UL, 5UL}) {
            Matrix x(batch * n, 7);
            for (auto& v : x.data()) {
                v = rng.next_float() * 2.0F - 1.0F;
            }
            Matrix h_plain;
            Matrix h_cached(batch * n, 7);
            h_cached.fill(42.0F);  // stale storage must be overwritten
            mean_aggregate(x, plain, batch, h_plain);
            mean_aggregate(x, cached, batch, h_cached);
            ASSERT_EQ(h_plain.rows(), h_cached.rows());
            for (std::size_t i = 0; i < h_plain.size(); ++i) {
                ASSERT_EQ(h_plain.data()[i], h_cached.data()[i])
                    << "n=" << n << " batch=" << batch << " elt " << i;
            }
        }
    }
}

/// Random graph with a heavy hub (node 0 adjacent to everything), plus
/// random extra edges including self-loops and repeats: one row carries a
/// large share of the edges.
Csr hub_graph(std::size_t n, bg::Rng& rng) {
    std::vector<std::vector<std::int32_t>> adj(n);
    for (std::size_t i = 1; i < n; ++i) {
        adj[0].push_back(static_cast<std::int32_t>(i));
        adj[i].push_back(0);
    }
    for (std::size_t e = 0; e < 2 * n; ++e) {
        const auto u = rng.next_below(n);
        const auto v = rng.next_below(n);
        adj[u].push_back(static_cast<std::int32_t>(v));
    }
    Csr csr;
    csr.offsets.assign(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
        csr.offsets[i + 1] =
            csr.offsets[i] + static_cast<std::int32_t>(adj[i].size());
    }
    for (std::size_t i = 0; i < n; ++i) {
        csr.neighbors.insert(csr.neighbors.end(), adj[i].begin(),
                             adj[i].end());
    }
    csr.build_inv_deg();
    return csr;
}

/// Node 1 is isolated; nodes 0 and 2 are adjacent.
Csr isolated_node_graph() {
    Csr csr;
    csr.offsets = {0, 1, 1, 2};
    csr.neighbors = {2, 0};
    csr.build_inv_deg();
    return csr;
}

TEST(Sage, MeanAggregateZeroesIsolatedNodes) {
    // Node 1's output row must be zero even when the output matrix is
    // reused with stale contents.
    const Csr csr = isolated_node_graph();
    EXPECT_EQ(csr.inv_deg[1], 0.0F);
    Matrix x(3, 2);
    x.at(0, 0) = 4.0F;
    x.at(2, 0) = 8.0F;
    Matrix h(3, 2);
    h.fill(9.0F);
    mean_aggregate(x, csr, 1, h);
    EXPECT_FLOAT_EQ(h.at(0, 0), 8.0F);
    EXPECT_FLOAT_EQ(h.at(1, 0), 0.0F);
    EXPECT_FLOAT_EQ(h.at(1, 1), 0.0F);
    EXPECT_FLOAT_EQ(h.at(2, 0), 4.0F);
}

TEST(Sage, MeanAggregationSemantics) {
    const Csr csr = line_graph(3);
    Matrix x(3, 2);
    x.at(0, 0) = 1.0F;
    x.at(1, 0) = 2.0F;
    x.at(2, 0) = 4.0F;
    Matrix h;
    mean_aggregate(x, csr, 1, h);
    EXPECT_FLOAT_EQ(h.at(0, 0), 2.0F);           // neighbor {1}
    EXPECT_FLOAT_EQ(h.at(1, 0), (1.0F + 4.0F) / 2.0F);
    EXPECT_FLOAT_EQ(h.at(2, 0), 2.0F);
}

TEST(Sage, BatchBlocksAreIndependent) {
    const Csr csr = line_graph(3);
    Matrix x(6, 1);
    for (std::size_t i = 0; i < 6; ++i) {
        x.at(i, 0) = static_cast<float>(i);
    }
    Matrix h;
    mean_aggregate(x, csr, 2, h);
    // Second block must aggregate rows 3..5 only.
    EXPECT_FLOAT_EQ(h.at(3, 0), 4.0F);
    EXPECT_FLOAT_EQ(h.at(5, 0), 4.0F);
}

TEST(Sage, GradientCheck) {
    bg::Rng rng(8);
    const Csr csr = line_graph(4);
    SageConv conv(3, 2, rng);
    Matrix x = random_matrix(8, 3, rng);  // batch of 2

    const auto objective = [&]() {
        SageConv copy = conv;
        const Matrix y = copy.forward(x, csr, 2);
        double s = 0;
        for (const float v : y.data()) {
            s += 0.5 * v * v;
        }
        return s;
    };

    conv.zero_grad();
    const Matrix y = conv.forward(x, csr, 2);
    const Matrix dx = conv.backward(y);

    auto params = conv.params();
    for (std::size_t p = 0; p < params.size(); ++p) {
        for (std::size_t i = 0; i < std::min<std::size_t>(params[p].size, 4);
             ++i) {
            const double num = numeric_grad(&params[p].value[i], objective);
            EXPECT_NEAR(params[p].grad[i], num, 5e-2)
                << "param " << p << " index " << i;
        }
    }
    for (const std::size_t i : {0UL, 7UL, 15UL, 23UL}) {
        const double num = numeric_grad(&x.data()[i], objective);
        EXPECT_NEAR(dx.data()[i], num, 5e-2) << "input " << i;
    }
}

/// The SAGE layer composed the unfused way from independent parts: a
/// plain serial mean aggregation, the naive GEMMs, elementwise add, bias
/// and clamp.
Matrix sage_reference(ConstMatrixView x, const Csr& csr, const Matrix& w_self,
                      const Matrix& w_neigh, std::span<const float> bias) {
    const std::size_t n = csr.num_nodes();
    Matrix agg(x.rows(), x.cols());
    for (std::size_t r = 0; r < x.rows(); ++r) {
        const std::size_t base = r / n * n;
        const std::size_t i = r % n;
        if (csr.degree(i) == 0) {
            continue;
        }
        for (auto e = csr.offsets[i]; e < csr.offsets[i + 1]; ++e) {
            const float* xj = x.row(
                base + static_cast<std::size_t>(
                           csr.neighbors[static_cast<std::size_t>(e)]));
            for (std::size_t c = 0; c < x.cols(); ++c) {
                agg.at(r, c) += xj[c];
            }
        }
        const float inv = 1.0F / static_cast<float>(csr.degree(i));
        for (std::size_t c = 0; c < x.cols(); ++c) {
            agg.at(r, c) *= inv;
        }
    }
    Matrix y;
    bg::test::matmul_naive(x, w_self, y);
    Matrix yn;
    bg::test::matmul_naive(agg, w_neigh, yn);
    for (std::size_t r = 0; r < y.rows(); ++r) {
        for (std::size_t c = 0; c < y.cols(); ++c) {
            const float sum = y.at(r, c) + yn.at(r, c);
            y.at(r, c) = std::clamp(sum + bias[c], 0.0F, 6.0F);
        }
    }
    return y;
}

/// A class map over `batch` samples of `n` nodes whose operands repeat
/// (fewer operand rows than (sample, node) pairs) in random order, and
/// whose output rows list every (sample, node) row shuffled, then the
/// first few again.
struct MappedCase {
    std::vector<std::uint32_t> rows;
    std::vector<std::uint32_t> operands;
    std::size_t operand_rows = 0;
};

MappedCase random_map(std::size_t batch, std::size_t n, bg::Rng& rng) {
    MappedCase mc;
    const std::size_t total = batch * n;
    mc.operand_rows = total / 2 + 1;
    mc.operands.resize(total);
    for (auto& o : mc.operands) {
        o = static_cast<std::uint32_t>(rng.next_below(mc.operand_rows));
    }
    mc.rows.resize(total);
    for (std::size_t v = 0; v < total; ++v) {
        mc.rows[v] = static_cast<std::uint32_t>(v);
    }
    for (std::size_t v = total; v > 1; --v) {
        std::swap(mc.rows[v - 1], mc.rows[rng.next_below(v)]);
    }
    for (std::size_t k = 0; k < std::min<std::size_t>(total, 5); ++k) {
        mc.rows.push_back(mc.rows[k]);
    }
    return mc;
}

TEST(Sage, PanelKernelBitIdenticalToUnfusedReference) {
    // The fused per-panel layer must reproduce the unfused composition bit
    // for bit: row counts off the 64-row panel grid, widths off the
    // 32-wide register tile, hub-skewed and isolated-node graphs, the
    // on-the-fly 1/deg fallback, strided inputs, stale output buffers, and
    // any pool size.  The mapped form must too: it computes listed rows,
    // repeated and reordered, from operand rows that repeat, and the
    // isolated graph gives some of them no neighbours.
    bg::Rng rng(2024);
    struct GraphCase {
        const char* name;
        Csr csr;
        std::size_t batch;
    };
    Csr single;
    single.offsets = {0, 0};
    const GraphCase graphs[] = {
        {"hub 3x37", hub_graph(37, rng), 3},
        {"isolated 37x3", isolated_node_graph(), 37},
        {"line 2x50 (no inv_deg)", line_graph(50), 2},
        {"single 1x1", single, 1},
    };
    std::vector<std::unique_ptr<bg::ThreadPool>> pools;
    pools.emplace_back();  // null pool: inline
    for (const std::size_t workers : {1UL, 2UL, 3UL, 8UL}) {
        pools.push_back(std::make_unique<bg::ThreadPool>(workers));
    }
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (const auto& gc : graphs) {
        const std::size_t n = gc.csr.num_nodes();
        const std::size_t rows = gc.batch * n;
        const MappedCase mc = random_map(gc.batch, n, rng);
        const RowMap map{gc.batch, mc.rows, mc.operands};
        for (const std::size_t in : {1UL, 12UL, 33UL, 48UL}) {
            // A column block of a wider matrix: a strided input view.
            const Matrix x_store = random_matrix(rows, in + 3, rng, 2.0F);
            const ConstMatrixView x = x_store.view().block(0, 1, rows, in);
            const Matrix ops_store =
                random_matrix(mc.operand_rows, in + 3, rng, 2.0F);
            const ConstMatrixView ops =
                ops_store.view().block(0, 1, mc.operand_rows, in);
            // The stacked input the map stands for: row (s, j) is its
            // operand row.
            Matrix dense(rows, in);
            for (std::size_t s = 0; s < gc.batch; ++s) {
                for (std::size_t j = 0; j < n; ++j) {
                    const float* src = ops.row(mc.operands[j * gc.batch + s]);
                    std::copy(src, src + in, dense.row(s * n + j));
                }
            }
            for (const std::size_t width : {24UL, 33UL, 64UL, 512UL}) {
                SageConv conv(in, width, rng);
                auto params = conv.params();
                for (std::size_t j = 0; j < width; ++j) {
                    params[2].value[j] =
                        static_cast<float>(rng.next_gaussian()) * 3.0F;
                }
                Matrix w_self(in, width);
                Matrix w_neigh(in, width);
                std::copy_n(params[0].value, w_self.size(),
                            w_self.data().data());
                std::copy_n(params[1].value, w_neigh.size(),
                            w_neigh.data().data());
                const std::span<const float> bias(params[2].value, width);
                const Matrix ref =
                    sage_reference(x, gc.csr, w_self, w_neigh, bias);
                const Matrix dense_ref =
                    sage_reference(dense, gc.csr, w_self, w_neigh, bias);
                // Mapped output row k is dense row (s, i) for
                // rows[k] = i*batch + s.
                Matrix mapped_ref(mc.rows.size(), width);
                for (std::size_t k = 0; k < mc.rows.size(); ++k) {
                    const std::size_t s = mc.rows[k] % gc.batch;
                    const std::size_t i = mc.rows[k] / gc.batch;
                    std::copy_n(dense_ref.row(s * n + i), width,
                                mapped_ref.row(k));
                }
                const auto expect_ref = [&](ConstMatrixView got,
                                            const Matrix& want,
                                            const char* pass,
                                            std::size_t p) {
                    for (std::size_t r = 0; r < want.rows(); ++r) {
                        for (std::size_t c = 0; c < width; ++c) {
                            ASSERT_EQ(
                                std::bit_cast<std::uint32_t>(got.at(r, c)),
                                std::bit_cast<std::uint32_t>(want.at(r, c)))
                                << gc.name << " in=" << in << " out=" << width
                                << " " << pass << " pool#" << p << " at (" << r
                                << ", " << c << ")";
                        }
                    }
                };
                // Stale storage: a NaN-filled buffer two rows taller than
                // the layer, written through a row-prefix view.
                const auto run_eval = [&](const RowMap& m,
                                          std::size_t out_rows,
                                          std::size_t p) {
                    Matrix out(out_rows + 2, width);
                    out.fill(nan);
                    conv.forward_eval(m.rows.empty() ? x : ops, gc.csr, m,
                                      out.rows_view(0, out_rows),
                                      pools[p].get());
                    for (std::size_t r = out_rows; r < out_rows + 2; ++r) {
                        for (std::size_t c = 0; c < width; ++c) {
                            EXPECT_TRUE(std::isnan(out.at(r, c)))
                                << "wrote past the output view";
                        }
                    }
                    return out;
                };
                for (std::size_t p = 0; p < pools.size(); ++p) {
                    expect_ref(run_eval(RowMap::stacked(gc.batch), rows, p),
                               ref, "eval", p);
                    expect_ref(run_eval(map, mc.rows.size(), p), mapped_ref,
                               "mapped", p);
                    const Matrix y =
                        conv.forward(x, gc.csr, gc.batch, pools[p].get());
                    expect_ref(y, ref, "train", p);
                }
            }
        }
    }
}

TEST(Sage, InternedMapsBitIdenticalToStackedLayers) {
    // The trunk's path: three layers, each computing one row per class
    // from the previous layer's classes through intern_rows' maps, with
    // self products shared by operand row.  Every class row must equal its
    // dense row from the stacked layers bit for bit, at any pool size.
    // Seven samples repeat three blocks that differ at a few nodes, the
    // hub among them, so classes are shared within and across layers.
    bg::Rng rng(77);
    const Csr csr = hub_graph(37, rng);
    const std::size_t n = csr.num_nodes();
    const std::size_t in = 12;
    std::vector<Matrix> blocks;
    blocks.push_back(random_matrix(n, in, rng, 2.0F));
    for (const auto& changed : {std::vector<std::size_t>{3, 10},
                                std::vector<std::size_t>{0, 21, 22}}) {
        Matrix b = blocks[0];
        for (const std::size_t i : changed) {
            const Matrix row = random_matrix(1, in, rng, 2.0F);
            std::copy_n(row.row(0), in, b.row(i));
        }
        blocks.push_back(std::move(b));
    }
    const std::size_t pick[] = {0, 1, 0, 2, 2, 1, 0};
    const std::size_t batch = std::size(pick);
    Matrix x(batch * n, in);
    for (std::size_t s = 0; s < batch; ++s) {
        std::copy_n(blocks[pick[s]].row(0), n * in, x.row(s * n));
    }
    std::vector<SageConv> convs;
    std::size_t width = in;
    for (const std::size_t out : {48UL, 33UL, 24UL}) {
        convs.emplace_back(width, out, rng);
        auto params = convs.back().params();
        for (std::size_t j = 0; j < out; ++j) {
            params[2].value[j] = static_cast<float>(rng.next_gaussian());
        }
        width = out;
    }
    std::vector<std::unique_ptr<bg::ThreadPool>> pools;
    pools.emplace_back();  // null pool: inline
    for (const std::size_t workers : {1UL, 2UL, 3UL, 8UL}) {
        pools.push_back(std::make_unique<bg::ThreadPool>(workers));
    }
    for (std::size_t p = 0; p < pools.size(); ++p) {
        bg::ThreadPool* pool = pools[p].get();
        const RowClasses classes =
            intern_rows(x, csr, batch, convs.size(), pool);
        ASSERT_LT(classes.count(0), batch * n);
        Matrix dense = x;
        Matrix h(classes.count(0), in);
        for (std::size_t k = 0; k < h.rows(); ++k) {
            const std::size_t v = classes.rep[0][k];
            std::copy_n(x.row(v % batch * n + v / batch), in, h.row(k));
        }
        for (std::size_t l = 0; l < convs.size(); ++l) {
            const std::size_t out = convs[l].out_dim();
            Matrix next(batch * n, out);
            convs[l].forward_eval(dense, csr, RowMap::stacked(batch), next,
                                  pool);
            Matrix mapped(classes.count(l + 1), out);
            convs[l].forward_eval(h, csr, classes.map(l + 1), mapped, pool);
            EXPECT_LT(classes.count(l + 1), batch * n) << "layer " << l + 1;
            for (std::size_t s = 0; s < batch; ++s) {
                for (std::size_t i = 0; i < n; ++i) {
                    const float* got =
                        mapped.row(classes.cls[l + 1][i * batch + s]);
                    const float* want = next.row(s * n + i);
                    for (std::size_t c = 0; c < out; ++c) {
                        ASSERT_EQ(std::bit_cast<std::uint32_t>(got[c]),
                                  std::bit_cast<std::uint32_t>(want[c]))
                            << "layer " << l + 1 << " pool#" << p
                            << " row (" << s << ", " << i << ") col " << c;
                    }
                }
            }
            dense = std::move(next);
            h = std::move(mapped);
        }
    }
}

TEST(MeanPool, ForwardBackward) {
    Matrix x(4, 2);  // 2 samples x 2 nodes
    x.at(0, 0) = 1.0F;
    x.at(1, 0) = 3.0F;
    x.at(2, 0) = 5.0F;
    x.at(3, 0) = 7.0F;
    Matrix pooled;
    mean_pool(x, 2, pooled);
    EXPECT_FLOAT_EQ(pooled.at(0, 0), 2.0F);
    EXPECT_FLOAT_EQ(pooled.at(1, 0), 6.0F);
    Matrix dp(2, 2);
    dp.fill(1.0F);
    Matrix dx;
    mean_pool_backward(dp, 2, dx);
    EXPECT_FLOAT_EQ(dx.at(0, 0), 0.5F);
    EXPECT_FLOAT_EQ(dx.at(3, 0), 0.5F);
}

TEST(Loss, MseValueAndGrad) {
    Matrix pred(2, 1);
    pred.at(0, 0) = 0.5F;
    pred.at(1, 0) = 0.0F;
    const std::vector<float> target{1.0F, 0.0F};
    const auto res = mse_loss(pred, target);
    EXPECT_NEAR(res.loss, 0.125, 1e-6);
    EXPECT_NEAR(res.grad.at(0, 0), 2.0 * (-0.5) / 2.0, 1e-6);
    EXPECT_NEAR(res.grad.at(1, 0), 0.0, 1e-6);
    EXPECT_NEAR(mse_value(pred, target), 0.125, 1e-6);
}

TEST(Adam, ConvergesOnQuadratic) {
    // Minimize (x - 3)^2 with Adam.
    float x = 0.0F;
    float g = 0.0F;
    Adam opt({{&x, &g, 1}}, 0.1);
    for (int i = 0; i < 500; ++i) {
        g = 2.0F * (x - 3.0F);
        opt.step();
    }
    EXPECT_NEAR(x, 3.0F, 1e-2);
}

TEST(Adam, StepDecaySchedule) {
    const StepDecay decay{1e-3, 0.5, 100};
    EXPECT_DOUBLE_EQ(decay.at_epoch(0), 1e-3);
    EXPECT_DOUBLE_EQ(decay.at_epoch(99), 1e-3);
    EXPECT_DOUBLE_EQ(decay.at_epoch(100), 5e-4);
    EXPECT_DOUBLE_EQ(decay.at_epoch(250), 2.5e-4);
}

TEST(Training, TinyRegressionLearns) {
    // End-to-end sanity: a 2-layer dense net fits y = mean(x) on random
    // data far better than the initial weights do.
    bg::Rng rng(9);
    Linear l1(4, 8, rng);
    ReLU6 a1;
    Linear l2(8, 1, rng);

    std::vector<ParamRef> params;
    for (const auto& p : l1.params()) {
        params.push_back(p);
    }
    for (const auto& p : l2.params()) {
        params.push_back(p);
    }
    Adam opt(params, 5e-3);

    const auto make_batch = [&](Matrix& x, std::vector<float>& t) {
        x = random_matrix(16, 4, rng);
        t.resize(16);
        for (std::size_t i = 0; i < 16; ++i) {
            float m = 0;
            for (std::size_t j = 0; j < 4; ++j) {
                m += x.at(i, j);
            }
            t[i] = m / 4.0F;
        }
    };

    double first_loss = -1;
    double last_loss = 0;
    for (int iter = 0; iter < 400; ++iter) {
        Matrix x;
        std::vector<float> t;
        make_batch(x, t);
        l1.zero_grad();
        l2.zero_grad();
        const Matrix y = l2.forward(a1.forward(l1.forward(x)));
        const auto loss = mse_loss(y, t);
        l1.backward(a1.backward(l2.backward(loss.grad)));
        opt.step();
        if (first_loss < 0) {
            first_loss = loss.loss;
        }
        last_loss = loss.loss;
    }
    EXPECT_LT(last_loss, first_loss * 0.2)
        << "training failed to reduce the loss";
}

}  // namespace
