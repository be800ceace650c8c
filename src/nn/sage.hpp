#pragma once

/// \file sage.hpp
/// GraphSAGE convolution with mean aggregation (Hamilton et al., NeurIPS
/// 2017) — the paper's graph encoder.  One design means one fixed graph,
/// so a batch of B samples shares a single CSR adjacency and stacks node
/// features as B consecutive blocks of N rows.  As in layers.hpp,
/// `forward()` is the training pass and the const `forward_eval()` the
/// only evaluation pass.

#include <cstdint>
#include <vector>

#include "nn/layers.hpp"
#include "nn/matrix.hpp"

namespace bg::nn {

/// Compressed sparse row adjacency (undirected; built by core::build_csr).
struct Csr {
    std::vector<std::int32_t> offsets;    ///< size num_nodes + 1
    std::vector<std::int32_t> neighbors;  ///< size 2 * |edges|
    /// Precomputed 1/degree per node (0 for isolated nodes), filled by
    /// build_inv_deg().  The aggregation takes its fast path when present
    /// — one division per node per design instead of per inference call —
    /// and falls back to dividing on the fly (bit-identical) when empty,
    /// so hand-built CSRs keep working.
    std::vector<float> inv_deg;

    std::size_t num_nodes() const { return offsets.size() - 1; }
    std::size_t degree(std::size_t v) const {
        return static_cast<std::size_t>(offsets[v + 1] - offsets[v]);
    }
    void build_inv_deg();
};

/// y_i = ReLU6(x_i W_self + mean_{j in N(i)} x_j W_neigh + b): one
/// GraphSAGE layer with the paper's activation folded in.
///
/// Both passes run one fused kernel, one task per kRowPanel-row panel of
/// the output: it aggregates the panel's neighbours, runs the self and
/// neighbour GEMMs for those rows into task-local tiles (each element an
/// ascending-k sum from +0, as matmul gives) and writes
/// clamp((self + neigh) + b, 0, 6) once.  Every output element therefore
/// sees the same operations in the same order at any pool size, and the
/// layer allocates no temporary of its own size.
class SageConv {
public:
    SageConv(std::size_t in, std::size_t out, bg::Rng& rng);

    /// Training pass: `x` is (B*N, in); the same CSR applies to each of
    /// the B blocks.  Runs the forward_eval() kernel and keeps the input,
    /// the neighbour aggregate and the pre-activation for backward.
    Matrix forward(ConstMatrixView x, const Csr& csr, std::size_t batch,
                   bg::ThreadPool* pool = nullptr);
    /// Evaluation pass into `out`, a (B*N, out) view whose stale contents
    /// are overwritten and which must not overlap `x`.  Touches no member,
    /// so concurrent forwards may share one layer and one pool; `out` is
    /// the caller's reusable buffer (see EvalScratch).
    void forward_eval(ConstMatrixView x, const Csr& csr, std::size_t batch,
                      MatrixView out, bg::ThreadPool* pool = nullptr) const;
    /// dL/d(output) -> dL/dx; accumulates parameter gradients.
    Matrix backward(const Matrix& dy);

    void zero_grad();
    std::vector<ParamRef> params();

    std::size_t in_dim() const { return w_self_.rows(); }
    std::size_t out_dim() const { return w_self_.cols(); }

private:
    /// The panel kernel behind both passes.  `agg` and `pre`, when not
    /// empty, are (B*N, in) and (B*N, out) views that receive the
    /// neighbour aggregate and the pre-activation.
    void run_panels(ConstMatrixView x, const Csr& csr, std::size_t batch,
                    MatrixView out, MatrixView agg, MatrixView pre,
                    bg::ThreadPool* pool) const;

    Matrix w_self_;
    Matrix w_neigh_;
    std::vector<float> b_;
    Matrix gw_self_;
    Matrix gw_neigh_;
    std::vector<float> gb_;
    // Caches.
    Matrix cache_x_;
    Matrix cache_h_;    // aggregated neighbors
    Matrix cache_pre_;  // pre-activation
    const Csr* csr_ = nullptr;
    std::size_t batch_ = 0;
};

/// H[i] = mean of X over i's neighbors, per batch block (serial; the
/// layer kernel aggregates the same way, one row panel at a time).  `h`
/// is reused without reallocation when it already has the right shape.
void mean_aggregate(ConstMatrixView x, const Csr& csr, std::size_t batch,
                    Matrix& h);
/// Transposed aggregation: DX[j] += DH[i]/deg(i) for each edge (i, j).
void mean_aggregate_transpose(ConstMatrixView dh, const Csr& csr,
                              std::size_t batch, Matrix& dx);

/// Mean pooling over each block of N node rows -> (B, F), and its adjoint.
void mean_pool(ConstMatrixView x, std::size_t batch, Matrix& pooled);
void mean_pool_backward(const Matrix& dpooled, std::size_t num_nodes,
                        Matrix& dx);

}  // namespace bg::nn
