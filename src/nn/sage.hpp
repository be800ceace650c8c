#pragma once

/// \file sage.hpp
/// GraphSAGE convolution with mean aggregation (Hamilton et al., NeurIPS
/// 2017) — the paper's graph encoder.  One design means one fixed graph,
/// so a batch of B samples shares a single CSR adjacency and stacks node
/// features as B consecutive blocks of N rows.  As in layers.hpp,
/// `forward()` is the training pass and the const `forward_eval()` the
/// only evaluation pass.
///
/// Samples of one design differ only in a few feature columns, so most of
/// their trunk rows repeat.  intern_rows() hash-conses them into
/// RowClasses — one class per distinct row and layer — and evaluation
/// computes one row per class through the same kernel, reading operands
/// through a RowMap (the redundancy HAG removes inside one graph, Jia et
/// al., KDD'20, found here across samples).

#include <cstdint>
#include <span>
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

/// Which rows a SageConv evaluation computes and where it reads their
/// operands, for `samples` samples of one N-node graph.  Row (s, i) is
/// node i of sample s.
///
/// - Empty spans are the identity, the stacked layout of forward(): there
///   are samples * N output rows, output row s*N + i is row (s, i), and
///   its operand rows (s, j) are x.row(s*N + j).
/// - A class map computes output row k as row (s, i), where
///   rows[k] = i*samples + s, and reads every operand row (s, j) — its own
///   and its CSR neighbours' — from x.row(operands[j*samples + s]).
struct RowMap {
    std::size_t samples = 0;
    std::span<const std::uint32_t> rows;
    std::span<const std::uint32_t> operands;  ///< samples * N entries

    /// The identity over `samples` stacked blocks.
    static RowMap stacked(std::size_t samples) { return {samples, {}, {}}; }
};

/// The distinct rows of a SAGE trunk over B samples of one graph, interned
/// the way aig::StrashMap hashes AND nodes.  At layer 0 a row's class is
/// its input bits (compared bitwise, never with float ==).  At layer l it
/// is its node plus the layer-(l-1) classes of itself and of its CSR
/// neighbours, in edge order.  The kernel computes a layer-l row from
/// exactly those operands, so rows of one class get bit-identical
/// outputs.  Classes are numbered by node, then by first occurrence over
/// the samples, so ids do not depend on the pool.
struct RowClasses {
    std::size_t samples = 0;
    /// cls[l][i*samples + s]: the layer-l class of row (s, i).
    std::vector<std::vector<std::uint32_t>> cls;
    /// rep[l][k]: the first row of layer-l class k, as i*samples + s.
    std::vector<std::vector<std::uint32_t>> rep;

    /// Distinct rows at `layer` (0 = the input).
    std::size_t count(std::size_t layer) const { return rep[layer].size(); }
    /// The map that computes layer `layer` >= 1 from layer - 1's classes.
    RowMap map(std::size_t layer) const {
        return {samples, rep[layer], cls[layer - 1]};
    }
};

/// Intern the rows of `x`, (B*N, F) stacked as in forward(), for the input
/// and `layers` SAGE layers.  Each node interns its B rows in its own
/// flat open-addressing table, one pool task per block of nodes; equality
/// is decided by comparing operands, never by the hash alone.
RowClasses intern_rows(ConstMatrixView x, const Csr& csr, std::size_t batch,
                       std::size_t layers, bg::ThreadPool* pool = nullptr);

/// y_i = ReLU6(x_i W_self + mean_{j in N(i)} x_j W_neigh + b): one
/// GraphSAGE layer with the paper's activation folded in.
///
/// Both passes run one fused kernel.  It first computes every input row's
/// self product once, on the pool, into a table of x.rows() x out floats:
/// a class map's rows share self operands, so the self GEMM runs over the
/// input's rows rather than the output's.  Then one task per
/// kRowPanel-row panel of the output aggregates the panel's neighbours,
/// runs the neighbour GEMM for those rows into a task-local tile (each
/// element of either product an ascending-k sum from +0, as matmul
/// gives), reads each row's self product by operand row and writes
/// clamp((self + neigh) + b, 0, 6) once.  The table has one row per input
/// row: over the identity it is as large as the output, and a map that
/// reads few of many input rows computes products nobody reads (the
/// trunk's maps read every one).  An output row depends only on its own
/// operand rows, read through a RowMap, and every element sees the same
/// operations in the same order at any pool size, in any panel and from
/// either map.
class SageConv {
public:
    SageConv(std::size_t in, std::size_t out, bg::Rng& rng);

    /// Training pass: `x` is (B*N, in); the same CSR applies to each of
    /// the B blocks.  Runs the forward_eval() kernel over the identity map
    /// and keeps the input, the neighbour aggregate and the pre-activation
    /// for backward.
    Matrix forward(ConstMatrixView x, const Csr& csr, std::size_t batch,
                   bg::ThreadPool* pool = nullptr);
    /// Evaluation pass of the rows `map` names into `out`, one row each,
    /// whose stale contents are overwritten and which must not overlap
    /// `x`.  Allocates the self-product table (one row per row of `x`) for
    /// the call.  Touches no member, so concurrent forwards may share one
    /// layer and one pool.
    void forward_eval(ConstMatrixView x, const Csr& csr, const RowMap& map,
                      MatrixView out, bg::ThreadPool* pool = nullptr) const;
    /// dL/d(output) -> dL/dx; accumulates parameter gradients.
    Matrix backward(const Matrix& dy);

    void zero_grad();
    std::vector<ParamRef> params();

    std::size_t in_dim() const { return w_self_.rows(); }
    std::size_t out_dim() const { return w_self_.cols(); }

private:
    /// The panel kernel behind both passes.  `agg` and `pre`, when not
    /// empty, are views shaped like `out` (`agg` `in` wide) that receive
    /// the neighbour aggregate and the pre-activation.
    void run_panels(ConstMatrixView x, const Csr& csr, const RowMap& map,
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

/// Mean pooling over each sample's N node rows -> (B, F): sample s sums
/// its rows from +0 in node order, then scales by 1/N.  Row (s, i) is
/// x.row(s*N + i), or x.row(cls[i*B + s]) when a class map `cls` of B*N
/// entries is given (the last layer of RowClasses).
void mean_pool(ConstMatrixView x, std::size_t batch, Matrix& pooled,
               std::span<const std::uint32_t> cls = {});
/// The adjoint of the stacked mean_pool().
void mean_pool_backward(const Matrix& dpooled, std::size_t num_nodes,
                        Matrix& dx);

}  // namespace bg::nn
