#pragma once

/// \file model.hpp
/// The BoolGebra predictor (paper Fig 3g):
///
///   GraphConv0 -> ReLU6 -> Dropout -> GraphConv1 -> ReLU6 -> Dropout
///   -> GraphConv2 -> ReLU6 -> Dropout -> MeanPool
///   -> Linear0 -> ReLU6 -> BatchNorm0 -> Linear1 -> BatchNorm1
///   -> Linear2 -> Sigmoid
///
/// Paper hyper-parameters: conv dims 12 -> 512 -> 512 -> 64, MLP
/// 64 -> 1000 -> 200 -> 1, dropout 0.1.  `quick()` shrinks the widths so
/// CPU-only experiment harnesses finish in seconds; the architecture is
/// identical.
///
/// The final linear layer carries one sigmoid-squashed regression column
/// per configured MetricHead (size / depth / mapped-LUT), sharing the
/// SAGE trunk and MLP — the default single size head reproduces the
/// paper's (and the pre-multi-head code's) output bit for bit.
///
/// `forward()` is the training pass (backward caches, dropout, batch-norm
/// running statistics).  Evaluation is const and has one path: the SAGE
/// trunk computes each distinct row once per call (nn::intern_rows), and
/// each layer's self products once per previous-layer class; mean
/// pooling reads each sample's rows from those classes, and the MLP and
/// BatchNorm run on chunks of kPredictBatch samples.  The trainer's
/// losses and predict() reach it through forward_eval() (one chunk), the
/// flows through predict_batch_head/_blend (one trunk pass over every
/// sample of the call).  Predictions are bit-identical to the dense
/// training pass without dropout, chunk by chunk.

#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "core/features.hpp"
#include "core/metrics.hpp"
#include "nn/layers.hpp"
#include "nn/optimizer.hpp"
#include "nn/sage.hpp"

namespace bg::core {

class Dataset;  // dataset.hpp

/// The input width is always feature_dim (the 12 node-feature columns).
struct ModelConfig {
    std::vector<int> sage_dims = {512, 512, 64};
    std::vector<int> mlp_dims = {1000, 200, 1};
    float dropout = 0.1F;
    std::uint64_t seed = 0xB001;

    /// Output heads sharing the SAGE trunk and MLP: the final linear layer
    /// is `heads.size()` wide and every head gets its own sigmoid-squashed
    /// regression column.  The default single size head is the paper's
    /// architecture, bit-identical to the pre-multi-head model; the head
    /// list must contain MetricHead::Size (the universal ranking fallback)
    /// and no duplicates.  Canonical multi-head order is size, depth, luts.
    std::vector<MetricHead> heads = {MetricHead::Size};

    /// The paper's exact architecture.
    static ModelConfig paper() { return {}; }
    /// Quick widths with all three metric heads (size, depth, mapped-LUT).
    static ModelConfig quick_multi() {
        ModelConfig c = quick();
        c.heads = {MetricHead::Size, MetricHead::Depth, MetricHead::Luts};
        return c;
    }
    /// CPU-friendly widths for the quick experiment harnesses.  Dropout is
    /// disabled: at quick-mode scale (small widths, tens of epochs) the
    /// dropout noise exceeds the inter-sample signal that survives mean
    /// pooling; the paper's 1500-epoch regime averages it out.
    static ModelConfig quick() {
        ModelConfig c;
        c.sage_dims = {48, 48, 24};
        c.mlp_dims = {64, 16, 1};
        c.dropout = 0.0F;
        return c;
    }
};

class BoolGebraModel {
public:
    explicit BoolGebraModel(const ModelConfig& cfg = {});

    const ModelConfig& config() const { return cfg_; }

    /// The output heads, in column order of the forward result.
    std::span<const MetricHead> heads() const { return cfg_.heads; }
    std::size_t num_heads() const { return cfg_.heads.size(); }
    bool has_head(MetricHead head) const {
        return head_index(head).has_value();
    }
    /// Column index of `head`, or nullopt when this model was not built
    /// (or trained) with it.
    std::optional<std::size_t> head_index(MetricHead head) const;

    /// Training pass for a batch of samples over one graph: caches what
    /// backward() needs, draws dropout masks and updates the batch-norm
    /// running statistics.  `x` is a (B * N, feature_dim) row-major view
    /// (zero-copy panels of a larger stacked matrix work); returns
    /// (B, num_heads()) with one column per configured head.  `pool`
    /// (optional) shards the GEMM row panels without changing any output
    /// bit.
    nn::Matrix forward(nn::ConstMatrixView x, const nn::Csr& csr,
                       std::size_t batch, bg::ThreadPool* pool = nullptr);

    /// The evaluation pass: same input and output as forward(), skips
    /// dropout and never touches the layer backward caches, so one model
    /// instance serves concurrent inference (the FlowService shares
    /// shared_ptr<const BoolGebraModel> snapshots across in-flight jobs).
    /// The batch is one BatchNorm chunk; the trunk computes each distinct
    /// row of it once.
    nn::Matrix forward_eval(nn::ConstMatrixView x, const nn::Csr& csr,
                            std::size_t batch,
                            bg::ThreadPool* pool = nullptr) const;

    /// Back-propagate dL/dpred; accumulates parameter gradients.
    void backward(const nn::Matrix& dpred);

    void zero_grad();
    std::vector<nn::ParamRef> params();
    std::size_t num_parameters();

    /// Per-column input statistics (persisted by save()/load()); once set,
    /// both forwards standardize their input with them before the first
    /// convolution.  The paper feeds raw features (PI rows are -99) and
    /// trains at lr 8e-7; CPU-quick training uses a ~1000x larger rate,
    /// where the raw -99 scale destabilizes BatchNorm.  The trainer fits
    /// them on the training split.
    void set_input_stats(std::vector<float> mean, std::vector<float> stddev);
    const std::vector<float>& input_mean() const { return in_mean_; }
    const std::vector<float>& input_std() const { return in_std_; }

    /// Default samples per MLP and BatchNorm chunk for the predict
    /// helpers; the chunk is part of the prediction.
    static constexpr std::size_t kPredictBatch = 64;

    /// Convenience inference: the first head's predictions (the size head
    /// on every canonical config) for selected dataset samples.  Gathers
    /// `batch_size` samples at a time into one reused stacked matrix
    /// (bounded peak memory) and scores each chunk with
    /// predict_batch_head(..., 0, ...).
    std::vector<double> predict(const Dataset& ds,
                                std::span<const std::size_t> indices,
                                std::size_t batch_size = kPredictBatch,
                                bg::ThreadPool* pool = nullptr) const;

    /// Batched inference over a pre-stacked feature matrix, returning the
    /// column of head `head` (an index into heads(); resolve metrics with
    /// head_index()).  `stacked` is (B * num_nodes, feature_dim) row-major
    /// with each sample's node block contiguous.  The trunk runs once over
    /// all B samples, computing each distinct row once; the MLP and
    /// BatchNorm then run on chunks of `batch_size` pooled samples, so the
    /// bits are forward_eval()'s on each chunk.  Const and cache-free:
    /// safe to call concurrently from many threads on one shared model.
    std::vector<double> predict_batch_head(
        const nn::Csr& csr, std::size_t num_nodes,
        nn::ConstMatrixView stacked, std::size_t head,
        std::size_t batch_size = kPredictBatch,
        bg::ThreadPool* pool = nullptr) const;

    /// Weighted blend over the heads — the score path for weighted
    /// objectives: score_s = sum over heads h of weights[h] * pred(s, h),
    /// skipping zero weights.  `weights` must be num_heads() wide.
    std::vector<double> predict_batch_blend(
        const nn::Csr& csr, std::size_t num_nodes,
        nn::ConstMatrixView stacked, std::span<const double> weights,
        std::size_t batch_size = kPredictBatch,
        bg::ThreadPool* pool = nullptr) const;

    /// Binary weight persistence.  Single-size-head models write the
    /// legacy v1 layout (magic "BGMODEL2", byte-identical to the
    /// pre-multi-head format); any other head list writes v2
    /// ("BGMODEL3"), which prepends the head list to the header.  load()
    /// accepts both but the architecture — including the head list —
    /// must match the constructed model; use load_checkpoint() to let the
    /// file pick the heads.
    void save(const std::filesystem::path& path);
    void load(const std::filesystem::path& path);

private:
    /// The evaluation trunk: the three SAGE layers over the distinct rows
    /// of `x` ((batch * N, feature_dim)), mean-pooled to (batch, F).
    nn::Matrix trunk_eval(nn::ConstMatrixView x, const nn::Csr& csr,
                          std::size_t batch, bg::ThreadPool* pool) const;
    /// The evaluation MLP on pooled rows: one BatchNorm chunk ->
    /// (rows, num_heads).
    nn::Matrix mlp_eval(nn::ConstMatrixView pooled,
                        bg::ThreadPool* pool) const;
    /// Shared predict_batch_head/_blend driver: `score` maps one row of
    /// the (b, num_heads) forward output to the sample's scalar score.
    std::vector<double> predict_batch_scored(
        const nn::Csr& csr, std::size_t num_nodes,
        nn::ConstMatrixView stacked, std::size_t batch_size,
        bg::ThreadPool* pool,
        const std::function<double(const nn::Matrix&, std::size_t)>& score)
        const;
    /// Standardize `x` into the same-shaped `y` (which may be `x`).
    void standardize_into(nn::ConstMatrixView x, nn::MatrixView y) const;

    ModelConfig cfg_;
    bg::Rng rng_;  ///< drives dropout masks
    std::vector<float> in_mean_;
    std::vector<float> in_std_;
    std::vector<nn::SageConv> convs_;  ///< each applies its ReLU6
    std::vector<nn::Dropout> conv_drop_;
    std::vector<nn::Linear> linears_;
    nn::ReLU6 mlp_act0_;
    nn::BatchNorm1d bn0_;
    nn::BatchNorm1d bn1_;
    nn::Sigmoid out_act_;
    // Forward caches for backward.
    std::size_t cache_num_nodes_ = 0;
};

/// Construct a model whose head list matches the checkpoint at `path` and
/// load it: a legacy v1 file ("BGMODEL2") loads as a single size head —
/// size-only, whatever `base.heads` says — and a v2 file ("BGMODEL3")
/// restores its recorded head list.  `base` supplies everything else
/// (trunk/MLP widths, dropout, seed); its `heads` field is overwritten by
/// the file's.
BoolGebraModel load_checkpoint(const std::filesystem::path& path,
                               ModelConfig base);

}  // namespace bg::core
