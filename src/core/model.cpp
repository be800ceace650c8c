#include "core/model.hpp"

#include <algorithm>
#include <fstream>

#include "core/dataset.hpp"
#include "util/contracts.hpp"

namespace bg::core {

using nn::Matrix;

namespace {

/// The model's input width: one column per node feature.
constexpr auto kInDim = static_cast<std::size_t>(feature_dim);

}  // namespace

BoolGebraModel::BoolGebraModel(const ModelConfig& cfg)
    : cfg_(cfg),
      rng_(cfg.seed),
      bn0_(static_cast<std::size_t>(cfg.mlp_dims.at(0))),
      bn1_(static_cast<std::size_t>(cfg.mlp_dims.at(1))) {
    BG_EXPECTS(cfg.sage_dims.size() == 3, "the paper uses three conv layers");
    BG_EXPECTS(cfg.mlp_dims.size() == 3 && cfg.mlp_dims.back() == 1,
               "the paper uses a three-layer regression head");
    BG_EXPECTS(!cfg_.heads.empty() &&
                   cfg_.heads.size() <= kNumMetricHeads,
               "the model needs between one and three metric heads");
    for (std::size_t i = 0; i < cfg_.heads.size(); ++i) {
        for (std::size_t j = i + 1; j < cfg_.heads.size(); ++j) {
            BG_EXPECTS(cfg_.heads[i] != cfg_.heads[j],
                       "duplicate metric head");
        }
    }
    BG_EXPECTS(has_head(MetricHead::Size),
               "every model carries the size head (the ranking fallback)");
    bg::Rng init(cfg.seed);
    int in = feature_dim;
    for (const int out : cfg.sage_dims) {
        convs_.emplace_back(static_cast<std::size_t>(in),
                            static_cast<std::size_t>(out), init);
        conv_drop_.emplace_back(cfg.dropout);
        in = out;
    }
    // mlp_dims.back() is the per-head width (1); the final linear layer
    // carries one column per head.  With the default single size head the
    // init RNG draws — and therefore the weights — are bit-identical to
    // the pre-multi-head model.
    for (std::size_t l = 0; l < cfg.mlp_dims.size(); ++l) {
        const int out = l + 1 == cfg.mlp_dims.size()
                            ? static_cast<int>(cfg_.heads.size())
                            : cfg.mlp_dims[l];
        linears_.emplace_back(static_cast<std::size_t>(in),
                              static_cast<std::size_t>(out), init);
        in = out;
    }
}

std::optional<std::size_t> BoolGebraModel::head_index(MetricHead head) const {
    for (std::size_t i = 0; i < cfg_.heads.size(); ++i) {
        if (cfg_.heads[i] == head) {
            return i;
        }
    }
    return std::nullopt;
}

void BoolGebraModel::set_input_stats(std::vector<float> mean,
                                     std::vector<float> stddev) {
    BG_EXPECTS(mean.size() == kInDim && stddev.size() == kInDim,
               "input statistics must match the input width");
    in_mean_ = std::move(mean);
    in_std_ = std::move(stddev);
    for (auto& s : in_std_) {
        if (s <= 1e-12F) {
            s = 1.0F;  // constant column: leave it centred only
        }
    }
}

void BoolGebraModel::standardize_into(nn::ConstMatrixView x,
                                      nn::MatrixView y) const {
    // One fused pass: materializes the (possibly strided) view and applies
    // the column statistics together; `y` may be `x` itself.
    BG_EXPECTS(y.rows() == x.rows() && y.cols() == x.cols(),
               "standardize shape mismatch");
    const std::size_t f = x.cols();
    for (std::size_t i = 0; i < x.rows(); ++i) {
        const float* src = x.row(i);
        float* dst = y.row(i);
        for (std::size_t j = 0; j < f; ++j) {
            dst[j] = (src[j] - in_mean_[j]) / in_std_[j];
        }
    }
}

Matrix BoolGebraModel::forward(nn::ConstMatrixView x, const nn::Csr& csr,
                               std::size_t batch, bg::ThreadPool* pool) {
    BG_EXPECTS(x.rows() == batch * csr.num_nodes(),
               "feature rows must equal batch * nodes");
    cache_num_nodes_ = csr.num_nodes();
    Matrix owned;  // standardized copy when input stats are active
    nn::ConstMatrixView cur = x;
    if (!in_mean_.empty()) {
        owned = Matrix(x.rows(), x.cols());
        standardize_into(x, owned);
        cur = owned;
    }
    Matrix h = convs_[0].forward(cur, csr, batch, pool);
    h = conv_drop_[0].forward(h, rng_);
    for (std::size_t i = 1; i < convs_.size(); ++i) {
        h = convs_[i].forward(h, csr, batch, pool);
        h = conv_drop_[i].forward(h, rng_);
    }
    Matrix pooled;
    nn::mean_pool(h, batch, pooled);
    Matrix y = linears_[0].forward(pooled, pool);
    y = mlp_act0_.forward(y);
    y = bn0_.forward(y);
    y = linears_[1].forward(y, pool);
    y = bn1_.forward(y);
    y = linears_[2].forward(y, pool);
    return out_act_.forward(y);
}

Matrix BoolGebraModel::trunk_eval(nn::ConstMatrixView x, const nn::Csr& csr,
                                  std::size_t batch,
                                  bg::ThreadPool* pool) const {
    BG_EXPECTS(x.rows() == batch * csr.num_nodes(),
               "feature rows must equal batch * nodes");
    const nn::RowClasses classes =
        nn::intern_rows(x, csr, batch, convs_.size(), pool);
    // Layer 0: each class's input row, standardized in place.
    const std::size_t n = csr.num_nodes();
    Matrix h(classes.count(0), x.cols());
    for (std::size_t k = 0; k < h.rows(); ++k) {
        const std::size_t v = classes.rep[0][k];
        const float* src = x.row(v % batch * n + v / batch);
        std::copy(src, src + x.cols(), h.row(k));
    }
    if (!in_mean_.empty()) {
        standardize_into(h, h);
    }
    // Dropout is the identity at eval time and is skipped outright.
    for (std::size_t l = 0; l < convs_.size(); ++l) {
        Matrix out(classes.count(l + 1), convs_[l].out_dim());
        convs_[l].forward_eval(h, csr, classes.map(l + 1), out, pool);
        h = std::move(out);
    }
    Matrix pooled;
    nn::mean_pool(h, batch, pooled, classes.cls.back());
    return pooled;
}

Matrix BoolGebraModel::mlp_eval(nn::ConstMatrixView pooled,
                                bg::ThreadPool* pool) const {
    Matrix y = linears_[0].forward_eval(pooled, pool);
    y = mlp_act0_.forward_eval(std::move(y));
    y = bn0_.forward_eval(y);
    y = linears_[1].forward_eval(y, pool);
    y = bn1_.forward_eval(y);
    y = linears_[2].forward_eval(y, pool);
    return out_act_.forward_eval(std::move(y));
}

Matrix BoolGebraModel::forward_eval(nn::ConstMatrixView x,
                                    const nn::Csr& csr, std::size_t batch,
                                    bg::ThreadPool* pool) const {
    return mlp_eval(trunk_eval(x, csr, batch, pool), pool);
}

void BoolGebraModel::backward(const Matrix& dpred) {
    Matrix d = out_act_.backward(dpred);
    d = linears_[2].backward(d);
    d = bn1_.backward(d);
    d = linears_[1].backward(d);
    d = bn0_.backward(d);
    d = mlp_act0_.backward(d);
    d = linears_[0].backward(d);
    Matrix dnodes;
    nn::mean_pool_backward(d, cache_num_nodes_, dnodes);
    for (std::size_t i = convs_.size(); i-- > 0;) {
        dnodes = conv_drop_[i].backward(dnodes);
        dnodes = convs_[i].backward(dnodes);
    }
}

void BoolGebraModel::zero_grad() {
    for (auto& c : convs_) {
        c.zero_grad();
    }
    for (auto& l : linears_) {
        l.zero_grad();
    }
    bn0_.zero_grad();
    bn1_.zero_grad();
}

std::vector<nn::ParamRef> BoolGebraModel::params() {
    std::vector<nn::ParamRef> out;
    for (auto& c : convs_) {
        for (const auto& p : c.params()) {
            out.push_back(p);
        }
    }
    for (auto& l : linears_) {
        for (const auto& p : l.params()) {
            out.push_back(p);
        }
    }
    for (const auto& p : bn0_.params()) {
        out.push_back(p);
    }
    for (const auto& p : bn1_.params()) {
        out.push_back(p);
    }
    return out;
}

std::size_t BoolGebraModel::num_parameters() {
    std::size_t n = 0;
    for (const auto& p : params()) {
        n += p.size;
    }
    return n;
}

std::vector<double> BoolGebraModel::predict(
    const Dataset& ds, std::span<const std::size_t> indices,
    std::size_t batch_size, bg::ThreadPool* pool) const {
    // Each sample's rows are their own vector: gathering one batch_size
    // chunk at a time keeps peak temporary memory bounded by batch_size
    // samples, and each chunk runs through the zero-copy batching path.
    BG_EXPECTS(batch_size > 0, "predict batch size must be positive");
    const std::size_t n = ds.num_nodes();
    const std::size_t total = indices.size();
    std::vector<double> out;
    out.reserve(total);
    Matrix stacked(std::min(batch_size, total) * n, kInDim);
    for (std::size_t start = 0; start < total; start += batch_size) {
        const std::size_t b = std::min(batch_size, total - start);
        for (std::size_t s = 0; s < b; ++s) {
            const auto& feats = ds.samples()[indices[start + s]].features;
            BG_ASSERT(feats.size() == n * kInDim,
                      "sample feature width mismatch");
            std::copy(feats.begin(), feats.end(), stacked.row(s * n));
        }
        const auto chunk =
            predict_batch_head(ds.csr(), n, stacked.rows_view(0, b * n), 0,
                               batch_size, pool);
        out.insert(out.end(), chunk.begin(), chunk.end());
    }
    return out;
}

std::vector<double> BoolGebraModel::predict_batch_scored(
    const nn::Csr& csr, std::size_t num_nodes, nn::ConstMatrixView stacked,
    std::size_t batch_size, bg::ThreadPool* pool,
    const std::function<double(const Matrix&, std::size_t)>& score) const {
    BG_EXPECTS(num_nodes > 0 && stacked.rows() % num_nodes == 0,
               "stacked feature rows must be a whole number of samples");
    BG_EXPECTS(stacked.cols() == kInDim,
               "stacked feature width mismatch");
    BG_EXPECTS(batch_size > 0, "predict batch size must be positive");
    const std::size_t total = stacked.rows() / num_nodes;
    std::vector<double> out;
    out.reserve(total);
    if (total == 0) {
        return out;
    }
    // One trunk pass over every sample; each chunk's MLP and BatchNorm
    // see a row-panel view of the pooled rows.
    const Matrix pooled = trunk_eval(stacked, csr, total, pool);
    for (std::size_t start = 0; start < total; start += batch_size) {
        const std::size_t b = std::min(batch_size, total - start);
        const Matrix pred = mlp_eval(pooled.rows_view(start, b), pool);
        for (std::size_t s = 0; s < b; ++s) {
            out.push_back(score(pred, s));
        }
    }
    return out;
}

std::vector<double> BoolGebraModel::predict_batch_head(
    const nn::Csr& csr, std::size_t num_nodes, nn::ConstMatrixView stacked,
    std::size_t head, std::size_t batch_size, bg::ThreadPool* pool) const {
    BG_EXPECTS(head < cfg_.heads.size(), "head index out of range");
    return predict_batch_scored(
        csr, num_nodes, stacked, batch_size, pool,
        [head](const Matrix& pred, std::size_t s) -> double {
            return pred.at(s, head);
        });
}

std::vector<double> BoolGebraModel::predict_batch_blend(
    const nn::Csr& csr, std::size_t num_nodes, nn::ConstMatrixView stacked,
    std::span<const double> weights, std::size_t batch_size,
    bg::ThreadPool* pool) const {
    BG_EXPECTS(weights.size() == cfg_.heads.size(),
               "blend weights must cover every head");
    return predict_batch_scored(
        csr, num_nodes, stacked, batch_size, pool,
        [weights](const Matrix& pred, std::size_t s) -> double {
            double score = 0.0;
            for (std::size_t h = 0; h < weights.size(); ++h) {
                if (weights[h] != 0.0) {
                    score += weights[h] * pred.at(s, h);
                }
            }
            return score;
        });
}

void BoolGebraModel::save(const std::filesystem::path& path) {
    if (path.has_parent_path()) {
        std::filesystem::create_directories(path.parent_path());
    }
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        throw std::runtime_error("cannot write model file: " + path.string());
    }
    // Versioned header: a single size head writes the legacy v1 layout
    // (magic "BGMODEL2" — byte-identical to the pre-multi-head format, so
    // old tooling keeps reading these files); everything else writes v2
    // ("BGMODEL3"), which records the head list before the input stats.
    const bool legacy = cfg_.heads.size() == 1 &&
                        cfg_.heads.front() == MetricHead::Size;
    if (legacy) {
        const char magic[8] = {'B', 'G', 'M', 'O', 'D', 'E', 'L', '2'};
        out.write(magic, sizeof magic);
    } else {
        const char magic[8] = {'B', 'G', 'M', 'O', 'D', 'E', 'L', '3'};
        out.write(magic, sizeof magic);
        const auto num_heads = static_cast<std::uint32_t>(cfg_.heads.size());
        out.write(reinterpret_cast<const char*>(&num_heads),
                  sizeof num_heads);
        for (const MetricHead h : cfg_.heads) {
            const auto id = static_cast<std::uint8_t>(h);
            out.write(reinterpret_cast<const char*>(&id), sizeof id);
        }
    }
    const auto stats_len = static_cast<std::uint64_t>(in_mean_.size());
    out.write(reinterpret_cast<const char*>(&stats_len), sizeof stats_len);
    out.write(reinterpret_cast<const char*>(in_mean_.data()),
              static_cast<std::streamsize>(stats_len * sizeof(float)));
    out.write(reinterpret_cast<const char*>(in_std_.data()),
              static_cast<std::streamsize>(stats_len * sizeof(float)));
    for (const auto& p : params()) {
        const auto sz = static_cast<std::uint64_t>(p.size);
        out.write(reinterpret_cast<const char*>(&sz), sizeof sz);
        out.write(reinterpret_cast<const char*>(p.value),
                  static_cast<std::streamsize>(p.size * sizeof(float)));
    }
}

namespace {

/// Read a checkpoint's head list from its magic + (v2 only) head header.
/// Leaves the stream positioned at the input-stats length field.
std::vector<MetricHead> read_checkpoint_heads(std::ifstream& in,
                                              const std::string& path) {
    char magic[8];
    in.read(magic, sizeof magic);
    const std::string tag(magic, 8);
    if (tag == "BGMODEL2") {
        // v1: single-head files predate the head header; they are always
        // the paper's size predictor.
        return {MetricHead::Size};
    }
    if (tag != "BGMODEL3") {
        throw std::runtime_error("bad model file magic: " + path);
    }
    std::uint32_t num_heads = 0;
    in.read(reinterpret_cast<char*>(&num_heads), sizeof num_heads);
    if (!in || num_heads == 0 || num_heads > kNumMetricHeads) {
        throw std::runtime_error("model file head count out of range: " +
                                 path);
    }
    std::vector<MetricHead> heads;
    heads.reserve(num_heads);
    bool seen[kNumMetricHeads] = {};
    for (std::uint32_t i = 0; i < num_heads; ++i) {
        std::uint8_t id = 0;
        in.read(reinterpret_cast<char*>(&id), sizeof id);
        if (!in || id >= kNumMetricHeads) {
            throw std::runtime_error("model file head id out of range: " +
                                     path);
        }
        if (seen[id]) {
            throw std::runtime_error("model file repeats a head id: " + path);
        }
        seen[id] = true;
        heads.push_back(static_cast<MetricHead>(id));
    }
    // Enforce the model invariants here so a corrupt header surfaces as a
    // file error (runtime_error naming the path), not as the constructor's
    // ContractViolation.
    if (!seen[static_cast<std::size_t>(MetricHead::Size)]) {
        throw std::runtime_error("model file lacks the size head: " + path);
    }
    return heads;
}

}  // namespace

void BoolGebraModel::load(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw std::runtime_error("cannot read model file: " + path.string());
    }
    const auto file_heads = read_checkpoint_heads(in, path.string());
    if (!std::equal(file_heads.begin(), file_heads.end(),
                    cfg_.heads.begin(), cfg_.heads.end())) {
        throw std::runtime_error(
            "model file head list does not match this architecture "
            "(construct via load_checkpoint() to adopt the file's heads): " +
            path.string());
    }
    std::uint64_t stats_len = 0;
    in.read(reinterpret_cast<char*>(&stats_len), sizeof stats_len);
    if (!in || (stats_len != 0 && stats_len != kInDim)) {
        throw std::runtime_error(
            "model file input-stats width does not match: " + path.string());
    }
    in_mean_.assign(stats_len, 0.0F);
    in_std_.assign(stats_len, 1.0F);
    in.read(reinterpret_cast<char*>(in_mean_.data()),
            static_cast<std::streamsize>(stats_len * sizeof(float)));
    in.read(reinterpret_cast<char*>(in_std_.data()),
            static_cast<std::streamsize>(stats_len * sizeof(float)));
    for (auto& p : params()) {
        std::uint64_t sz = 0;
        in.read(reinterpret_cast<char*>(&sz), sizeof sz);
        if (!in || sz != p.size) {
            throw std::runtime_error(
                "model file does not match this architecture: " +
                path.string());
        }
        in.read(reinterpret_cast<char*>(p.value),
                static_cast<std::streamsize>(p.size * sizeof(float)));
        if (!in) {
            throw std::runtime_error("truncated model file: " + path.string());
        }
    }
    if (in.peek() != std::ifstream::traits_type::eof()) {
        throw std::runtime_error(
            "model file has trailing bytes after the last tensor: " +
            path.string());
    }
}

BoolGebraModel load_checkpoint(const std::filesystem::path& path,
                               ModelConfig base) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw std::runtime_error("cannot read model file: " + path.string());
    }
    base.heads = read_checkpoint_heads(in, path.string());
    in.close();
    BoolGebraModel model(base);
    model.load(path);
    return model;
}

}  // namespace bg::core
