#pragma once

/// \file objective.hpp
/// Pluggable cost models for Boolean optimization.  BoolGebra's flow
/// (§III-D) ranks decision vectors purely by AND-count reduction; an
/// Objective generalizes that single metric into a small vtable so the
/// same transform -> orchestrate -> flow -> service stack can optimize
/// for depth (delay-oriented synthesis), mapped LUT count (FPGA area
/// after technology mapping) or a weighted blend — the cost axes
/// BoolSkeleton (arXiv:2511.02196) and Boolean-aware GNN classification
/// (arXiv:2411.10481) evaluate.
///
/// Contract: every objective is immutable and thread-safe after
/// construction (flows share one instance read-only, exactly like the
/// model snapshot), and `SizeObjective` — the default everywhere — must
/// reproduce the pre-objective behavior bit for bit: same accepted
/// candidates, same comparator decisions, same ratios.

#include <cstdint>
#include <memory>
#include <string>

#include "aig/aig.hpp"
#include "opt/lut_map.hpp"
#include "opt/transform.hpp"

namespace bg::opt {

enum class ObjectiveKind : std::uint8_t {
    Size = 0,
    Depth = 1,
    MappedLuts = 2,
    Weighted = 3,
};

/// Full measurement of one graph under an objective.  `size` and `depth`
/// are always the raw AND count and level count (the per-metric ratios
/// every FlowResult reports); `value` is the objective's scalar, lower is
/// better.
struct CostVector {
    double value = 0.0;
    std::size_t size = 0;
    std::uint32_t depth = 0;
};

/// Weights over the learned metric heads (core::MetricHead order: size,
/// depth, mapped-LUT) a flow should rank candidates with under an
/// objective.  The flow maps these onto whatever heads the model actually
/// carries and falls back to the size head — the paper's size-as-proxy
/// behavior — when the requested heads are missing (e.g. a legacy
/// single-head checkpoint).
struct PredictionWeights {
    double size = 0.0;
    double depth = 0.0;
    double luts = 0.0;
};

class Objective {
public:
    virtual ~Objective() = default;

    virtual ObjectiveKind kind() const = 0;
    /// CLI-round-trippable name ("size", "depth", "luts", "weighted:a,b").
    virtual std::string name() const = 0;

    /// Scalar from an already-measured (size, depth) pair, used by the
    /// default measure().  Objectives whose scalar needs the graph itself
    /// (MappedLuts) override measure() and fall back to size here.
    virtual double scalar(std::size_t size, std::uint32_t depth) const = 0;

    /// Which learned metric head(s) should produce the pruning scores for
    /// this objective.  Default: the size head alone (the paper's
    /// predictor).
    virtual PredictionWeights prediction_weights() const {
        return {1.0, 0.0, 0.0};
    }

    /// True when orchestration judges candidates on fresh levels: the
    /// walk then fills Gain::depth_delta before calling accepts().
    virtual bool needs_depth() const { return false; }

    /// Measure a whole graph: AND count, depth, and the scalar.  Flows
    /// measure every evaluated candidate's optimized graph with it, so an
    /// objective whose scalar needs the graph overrides this alone.
    virtual CostVector measure(const aig::Aig& g) const;

    /// Objective-space value of a local transform; positive = improvement.
    virtual double local_gain(const Gain& gain) const {
        return gain.size_delta;
    }
    /// Whether orchestration should apply an applicable candidate with
    /// this local gain.  The size threshold (min gain 1, or 0 with -z)
    /// was already enforced by the check; SizeObjective therefore accepts
    /// everything — the pre-objective behavior.
    virtual bool accepts(const Gain& gain) const {
        (void)gain;
        return true;
    }

    /// Strictly-better comparator over measured costs.  Candidate
    /// evaluation keeps the *first* candidate no later one strictly
    /// beats, so ties preserve prediction order (and size parity).
    virtual bool better(const CostVector& a, const CostVector& b) const {
        return a.value < b.value;
    }
};

/// Exact AND count — the paper's metric and the default everywhere.
class SizeObjective final : public Objective {
public:
    ObjectiveKind kind() const override { return ObjectiveKind::Size; }
    std::string name() const override { return "size"; }
    double scalar(std::size_t size, std::uint32_t depth) const override {
        (void)depth;
        return static_cast<double>(size);
    }
};

/// Levels first, AND count as tiebreak (delay-oriented synthesis).
class DepthObjective final : public Objective {
public:
    ObjectiveKind kind() const override { return ObjectiveKind::Depth; }
    std::string name() const override { return "depth"; }
    double scalar(std::size_t size, std::uint32_t depth) const override {
        (void)size;
        return static_cast<double>(depth);
    }
    PredictionWeights prediction_weights() const override {
        return {0.0, 1.0, 0.0};
    }
    bool needs_depth() const override { return true; }
    double local_gain(const Gain& gain) const override {
        return gain.depth_delta;
    }
    bool accepts(const Gain& gain) const override {
        // Never trade depth away; among depth-neutral candidates keep the
        // size improvements (the check guarantees size_delta >= min gain).
        return gain.depth_delta >= 0;
    }
    bool better(const CostVector& a, const CostVector& b) const override {
        return a.depth < b.depth ||
               (a.depth == b.depth && a.size < b.size);
    }
};

/// Cost = LUT count of a K-LUT technology mapping of the graph (the
/// "technology-dependent stage" the paper's conclusion targets).  Local
/// gains have no per-node LUT estimate, so orchestration accepts on size
/// like the default; only the whole-graph comparator changes.
class MappedLutObjective final : public Objective {
public:
    explicit MappedLutObjective(LutMapParams params = {}) : params_(params) {}

    ObjectiveKind kind() const override { return ObjectiveKind::MappedLuts; }
    std::string name() const override { return "luts"; }
    double scalar(std::size_t size, std::uint32_t depth) const override {
        (void)depth;
        return static_cast<double>(size);  // graph-free fallback
    }
    PredictionWeights prediction_weights() const override {
        return {0.0, 0.0, 1.0};
    }
    CostVector measure(const aig::Aig& g) const override;
    bool better(const CostVector& a, const CostVector& b) const override {
        return a.value < b.value || (a.value == b.value && a.size < b.size);
    }

    const LutMapParams& lut_params() const { return params_; }

private:
    LutMapParams params_;
};

/// alpha * size + beta * depth.
class WeightedObjective final : public Objective {
public:
    WeightedObjective(double alpha, double beta);

    ObjectiveKind kind() const override { return ObjectiveKind::Weighted; }
    std::string name() const override;
    double scalar(std::size_t size, std::uint32_t depth) const override {
        return alpha_ * static_cast<double>(size) +
               beta_ * static_cast<double>(depth);
    }
    PredictionWeights prediction_weights() const override {
        return {alpha_, beta_, 0.0};
    }
    bool needs_depth() const override { return true; }
    double local_gain(const Gain& gain) const override {
        return alpha_ * gain.size_delta + beta_ * gain.depth_delta;
    }
    bool accepts(const Gain& gain) const override {
        return local_gain(gain) > 0.0;
    }

    double alpha() const { return alpha_; }
    double beta() const { return beta_; }

private:
    double alpha_;
    double beta_;
};

/// The process-wide default objective — pre-redesign behavior.
const Objective& size_objective();

/// Shared handle threaded through FlowConfig / ServiceConfig; a null
/// handle means size_objective().
using ObjectivePtr = std::shared_ptr<const Objective>;

/// Parse a CLI spec: "size" | "depth" | "luts" | "luts:K" |
/// "weighted:alpha,beta".  Throws std::invalid_argument on anything else.
ObjectivePtr make_objective(const std::string& spec);

}  // namespace bg::opt
