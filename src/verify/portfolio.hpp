#pragma once

/// \file portfolio.hpp
/// Combinational equivalence checking as one sequential pipeline on the
/// calling thread:
///
///  1. the verdict cache;
///  2. simulation without a random budget — the exhaustive proof for
///     designs with at most `sim.exhaustive_pi_limit` PIs, otherwise only
///     the pooled counterexamples of earlier refutations (aig/cec.hpp);
///  3. incremental SAT (sat/cec_sat.hpp);
///  4. random simulation, only when SAT is undecided;
///  5. the cache and counterexample-pool updates.
///
/// Random simulation comes after SAT because flow results are equivalent
/// by construction: run first, it only refutes what SAT refutes anyway
/// and adds its full budget to every proof.  Every stage runs under one
/// child of the caller's cancel token that carries the check's deadline
/// (`timeout_seconds`); a stage whose token has stopped is skipped, and
/// the check reports ProbablyEquivalent honestly (never upgraded).
///
/// Verdicts for structurally identical queries are served from a small
/// FIFO cache keyed on the pair of structural fingerprints
/// (aig::structural_fingerprint), so a served flow re-verifying the same
/// design pair pays nothing.  Only definitive verdicts are cached —
/// ProbablyEquivalent depends on budgets and luck, so it is always
/// recomputed.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "aig/cec.hpp"
#include "sat/cec_sat.hpp"
#include "util/cancel.hpp"

namespace bg {
class ThreadPool;
}  // namespace bg

namespace bg::verify {

/// Which stage produced a verdict.
enum class Engine {
    None,        ///< every stage degraded, was skipped or was cancelled
    Simulation,  ///< word-parallel exhaustive, seeded or random simulation
    Sat,         ///< incremental SAT on the strashed miter (sat/cnf.hpp)
    Cache,       ///< served from the result cache
};

std::string to_string(Engine e);

struct PortfolioOptions {
    /// Stage budgets.  Each engine's cancel is overwritten by the
    /// pipeline's token; the pipeline sets sim.random_words to 0 for its
    /// first simulation stage and uses it as given for the last.
    aig::CecOptions sim;
    sat::SatCecOptions sat;
    /// Wall-clock budget of the whole check, in seconds (0 = unlimited).
    double timeout_seconds = 30.0;
    /// FIFO capacity of the verdict cache (0 disables the cache).
    std::size_t cache_capacity = 4096;
    /// Per-PI-count capacity of the cross-job counterexample pool (0
    /// disables pooling).  Every definitive refutation's witness — SAT or
    /// simulation, fresh or cache-served — is pooled and fed back into the
    /// first simulation stage as seed patterns on later jobs with the same
    /// PI count, so a recurring bug is refuted before SAT runs.
    std::size_t cex_pool_capacity = 64;
};

/// Outcome of one portfolio check.
struct VerifyReport {
    aig::CecVerdict verdict = aig::CecVerdict::ProbablyEquivalent;
    /// Stage that produced the verdict (Cache when served from cache).
    Engine engine = Engine::None;
    /// Wall-clock seconds spent inside check().
    double seconds = 0.0;
    bool from_cache = false;
    /// Differing PI assignment; non-empty exactly when the verdict is
    /// NotEquivalent and the deciding stage produced a witness (cached
    /// refutations keep the witness from the original run).
    std::vector<bool> counterexample;
};

/// Thread-safe prover.  One instance is meant to live as long as the
/// serving process (FlowService owns one); concurrent check() calls are
/// safe and share the verdict cache and the counterexample pool.
class PortfolioCec {
public:
    /// The pool is ignored: every check runs on the calling thread.  The
    /// parameter remains only so existing callers that pass one still
    /// compile, and will be removed.
    explicit PortfolioCec(PortfolioOptions opts = {},
                          ThreadPool* pool = nullptr);

    /// Run the pipeline on the (a, b) miter.  A stopped `cancel` token
    /// (flag or deadline) or a spent `timeout_seconds` skips the remaining
    /// stages and degrades the verdict to ProbablyEquivalent; it never
    /// throws — callers poll their token afterwards.  Throws
    /// ContractViolation when the PI/PO interfaces differ; never throws
    /// from a verdict path.
    VerifyReport check(const aig::Aig& a, const aig::Aig& b,
                       const CancelToken* cancel = nullptr);

    std::size_t cache_lookups() const {
        return cache_lookups_.load(std::memory_order_relaxed);
    }
    std::size_t cache_hits() const {
        return cache_hits_.load(std::memory_order_relaxed);
    }
    std::size_t cache_size() const;

    /// Snapshot of the pooled counterexamples for designs with `num_pis`
    /// inputs (oldest first) — the seed patterns the next check() with
    /// that PI count will simulate first.
    std::vector<std::vector<bool>> seed_patterns(std::size_t num_pis) const;

private:
    struct CacheKey {
        std::uint64_t fp_a = 0;
        std::uint64_t fp_b = 0;
        bool operator==(const CacheKey& o) const {
            return fp_a == o.fp_a && fp_b == o.fp_b;
        }
    };
    struct CacheKeyHash {
        std::size_t operator()(const CacheKey& k) const;
    };
    struct CacheEntry {
        aig::CecVerdict verdict = aig::CecVerdict::ProbablyEquivalent;
        Engine engine = Engine::None;
        std::vector<bool> counterexample;
    };

    bool cache_get(const CacheKey& key, VerifyReport& out);
    void cache_put(const CacheKey& key, const VerifyReport& report);
    void pool_counterexample(std::size_t num_pis,
                             const std::vector<bool>& cex);

    PortfolioOptions opts_;

    mutable std::mutex cache_mu_;
    std::unordered_map<CacheKey, CacheEntry, CacheKeyHash> cache_;
    std::deque<CacheKey> cache_order_;  // FIFO eviction
    std::atomic<std::size_t> cache_lookups_{0};
    std::atomic<std::size_t> cache_hits_{0};

    /// Cross-job counterexample pool, keyed by PI count (a witness is
    /// just a PI assignment, so it transfers between any designs of the
    /// same width).  FIFO-bounded per key by cex_pool_capacity.
    mutable std::mutex cex_mu_;
    std::unordered_map<std::size_t, std::deque<std::vector<bool>>> cex_pool_;
};

}  // namespace bg::verify
