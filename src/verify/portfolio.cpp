#include "verify/portfolio.hpp"

#include <utility>

#include "util/contracts.hpp"
#include "util/progress.hpp"

namespace bg::verify {

namespace {

bool is_definitive(aig::CecVerdict v) {
    return v == aig::CecVerdict::Equivalent ||
           v == aig::CecVerdict::NotEquivalent;
}

std::uint64_t mix64(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

}  // namespace

std::string to_string(Engine e) {
    switch (e) {
        case Engine::None:
            return "none";
        case Engine::Simulation:
            return "sim";
        case Engine::Sat:
            return "sat";
        case Engine::Cache:
            return "cache";
    }
    return "?";
}

std::size_t PortfolioCec::CacheKeyHash::operator()(const CacheKey& k) const {
    return static_cast<std::size_t>(mix64(k.fp_a ^ mix64(k.fp_b)));
}

PortfolioCec::PortfolioCec(PortfolioOptions opts, ThreadPool* /*pool*/)
    : opts_(std::move(opts)) {}

bool PortfolioCec::cache_get(const CacheKey& key, VerifyReport& out) {
    cache_lookups_.fetch_add(1, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = cache_.find(key);
    if (it == cache_.end()) {
        // Equivalence is symmetric, and a counterexample is just a PI
        // assignment, so a hit on the swapped pair is equally valid.
        it = cache_.find(CacheKey{key.fp_b, key.fp_a});
    }
    if (it == cache_.end()) {
        return false;
    }
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    out.verdict = it->second.verdict;
    out.engine = Engine::Cache;
    out.from_cache = true;
    out.counterexample = it->second.counterexample;
    return true;
}

void PortfolioCec::cache_put(const CacheKey& key,
                             const VerifyReport& report) {
    const std::lock_guard<std::mutex> lock(cache_mu_);
    if (cache_.count(key) != 0) {
        return;
    }
    while (cache_.size() >= opts_.cache_capacity && !cache_order_.empty()) {
        cache_.erase(cache_order_.front());
        cache_order_.pop_front();
    }
    cache_.emplace(key, CacheEntry{report.verdict, report.engine,
                                   report.counterexample});
    cache_order_.push_back(key);
}

std::size_t PortfolioCec::cache_size() const {
    const std::lock_guard<std::mutex> lock(cache_mu_);
    return cache_.size();
}

std::vector<std::vector<bool>> PortfolioCec::seed_patterns(
    std::size_t num_pis) const {
    const std::lock_guard<std::mutex> lock(cex_mu_);
    const auto it = cex_pool_.find(num_pis);
    if (it == cex_pool_.end()) {
        return {};
    }
    return {it->second.begin(), it->second.end()};
}

void PortfolioCec::pool_counterexample(std::size_t num_pis,
                                       const std::vector<bool>& cex) {
    if (opts_.cex_pool_capacity == 0 || cex.size() != num_pis) {
        return;
    }
    const std::lock_guard<std::mutex> lock(cex_mu_);
    auto& pool = cex_pool_[num_pis];
    for (const auto& have : pool) {
        if (have == cex) {
            return;  // recurring witness: already pooled
        }
    }
    while (pool.size() >= opts_.cex_pool_capacity) {
        pool.pop_front();
    }
    pool.push_back(cex);
}

VerifyReport PortfolioCec::check(const aig::Aig& a, const aig::Aig& b,
                                 const CancelToken* cancel) {
    BG_EXPECTS(a.num_pis() == b.num_pis(),
               "portfolio CEC requires matching PI counts");
    BG_EXPECTS(a.num_pos() == b.num_pos(),
               "portfolio CEC requires matching PO counts");

    const bg::Stopwatch watch;
    // The check's one deadline, armed on a child of the caller's token: a
    // stage starts only while the child has not stopped, and the engines
    // poll only the child.
    CancelToken budget(cancel);
    budget.set_deadline_after(opts_.timeout_seconds);

    VerifyReport report;
    CacheKey key{};
    const bool caching = opts_.cache_capacity > 0;
    if (caching) {
        key = CacheKey{aig::structural_fingerprint(a),
                       aig::structural_fingerprint(b)};
        if (cache_get(key, report)) {
            if (report.verdict == aig::CecVerdict::NotEquivalent &&
                !report.counterexample.empty()) {
                // Cached refutations feed the cross-job seed pool too: a
                // different-structure job with the same PI width gets the
                // witness even though its own fingerprints miss.
                pool_counterexample(a.num_pis(), report.counterexample);
            }
            report.seconds = watch.seconds();
            return report;
        }
    }

    const auto decide = [&](Engine engine, auto result) {
        if (!is_definitive(result.verdict)) {
            return false;
        }
        report.verdict = result.verdict;
        report.engine = engine;
        report.counterexample = std::move(result.counterexample);
        return true;
    };
    const auto simulate = [&](std::size_t random_words,
                              const std::vector<std::vector<bool>>* seeds) {
        if (budget.should_stop()) {
            return false;
        }
        aig::CecOptions o = opts_.sim;
        o.random_words = random_words;
        o.seed_patterns = seeds;
        o.cancel = &budget;
        return decide(Engine::Simulation,
                      aig::check_equivalence_full(a, b, o));
    };
    const auto prove_sat = [&] {
        if (budget.should_stop()) {
            return false;
        }
        sat::SatCecOptions o = opts_.sat;
        o.cancel = &budget;
        return decide(Engine::Sat, sat::check_equivalence_sat_full(a, b, o));
    };

    // Earlier refutations with this PI width are the first stage's only
    // patterns past the exhaustive bound (caller-supplied seeds win).
    std::vector<std::vector<bool>> pooled;
    const std::vector<std::vector<bool>>* seeds = opts_.sim.seed_patterns;
    if (seeds == nullptr && opts_.cex_pool_capacity > 0) {
        pooled = seed_patterns(a.num_pis());
        seeds = &pooled;
    }
    // SAT before random simulation (see portfolio.hpp); the last stage
    // skips the seeds the first one already simulated.
    const bool decided = simulate(0, seeds) || prove_sat() ||
                         simulate(opts_.sim.random_words, nullptr);
    if (decided) {
        if (caching) {
            cache_put(key, report);
        }
        if (report.verdict == aig::CecVerdict::NotEquivalent &&
            !report.counterexample.empty()) {
            pool_counterexample(a.num_pis(), report.counterexample);
        }
    }
    report.seconds = watch.seconds();
    return report;
}

}  // namespace bg::verify
