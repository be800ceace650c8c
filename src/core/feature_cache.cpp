#include "core/feature_cache.hpp"

#include <numeric>

#include "aig/footprint.hpp"
#include "util/contracts.hpp"
#include "util/parallel.hpp"

namespace bg::core {

using aig::Aig;
using aig::Var;

namespace {

/// splitmix64 finalizer — the same mix the strash table uses.
std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// Two bits per var in a 256-bit signature.
void bloom_add(std::array<std::uint64_t, 4>& b, Var v) {
    const std::uint64_t h = mix64(v);
    const auto set = [&](std::uint64_t bit) {
        b[(bit >> 6) & 3] |= 1ULL << (bit & 63);
    };
    set(h & 255);
    set((h >> 8) & 255);
}

bool bloom_intersects(const std::array<std::uint64_t, 4>& a,
                      const std::array<std::uint64_t, 4>& b) {
    return ((a[0] & b[0]) | (a[1] & b[1]) | (a[2] & b[2]) | (a[3] & b[3])) !=
           0;
}

}  // namespace

void FeatureCache::recompute_rows(const Aig& g, const opt::OptParams& params,
                                  std::span<const Var> vars,
                                  ThreadPool* pool) {
    const auto run = [&](std::size_t i) {
        const Var v = vars[i];
        thread_local aig::ReadFootprint fp;
        fp.clear();
        {
            const aig::FootprintScope scope(fp);
            // The row's direct reads (node kind, fanin refs) all key on v;
            // the transformability-check walks record the rest.
            aig::fp_touch(v, aig::Read::Struct);
            compute_static_row(g, v, params, rows_[v]);
        }
        Bloom& b = blooms_[v];
        if (fp.overflow) {
            b = {~0ULL, ~0ULL, ~0ULL, ~0ULL};  // always-dirty
            return;
        }
        b = {};
        // Var-granular signature: `touched` lists plain vars, so decode
        // the class-tagged footprint entries before hashing (a row read
        // of any aspect of u must match a commit touching any aspect).
        for (const auto u : fp.vars) {
            bloom_add(b, aig::fp_entry_var(u));
        }
    };
    bg::for_each_index(pool, vars.size(), run);
    last_recomputed_ = vars.size();
}

void FeatureCache::rebuild(const Aig& g, const opt::OptParams& params,
                           ThreadPool* pool) {
    params.validate();
    const std::size_t n = g.num_slots();
    rows_.assign(n, {});
    blooms_.assign(n, Bloom{});
    std::vector<Var> all(n);
    std::iota(all.begin(), all.end(), Var{0});
    recompute_rows(g, params, all, pool);
    csr_ = build_csr(g);
    valid_ = true;
}

void FeatureCache::update(const Aig& g, const opt::OptParams& params,
                          std::span<const Var> touched, ThreadPool* pool) {
    BG_EXPECTS(valid_, "FeatureCache::update needs a prior rebuild()");
    params.validate();
    const std::size_t old_n = rows_.size();
    const std::size_t n = g.num_slots();
    BG_EXPECTS(n >= old_n,
               "cached design shrank — compaction requires a rebuild");
    rows_.resize(n);
    blooms_.resize(n, Bloom{});

    Bloom tb{};
    for (const Var u : touched) {
        bloom_add(tb, u);
    }
    std::vector<Var> dirty;
    for (std::size_t v = 0; v < old_n; ++v) {
        if (bloom_intersects(blooms_[v], tb)) {
            dirty.push_back(static_cast<Var>(v));
        }
    }
    for (std::size_t v = old_n; v < n; ++v) {
        dirty.push_back(static_cast<Var>(v));  // commit-created slots
    }
    recompute_rows(g, params, dirty, pool);
    csr_ = build_csr(g);
}

}  // namespace bg::core
