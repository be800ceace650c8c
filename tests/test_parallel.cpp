#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "circuits/registry.hpp"
#include "core/features.hpp"
#include "core/sampling.hpp"
#include "util/cancel.hpp"
#include "util/parallel.hpp"

namespace {

TEST(ThreadPool, DefaultWorkerCountIsPositive) {
    EXPECT_GE(bg::default_worker_count(), 1u);
}

TEST(ThreadPool, ReusedAcrossSubmissions) {
    bg::ThreadPool pool(3);
    EXPECT_EQ(pool.size(), 3u);
    std::atomic<int> counter{0};
    for (int batch = 0; batch < 4; ++batch) {
        std::vector<std::future<void>> done;
        for (int j = 0; j < 8; ++j) {
            done.push_back(pool.submit([&counter] { ++counter; }));
        }
        for (auto& fut : done) {
            fut.get();
        }
    }
    EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
    bg::ThreadPool pool(2);
    auto fut = pool.submit([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(fut.get(), std::runtime_error);
    // The worker survives the exception and keeps serving jobs.
    auto ok = pool.submit([] {});
    EXPECT_NO_THROW(ok.get());
}

TEST(ThreadPool, DefaultWorkerCountWhenZero) {
    bg::ThreadPool pool(0);
    EXPECT_EQ(pool.size(), bg::default_worker_count());
}

TEST(ThreadPool, ForEachCoversEveryIndexExactlyOnce) {
    for (const std::size_t workers : {1UL, 2UL, 5UL}) {
        bg::ThreadPool pool(workers);
        for (const std::size_t n : {0UL, 1UL, 7UL, 100UL, 1000UL}) {
            std::vector<std::atomic<int>> hits(n);
            pool.for_each(n, [&](std::size_t i) { ++hits[i]; });
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_EQ(hits[i].load(), 1)
                    << "workers " << workers << " index " << i;
            }
        }
    }
}

TEST(ThreadPool, ForEachOutputIndependentOfPoolSize) {
    const std::size_t n = 256;
    std::vector<long> reference(n);
    for (std::size_t i = 0; i < n; ++i) {
        reference[i] = static_cast<long>(i * i + 7);
    }
    for (const std::size_t workers : {1UL, 2UL, 8UL}) {
        bg::ThreadPool pool(workers);
        std::vector<long> out(n, -1);
        pool.for_each(n, [&](std::size_t i) {
            out[i] = static_cast<long>(i * i + 7);
        });
        EXPECT_EQ(out, reference) << "workers " << workers;
    }
}

TEST(ThreadPool, ForEachRethrowsFirstExceptionWithoutHanging) {
    bg::ThreadPool pool(3);
    for (int attempt = 0; attempt < 3; ++attempt) {
        std::atomic<int> ran{0};
        EXPECT_THROW(
            pool.for_each(64,
                          [&](std::size_t i) {
                              ++ran;
                              if (i % 5 == 0) {
                                  throw std::runtime_error("iteration");
                              }
                          }),
            std::runtime_error);
        EXPECT_GE(ran.load(), 1);
        // The pool stays usable after a failed fork-join.
        std::vector<int> out(16, 0);
        pool.for_each(16, [&](std::size_t i) {
            out[i] = static_cast<int>(i) + 1;
        });
        for (std::size_t i = 0; i < out.size(); ++i) {
            EXPECT_EQ(out[i], static_cast<int>(i) + 1);
        }
    }
}

TEST(ThreadPool, NestedForEachInsidePoolJobsDoesNotDeadlock) {
    // Saturate the pool with outer jobs that each fork an inner loop on
    // the same pool; caller participation must keep everything moving.
    bg::ThreadPool pool(2);
    const std::size_t outer = 6;
    const std::size_t inner = 50;
    std::vector<std::vector<int>> out(outer,
                                      std::vector<int>(inner, 0));
    pool.for_each(outer, [&](std::size_t o) {
        pool.for_each(inner, [&, o](std::size_t i) {
            out[o][i] = static_cast<int>(o * inner + i);
        });
    });
    for (std::size_t o = 0; o < outer; ++o) {
        for (std::size_t i = 0; i < inner; ++i) {
            EXPECT_EQ(out[o][i], static_cast<int>(o * inner + i));
        }
    }
}

TEST(ForEachIndex, NullPoolRunsInlineInIndexOrder) {
    const auto caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    bg::for_each_index(nullptr, 5, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(Cancellation, PreCancelledGuidedSamplingThrowsInsteadOfAborting) {
    // A cancel raised inside a sampling loop must reach the caller as a
    // CancelledError — inline and on a pool — never terminate the process.
    const auto g = bg::circuits::make_benchmark_scaled("b10", 0.4);
    bg::CancelToken token;
    token.request_cancel();
    bg::opt::OptParams params;
    params.cancel = &token;
    EXPECT_THROW((void)bg::core::generate_guided_samples(g, 8, 1, params),
                 bg::CancelledError);
    bg::ThreadPool pool(2);
    EXPECT_THROW((void)bg::core::generate_guided_samples(
                     g, 8, 1, params, nullptr, nullptr, &pool),
                 bg::CancelledError);
    // Random sampling has no static-feature pass: the cancel surfaces in
    // the per-sample orchestrate walks of the evaluation loop.
    EXPECT_THROW((void)bg::core::generate_random_samples(g, 8, 1, params),
                 bg::CancelledError);
    EXPECT_THROW((void)bg::core::generate_random_samples(g, 8, 1, params,
                                                         nullptr, &pool),
                 bg::CancelledError);
}

TEST(Cancellation, StaticFeaturesHonourAPreCancelledToken) {
    const auto g = bg::circuits::make_benchmark_scaled("b10", 0.4);
    bg::CancelToken token;
    token.request_cancel();
    bg::opt::OptParams params;
    params.cancel = &token;
    EXPECT_THROW((void)bg::core::compute_static_features(g, params),
                 bg::CancelledError);
    bg::ThreadPool pool(2);
    EXPECT_THROW((void)bg::core::compute_static_features(g, params, &pool),
                 bg::CancelledError);
}

TEST(ParallelDeterminism, SamplesIndependentOfWorkerScheduling) {
    // The sampling pipelines write into per-index slots, so results must
    // be identical regardless of thread interleaving.  Run the same batch
    // inline and on a pool and compare exactly.
    const auto g = bg::circuits::make_benchmark_scaled("b10", 0.4);
    bg::ThreadPool pool(4);
    const auto a = bg::core::generate_guided_samples(g, 24, 5);
    const auto b = bg::core::generate_guided_samples(g, 24, 5, {}, nullptr,
                                                     nullptr, &pool);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].reduction, b[i].reduction) << i;
        EXPECT_EQ(a[i].decisions, b[i].decisions) << i;
        EXPECT_EQ(a[i].applied, b[i].applied) << i;
    }
}

TEST(ParallelDeterminism, StaticFeaturesStable) {
    const auto g = bg::circuits::make_benchmark_scaled("b09", 0.5);
    bg::ThreadPool pool(4);
    const auto f1 = bg::core::compute_static_features(g);
    const auto f2 = bg::core::compute_static_features(g, {}, &pool);
    ASSERT_EQ(f1.size(), f2.size());
    for (std::size_t v = 0; v < f1.size(); ++v) {
        EXPECT_EQ(f1[v], f2[v]) << "var " << v;
    }
}

}  // namespace
