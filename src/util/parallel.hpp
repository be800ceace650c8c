#pragma once

/// \file parallel.hpp
/// Deterministic fork-join parallelism on one persistent ThreadPool.
///
/// The caller's pool is the only source of compute threads: every
/// parallel loop takes a `ThreadPool*` and a null pool runs the loop
/// inline on the calling thread (for_each_index below), so a pool of N
/// workers bounds the threads a computation uses.  The FlowEngine and
/// FlowService run whole design batches on one pool and nest the
/// per-sample and per-node loops inside it.
///
/// Results must be written to pre-sized per-index slots so the output is
/// independent of scheduling; all BoolGebra uses follow that pattern
/// (sample evaluation, per-node feature checks, per-design flows).

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace bg {

/// Number of workers to use by default (hardware concurrency, at least 1).
std::size_t default_worker_count();

/// A persistent worker pool.  Threads are spawned once and reused across
/// submissions; destruction drains the queue and joins the workers.
///
/// for_each() is the fork-join primitive: the *calling* thread always
/// participates in draining the index range, so nesting a for_each inside
/// a pool job (e.g. per-sample loops inside a per-design flow job) makes
/// progress even when every worker is busy — helper jobs that arrive late
/// simply find the range exhausted.
class ThreadPool {
public:
    /// `workers` = number of pool threads (0 = default_worker_count()).
    explicit ThreadPool(std::size_t workers = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    std::size_t size() const { return threads_.size(); }

    /// Enqueue an arbitrary job.  The future reports completion and
    /// re-throws any exception the job raised.
    std::future<void> submit(std::function<void()> job);

    /// Deterministic fork-join: f(i) for every i in [0, n) exactly once.
    /// Safe to call concurrently from several threads and to nest inside
    /// pool jobs: the caller participates in draining the range, and it
    /// waits for *iterations* to complete, never for the helper jobs
    /// themselves — a helper that is still queued when the range is
    /// exhausted runs as a no-op whenever a worker gets to it.  f must be
    /// safe to call concurrently for distinct i.  If f throws, remaining
    /// iterations are skipped and the first exception is rethrown on the
    /// calling thread once every claimed iteration has finished (the
    /// caller never unwinds while helpers still reference f).
    template <typename Fn>
    void for_each(std::size_t n, Fn&& f) {
        if (n == 0) {
            return;
        }
        if (n == 1 || threads_.empty()) {
            for (std::size_t i = 0; i < n; ++i) {
                f(i);
            }
            return;
        }
        struct State {
            std::atomic<std::size_t> next{0};
            std::atomic<std::size_t> done{0};
            std::atomic<bool> failed{false};
            std::mutex mutex;
            std::condition_variable all_done;
            std::exception_ptr error;  // first failure, guarded by mutex
        };
        auto st = std::make_shared<State>();
        // Stragglers outlive this call, so the lambda may hold a dangling
        // &f once every iteration is done — by then i >= n on every fetch
        // and f is never touched again.
        const auto drain = [st, n, &f] {
            while (true) {
                const std::size_t i =
                    st->next.fetch_add(1, std::memory_order_relaxed);
                if (i >= n) {
                    return;
                }
                if (!st->failed.load(std::memory_order_relaxed)) {
                    try {
                        f(i);
                    } catch (...) {
                        st->failed.store(true, std::memory_order_relaxed);
                        const std::lock_guard<std::mutex> lock(st->mutex);
                        if (st->error == nullptr) {
                            st->error = std::current_exception();
                        }
                    }
                }
                if (st->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
                    n) {
                    const std::lock_guard<std::mutex> lock(st->mutex);
                    st->all_done.notify_all();
                }
            }
        };
        const std::size_t helpers = std::min(threads_.size(), n - 1);
        for (std::size_t h = 0; h < helpers; ++h) {
            (void)submit(drain);
        }
        drain();  // caller thread works too
        std::unique_lock<std::mutex> lock(st->mutex);
        st->all_done.wait(lock, [&] {
            return st->done.load(std::memory_order_acquire) == n;
        });
        if (st->error != nullptr) {
            std::rethrow_exception(st->error);
        }
    }

private:
    void worker_loop();

    std::vector<std::thread> threads_;
    std::deque<std::packaged_task<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stopping_ = false;
};

/// f(i) for every i in [0, n): on `pool` (ThreadPool::for_each) when one
/// is given, else inline on the calling thread in index order.  Either
/// way an exception thrown by f reaches the caller.
template <typename Fn>
void for_each_index(ThreadPool* pool, std::size_t n, Fn&& f) {
    if (pool != nullptr) {
        pool->for_each(n, f);
        return;
    }
    for (std::size_t i = 0; i < n; ++i) {
        f(i);
    }
}

}  // namespace bg
