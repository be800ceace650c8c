#pragma once

/// \file flow_service.hpp
/// Long-lived cross-design serving: an always-on front end over the
/// FlowEngine internals.  Where FlowEngine::run batches a fixed job list,
/// FlowService keeps accepting design jobs for as long as it lives — the
/// ROADMAP's "heavy traffic" north star.
///
///  * **Multi-tenant admission on the shared ThreadPool.**  Any number of
///    producer threads submit() jobs under a tenant name; each tenant has
///    its own FIFO queue, and serving tasks pick the next job by weighted
///    round-robin across tenants (a tenant of weight w gets w consecutive
///    pops before the cursor moves on), so one flooding tenant cannot
///    starve the others.  Per-tenant quotas bound queued + running jobs
///    (AdmissionError on breach).  Inside a job the same pool parallelizes
///    the per-sample loops via the nesting-safe, caller-participating
///    for_each.
///  * **Atomic model hot-swap, per tenant.**  The model is a
///    shared_ptr<const BoolGebraModel> snapshot.  swap_model() replaces
///    the service default for *later* submissions; a tenant with its own
///    snapshot (TenantConfig::model, swap_tenant_model) binds that
///    instead.  Every queued/in-flight job keeps the snapshot it was
///    bound to at submit() time and finishes on it.  This is sound
///    because eval-mode inference is genuinely const
///    (BoolGebraModel::predict_batch_head / forward_eval) — no per-job
///    model copy is ever made.
///  * **Timeouts and cooperative cancellation.**  SubmitOptions arms a
///    per-job CancelToken (deadline and/or external cancel); the token is
///    polled at run_flow stage boundaries and inside the orchestrate node
///    walks, so a cancelled job stops within one transformation check.
///    The job's future then rethrows bg::CancelledError, whose reason
///    distinguishes Cancelled from TimedOut.
///  * **Graceful vs immediate shutdown.**  drain() blocks until idle;
///    stop() additionally rejects further submissions and lets queued
///    work finish.  stop_now() rejects, flushes every queued job with
///    CancelledError, cancels the running ones cooperatively, and drains
///    — every future resolves with a definite outcome.  The destructor
///    stops gracefully.
///  * **Rolling stats.**  Jobs served / cancelled / timed out / rejected
///    globally and per tenant, submit-to-completion latency percentiles
///    over a sliding window, and samples/s throughput.
///
/// Results are bit-identical to run_design_flow without a pool (every
/// loop inline) with the snapshot the job was bound to, independent of
/// worker count, queue depth, tenant mix, and any concurrent hot-swaps.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/flow_engine.hpp"
#include "util/cancel.hpp"
#include "util/progress.hpp"

namespace bg::core {

/// An immutable model snapshot shared between the service and its
/// in-flight jobs.  Callers usually make_shared a trained model; a
/// non-owning snapshot (null deleter) works when the model provably
/// outlives every job bound to it, which is how FlowEngine::run wraps its
/// caller's model.
using ModelSnapshot = std::shared_ptr<const BoolGebraModel>;

struct ServiceConfig {
    std::size_t workers = 0;  ///< pool threads (0 = default_worker_count())
    std::size_t rounds = 1;   ///< flow rounds per job (>1 = iterated)
    FlowConfig flow;          ///< per-job flow parameters
    /// Sliding window of per-job latencies kept for the p50/p95 stats.
    std::size_t latency_window = 512;
};

/// One serving tenant.  The default tenant (empty name) always exists
/// with weight 1 and no quota; register_tenant() adds or reconfigures
/// others (and may reconfigure the default).
struct TenantConfig {
    std::string name;
    /// Weighted round-robin share: the admission cursor pops up to
    /// `weight` consecutive jobs from this tenant before moving on.
    std::size_t weight = 1;
    /// Max queued + running jobs for this tenant; 0 = unlimited.
    /// Breaches reject the submission with AdmissionError.
    std::size_t max_pending = 0;
    /// Tenant-specific model; null = use the service default snapshot.
    ModelSnapshot model;
};

/// Per-tenant serving counters (a slice of ServiceStats).
struct TenantStats {
    std::string name;
    std::uint64_t jobs_submitted = 0;
    std::uint64_t jobs_completed = 0;  ///< futures resolved, any outcome
    std::uint64_t jobs_ok = 0;
    std::uint64_t jobs_cancelled = 0;
    std::uint64_t jobs_timed_out = 0;
    std::uint64_t jobs_failed = 0;
    std::uint64_t jobs_rejected = 0;  ///< quota breaches (never submitted)
    std::uint64_t jobs_pending = 0;   ///< queued + currently executing
};

/// Per-submission controls; default-constructed options reproduce the
/// pre-tenancy submit() exactly (default tenant, no timeout, no token).
struct SubmitOptions {
    std::string tenant;  ///< must name a registered tenant ("" = default)
    /// Wall-clock budget from submission; expiry aborts the job with
    /// CancelledError(TimedOut) wherever it is, queued or running.
    /// 0 = no timeout.
    double timeout_seconds = 0.0;
    /// External cancel handle: request_cancel() aborts the job
    /// cooperatively.  Null = the service makes a private token (needed
    /// for timeouts and stop_now()).
    std::shared_ptr<bg::CancelToken> cancel;
    /// Flow rounds for this job; 0 = ServiceConfig::rounds.
    std::size_t rounds = 0;
    /// Per-job flow parameters; unset = ServiceConfig::flow.
    std::optional<FlowConfig> flow;
    /// Materialize DesignFlowResult::final_graph (JobControl::want_graph).
    bool want_graph = false;
    /// Per-round progress, invoked on the serving thread
    /// (JobControl::on_progress semantics).
    std::function<void(std::size_t round, std::size_t ands)> on_progress;
    /// Invoked on the serving thread after accounting and *before* the
    /// future resolves, with exactly one of (result, error) set.  Must
    /// not block on this service's own futures (the caller may be a pool
    /// worker) and must not throw (exceptions are swallowed).  This is
    /// how the network front end pushes Result frames without parking a
    /// worker on a future.
    std::function<void(const DesignFlowResult* result,
                       std::exception_ptr error)>
        on_complete;
};

/// Typed admission failures: thrown by submit() before a job is accepted
/// (the job never gets a future).  Derives from std::runtime_error so
/// pre-tenancy callers that caught that keep working.
class AdmissionError : public std::runtime_error {
public:
    enum class Kind {
        Stopped,        ///< service no longer accepts submissions
        UnknownTenant,  ///< SubmitOptions::tenant was never registered
        QuotaExceeded,  ///< tenant's max_pending breached
    };

    AdmissionError(Kind kind, const std::string& what)
        : std::runtime_error(what), kind_(kind) {}

    Kind kind() const { return kind_; }

private:
    Kind kind_;
};

/// A point-in-time view of the serving counters.
struct ServiceStats {
    std::uint64_t jobs_submitted = 0;
    std::uint64_t jobs_completed = 0;  ///< includes failed/cancelled jobs
    std::uint64_t jobs_pending = 0;    ///< queued + currently executing
    std::uint64_t jobs_cancelled = 0;  ///< explicit cancel or stop_now()
    std::uint64_t jobs_timed_out = 0;  ///< SubmitOptions::timeout_seconds
    std::uint64_t jobs_rejected = 0;   ///< admission failures (not submitted)
    std::uint64_t samples_run = 0;     ///< decision vectors scored (measured)
    std::uint64_t model_swaps = 0;
    /// Verification tally (the job's FlowConfig::verify gates the first
    /// three): verified = proven equivalent, refuted = counterexample
    /// found, unknown = every engine degraded, unverified = completed
    /// without a verdict (verification off, or the job failed/was
    /// cancelled).
    std::uint64_t jobs_verified = 0;
    std::uint64_t jobs_refuted = 0;
    std::uint64_t jobs_unknown = 0;
    std::uint64_t jobs_unverified = 0;
    /// Verdict-cache counters of the service's prover, over every job
    /// that verified.
    std::uint64_t verify_cache_lookups = 0;
    std::uint64_t verify_cache_hits = 0;
    double uptime_seconds = 0.0;
    double busy_seconds = 0.0;  ///< summed per-job execution time
    /// Submit-to-completion latency percentiles over the sliding window.
    double p50_latency_seconds = 0.0;
    double p95_latency_seconds = 0.0;
    /// Completed-job throughput over the service lifetime.
    double jobs_per_second = 0.0;
    double samples_per_second = 0.0;
    /// Per-tenant slices, in registration order (default tenant first).
    std::vector<TenantStats> tenants;
};

class FlowService {
public:
    explicit FlowService(ServiceConfig cfg = {}, ModelSnapshot model = {});
    ~FlowService();  // stop()s: pending jobs finish, new ones are rejected

    FlowService(const FlowService&) = delete;
    FlowService& operator=(const FlowService&) = delete;

    const ServiceConfig& config() const { return cfg_; }
    std::size_t workers() const { return pool_.size(); }
    ThreadPool& pool() { return pool_; }
    /// The long-lived portfolio prover every verifying job shares (its
    /// verdict cache spans jobs), built from the service default's
    /// FlowConfig::verify_opts; a job that turns verification on by itself
    /// proves here too.
    verify::PortfolioCec* prover() { return &prover_; }

    /// Add a tenant, or reconfigure an existing one (weight, quota,
    /// model) — queued jobs keep their bindings.  Thread-safe; weight
    /// must be >= 1.
    void register_tenant(TenantConfig tenant);

    /// Install `model` for default-tenant jobs submitted from now on;
    /// in-flight and queued jobs keep the snapshot they were bound to.
    /// A null snapshot is allowed (drops the service's reference) but
    /// submissions are rejected until a real model is installed again.
    void swap_model(ModelSnapshot model);
    /// Same hot-swap contract for one tenant's override; a null snapshot
    /// reverts the tenant to the service default.  Throws AdmissionError
    /// (UnknownTenant) for unregistered names.
    void swap_tenant_model(const std::string& tenant, ModelSnapshot model);
    ModelSnapshot model_snapshot() const;

    /// Enqueue one design job, bound to the submitting tenant's current
    /// model snapshot.  The future reports the job's DesignFlowResult or
    /// rethrows its error (bg::CancelledError for cancelled / timed-out /
    /// stop_now-flushed jobs).  Throws AdmissionError when stopped, for
    /// unknown tenants, and on quota breaches; std::invalid_argument when
    /// no model is installed.
    std::future<DesignFlowResult> submit(DesignJob job,
                                         SubmitOptions opts = {});
    std::vector<std::future<DesignFlowResult>> submit_batch(
        std::vector<DesignJob> jobs);

    /// Block until the service is idle (no queued or executing job).
    /// Concurrent producers may keep the service busy past the return —
    /// call stop() first for a definitive quiesce.
    void drain();

    /// Reject further submissions, then drain().  Queued and running
    /// jobs complete normally.  Idempotent.
    void stop();
    /// Reject further submissions, fail every *queued* job's future with
    /// CancelledError, request cancellation of every *running* job, and
    /// drain.  Every issued future is resolved when this returns.
    /// Idempotent; safe after stop().
    void stop_now();
    bool accepting() const;

    ServiceStats stats() const;

private:
    struct QueuedJob {
        DesignJob job;
        ModelSnapshot model;  ///< bound at submit() time
        std::promise<DesignFlowResult> promise;
        bg::Stopwatch queued;  ///< started at submit() -> latency
        std::size_t tenant_index = 0;
        std::shared_ptr<bg::CancelToken> token;  ///< never null
        std::size_t rounds = 1;                  ///< resolved at submit()
        std::optional<FlowConfig> flow;
        bool want_graph = false;
        std::function<void(std::size_t, std::size_t)> on_progress;
        std::function<void(const DesignFlowResult*, std::exception_ptr)>
            on_complete;
    };

    struct Tenant {
        TenantConfig cfg;
        std::deque<QueuedJob> queue;
        std::size_t running = 0;
        std::size_t credits = 0;  ///< weighted-RR budget at the cursor
        TenantStats counters;     ///< name + totals (pending derived)
    };

    void serve_next();  ///< one pool task: pop one job and run it
    Tenant* find_tenant_locked(const std::string& name);
    std::optional<QueuedJob> pop_next_locked();
    void advance_cursor_locked();
    /// Deliver one job's outcome: account under the lock, then run
    /// on_complete and resolve the promise outside it.
    void finish_job(QueuedJob& queued, DesignFlowResult* res,
                    std::exception_ptr error, double busy, bool ran);

    ServiceConfig cfg_;
    ThreadPool pool_;
    /// Shared by every serving task (PortfolioCec::check is thread-safe).
    verify::PortfolioCec prover_;
    const bg::Stopwatch uptime_;

    mutable std::mutex mu_;
    std::condition_variable idle_cv_;  ///< signalled when service goes idle
    /// Stable-address tenant slots in registration order; index 0 is the
    /// default tenant.  The weighted-RR cursor walks this vector.
    std::vector<std::unique_ptr<Tenant>> tenants_;
    std::size_t rr_cursor_ = 0;
    std::size_t queued_total_ = 0;
    std::size_t running_ = 0;
    /// Tokens of currently executing jobs, for stop_now() cancellation.
    std::vector<std::shared_ptr<bg::CancelToken>> running_tokens_;
    bool accepting_ = true;
    ModelSnapshot model_;
    // Counters (guarded by mu_).
    std::uint64_t submitted_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t cancelled_ = 0;
    std::uint64_t timed_out_ = 0;
    std::uint64_t rejected_ = 0;
    std::uint64_t swaps_ = 0;
    std::uint64_t samples_ = 0;
    std::uint64_t verified_ = 0;
    std::uint64_t refuted_ = 0;
    std::uint64_t unknown_ = 0;
    std::uint64_t unverified_ = 0;
    double busy_seconds_ = 0.0;
    std::vector<double> latencies_;  ///< ring buffer, latency_window wide
    std::size_t latency_next_ = 0;
    bool latency_full_ = false;
};

}  // namespace bg::core
