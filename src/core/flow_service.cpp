#include "core/flow_service.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "util/contracts.hpp"

namespace bg::core {

namespace {

/// Definite outcome of one accepted job (how its future resolved).
enum class Outcome { Ok, Cancelled, TimedOut, Failed };

Outcome classify(const std::exception_ptr& error) {
    if (error == nullptr) {
        return Outcome::Ok;
    }
    try {
        std::rethrow_exception(error);
    } catch (const bg::CancelledError& e) {
        return e.reason() == bg::CancelReason::TimedOut ? Outcome::TimedOut
                                                        : Outcome::Cancelled;
    } catch (...) {
        return Outcome::Failed;
    }
}

}  // namespace

FlowService::FlowService(ServiceConfig cfg, ModelSnapshot model)
    : cfg_(cfg),
      pool_(cfg.workers),
      prover_(cfg.flow.verify_opts),
      model_(std::move(model)) {
    BG_EXPECTS(cfg_.rounds >= 1, "service needs at least one flow round");
    BG_EXPECTS(cfg_.latency_window >= 1, "latency window must be positive");
    latencies_.assign(cfg_.latency_window, 0.0);
    // The default tenant always exists: pre-tenancy submit() maps to it.
    auto def = std::make_unique<Tenant>();
    def->cfg.name = "";
    def->credits = def->cfg.weight;
    tenants_.push_back(std::move(def));
}

FlowService::~FlowService() { stop(); }

FlowService::Tenant* FlowService::find_tenant_locked(
    const std::string& name) {
    for (auto& t : tenants_) {
        if (t->cfg.name == name) {
            return t.get();
        }
    }
    return nullptr;
}

void FlowService::register_tenant(TenantConfig tenant) {
    BG_EXPECTS(tenant.weight >= 1, "tenant weight must be >= 1");
    const std::lock_guard<std::mutex> lock(mu_);
    if (Tenant* existing = find_tenant_locked(tenant.name)) {
        // Reconfigure in place: queued jobs keep the model they bound at
        // submit() time, the new weight takes effect at the next cursor
        // visit.
        existing->cfg = std::move(tenant);
        return;
    }
    auto t = std::make_unique<Tenant>();
    t->counters.name = tenant.name;
    t->cfg = std::move(tenant);
    t->credits = t->cfg.weight;
    tenants_.push_back(std::move(t));
}

void FlowService::swap_model(ModelSnapshot model) {
    const std::lock_guard<std::mutex> lock(mu_);
    model_ = std::move(model);
    ++swaps_;
}

void FlowService::swap_tenant_model(const std::string& tenant,
                                    ModelSnapshot model) {
    const std::lock_guard<std::mutex> lock(mu_);
    Tenant* t = find_tenant_locked(tenant);
    if (t == nullptr) {
        throw AdmissionError(AdmissionError::Kind::UnknownTenant,
                             "unknown tenant '" + tenant + "'");
    }
    t->cfg.model = std::move(model);
    ++swaps_;
}

ModelSnapshot FlowService::model_snapshot() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return model_;
}

std::future<DesignFlowResult> FlowService::submit(DesignJob job,
                                                  SubmitOptions opts) {
    std::future<DesignFlowResult> future;
    {
        const std::lock_guard<std::mutex> lock(mu_);
        if (!accepting_) {
            throw AdmissionError(
                AdmissionError::Kind::Stopped,
                "FlowService is stopped and rejects new jobs");
        }
        Tenant* tenant = find_tenant_locked(opts.tenant);
        if (tenant == nullptr) {
            ++rejected_;
            throw AdmissionError(AdmissionError::Kind::UnknownTenant,
                                 "unknown tenant '" + opts.tenant + "'");
        }
        const ModelSnapshot bound =
            tenant->cfg.model != nullptr ? tenant->cfg.model : model_;
        if (bound == nullptr) {
            throw std::invalid_argument(
                "FlowService has no model installed (swap_model first)");
        }
        if (tenant->cfg.max_pending != 0 &&
            tenant->queue.size() + tenant->running >=
                tenant->cfg.max_pending) {
            ++rejected_;
            ++tenant->counters.jobs_rejected;
            throw AdmissionError(
                AdmissionError::Kind::QuotaExceeded,
                "tenant '" + opts.tenant + "' quota exceeded (" +
                    std::to_string(tenant->cfg.max_pending) +
                    " pending jobs)");
        }
        QueuedJob queued;
        queued.job = std::move(job);
        queued.model = bound;  // bind the snapshot at submission
        queued.tenant_index = static_cast<std::size_t>(
            std::find_if(tenants_.begin(), tenants_.end(),
                         [&](const auto& t) { return t.get() == tenant; }) -
            tenants_.begin());
        queued.token = opts.cancel != nullptr
                           ? std::move(opts.cancel)
                           : std::make_shared<bg::CancelToken>();
        if (opts.timeout_seconds > 0.0) {
            queued.token->set_deadline_after(opts.timeout_seconds);
        }
        queued.rounds = opts.rounds != 0 ? opts.rounds : cfg_.rounds;
        queued.flow = std::move(opts.flow);
        queued.want_graph = opts.want_graph;
        queued.on_progress = std::move(opts.on_progress);
        queued.on_complete = std::move(opts.on_complete);
        future = queued.promise.get_future();
        tenant->queue.push_back(std::move(queued));
        ++queued_total_;
        ++submitted_;
        ++tenant->counters.jobs_submitted;
    }
    // One serving task per job: any pool worker may pop any queued job.
    // The job always reaches a queue before its task reaches the pool, so
    // a serving task finds work unless stop_now() flushed it first.
    (void)pool_.submit([this] { serve_next(); });
    return future;
}

std::vector<std::future<DesignFlowResult>> FlowService::submit_batch(
    std::vector<DesignJob> jobs) {
    std::vector<std::future<DesignFlowResult>> futures;
    futures.reserve(jobs.size());
    for (auto& job : jobs) {
        futures.push_back(submit(std::move(job)));
    }
    return futures;
}

void FlowService::advance_cursor_locked() {
    rr_cursor_ = (rr_cursor_ + 1) % tenants_.size();
    tenants_[rr_cursor_]->credits = tenants_[rr_cursor_]->cfg.weight;
}

std::optional<FlowService::QueuedJob> FlowService::pop_next_locked() {
    if (queued_total_ == 0) {
        return std::nullopt;
    }
    // Weighted round-robin: the cursor tenant keeps popping while it has
    // credits and queued work; advancing the cursor refills the next
    // tenant's credits.  Empty tenants are skipped without spending
    // anything, so one full sweep always finds the work counted by
    // queued_total_.
    for (std::size_t attempts = 0; attempts <= tenants_.size();
         ++attempts) {
        Tenant& t = *tenants_[rr_cursor_];
        if (!t.queue.empty() && t.credits > 0) {
            --t.credits;
            QueuedJob job = std::move(t.queue.front());
            t.queue.pop_front();
            --queued_total_;
            ++t.running;
            if (t.credits == 0) {
                advance_cursor_locked();
            }
            return job;
        }
        advance_cursor_locked();
    }
    return std::nullopt;  // unreachable while queued_total_ is accurate
}

void FlowService::finish_job(QueuedJob& queued, DesignFlowResult* res,
                             std::exception_ptr error, double busy,
                             bool ran) {
    const Outcome outcome = classify(error);
    const double latency = queued.queued.seconds();
    {
        // Account first, deliver after: once a future resolves, stats()
        // already reflects that job.
        const std::lock_guard<std::mutex> lock(mu_);
        Tenant& tenant = *tenants_[queued.tenant_index];
        if (ran) {
            --running_;
            --tenant.running;
            running_tokens_.erase(
                std::find(running_tokens_.begin(), running_tokens_.end(),
                          queued.token));
        }
        ++completed_;
        ++tenant.counters.jobs_completed;
        switch (outcome) {
            case Outcome::Ok:
                ++tenant.counters.jobs_ok;
                break;
            case Outcome::Cancelled:
                ++cancelled_;
                ++tenant.counters.jobs_cancelled;
                break;
            case Outcome::TimedOut:
                ++timed_out_;
                ++tenant.counters.jobs_timed_out;
                break;
            case Outcome::Failed:
                ++tenant.counters.jobs_failed;
                break;
        }
        samples_ += error == nullptr ? res->samples_run : 0;
        if (error == nullptr && res->verification) {
            switch (res->verification->verdict) {
                case aig::CecVerdict::Equivalent:
                    ++verified_;
                    break;
                case aig::CecVerdict::NotEquivalent:
                    ++refuted_;
                    break;
                case aig::CecVerdict::ProbablyEquivalent:
                    ++unknown_;
                    break;
            }
        } else {
            ++unverified_;
        }
        if (ran) {
            busy_seconds_ += busy;
            latencies_[latency_next_] = latency;
            latency_next_ = (latency_next_ + 1) % latencies_.size();
            latency_full_ = latency_full_ || latency_next_ == 0;
        }
        if (queued_total_ == 0 && running_ == 0) {
            idle_cv_.notify_all();
        }
    }
    if (queued.on_complete) {
        // Contract: runs before the future resolves, must not throw.
        try {
            queued.on_complete(error == nullptr ? res : nullptr, error);
        } catch (...) {
        }
    }
    if (error != nullptr) {
        queued.promise.set_exception(error);
    } else {
        queued.promise.set_value(std::move(*res));
    }
}

void FlowService::serve_next() {
    std::optional<QueuedJob> popped;
    {
        const std::lock_guard<std::mutex> lock(mu_);
        popped = pop_next_locked();
        if (!popped) {
            return;  // stop_now() flushed the job this task was paired with
        }
        ++running_;
        running_tokens_.push_back(popped->token);
    }
    QueuedJob queued = std::move(*popped);
    const bg::Stopwatch exec;
    DesignFlowResult res;
    std::exception_ptr error;
    if (queued.token->should_stop()) {
        // Cancelled or expired while queued: never start the flow.
        error = std::make_exception_ptr(bg::CancelledError(
            queued.token->stop_reason(), "FlowService queue"));
    } else {
        try {
            JobControl control;
            control.cancel = queued.token.get();
            control.on_progress = std::move(queued.on_progress);
            control.want_graph = queued.want_graph;
            const FlowConfig& flow =
                queued.flow ? *queued.flow : cfg_.flow;
            res = run_design_flow(queued.job, *queued.model, flow,
                                  queued.rounds, &pool_, &prover_,
                                  &control);
        } catch (...) {
            error = std::current_exception();
        }
    }
    finish_job(queued, &res, error, exec.seconds(), /*ran=*/true);
}

void FlowService::drain() {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock,
                  [&] { return queued_total_ == 0 && running_ == 0; });
}

void FlowService::stop() {
    {
        const std::lock_guard<std::mutex> lock(mu_);
        accepting_ = false;
    }
    drain();
}

void FlowService::stop_now() {
    std::vector<QueuedJob> flushed;
    {
        const std::lock_guard<std::mutex> lock(mu_);
        accepting_ = false;
        for (auto& tenant : tenants_) {
            while (!tenant->queue.empty()) {
                flushed.push_back(std::move(tenant->queue.front()));
                tenant->queue.pop_front();
                --queued_total_;
            }
        }
        // Running jobs stop at their next cancel point; their futures
        // resolve with CancelledError from the serving task itself.
        for (const auto& token : running_tokens_) {
            token->request_cancel();
        }
    }
    for (auto& queued : flushed) {
        const auto error = std::make_exception_ptr(bg::CancelledError(
            bg::CancelReason::Cancelled, "FlowService stop_now"));
        finish_job(queued, nullptr, error, 0.0, /*ran=*/false);
    }
    drain();
}

bool FlowService::accepting() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return accepting_;
}

namespace {

double percentile(std::vector<double>& sorted_scratch, double q) {
    if (sorted_scratch.empty()) {
        return 0.0;
    }
    // Nearest-rank on the sorted window.
    const auto n = sorted_scratch.size();
    const auto rank = static_cast<std::size_t>(std::min<double>(
        static_cast<double>(n) - 1.0,
        std::max(0.0, std::ceil(q * static_cast<double>(n)) - 1.0)));
    return sorted_scratch[rank];
}

}  // namespace

ServiceStats FlowService::stats() const {
    ServiceStats out;
    std::vector<double> window;
    {
        const std::lock_guard<std::mutex> lock(mu_);
        out.jobs_submitted = submitted_;
        out.jobs_completed = completed_;
        out.jobs_pending = queued_total_ + running_;
        out.jobs_cancelled = cancelled_;
        out.jobs_timed_out = timed_out_;
        out.jobs_rejected = rejected_;
        out.samples_run = samples_;
        out.model_swaps = swaps_;
        out.jobs_verified = verified_;
        out.jobs_refuted = refuted_;
        out.jobs_unknown = unknown_;
        out.jobs_unverified = unverified_;
        out.busy_seconds = busy_seconds_;
        out.tenants.reserve(tenants_.size());
        for (const auto& t : tenants_) {
            TenantStats ts = t->counters;
            ts.name = t->cfg.name;
            ts.jobs_pending = t->queue.size() + t->running;
            out.tenants.push_back(std::move(ts));
        }
        const std::size_t filled =
            latency_full_ ? latencies_.size() : latency_next_;
        window.assign(latencies_.begin(),
                      latencies_.begin() +
                          static_cast<std::ptrdiff_t>(filled));
    }
    out.verify_cache_lookups = prover_.cache_lookups();
    out.verify_cache_hits = prover_.cache_hits();
    out.uptime_seconds = uptime_.seconds();
    std::sort(window.begin(), window.end());
    out.p50_latency_seconds = percentile(window, 0.50);
    out.p95_latency_seconds = percentile(window, 0.95);
    if (out.uptime_seconds > 0.0) {
        out.jobs_per_second =
            static_cast<double>(out.jobs_completed) / out.uptime_seconds;
        out.samples_per_second =
            static_cast<double>(out.samples_run) / out.uptime_seconds;
    }
    return out;
}

}  // namespace bg::core
