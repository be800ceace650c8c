#pragma once

/// \file cancel.hpp
/// Cooperative cancellation shared by the optimization passes, the flow
/// engine and the serving stack.
///
/// A CancelToken carries two independent stop signals:
///  * an explicit flag (`request_cancel`), set by a client Cancel frame,
///    a dropped connection, or `FlowService::stop_now`;
///  * an optional deadline against `std::chrono::steady_clock`, armed by
///    `SubmitOptions::timeout_seconds`.
///
/// Both are plain atomics so workers may poll from any thread without a
/// lock.  A token built with a parent also stops when the parent does;
/// the CEC gate arms such a child with its own time budget on top of the
/// job's token, so each proof has one deadline.  Cancel points
/// (orchestrate node walks, run_flow stage boundaries, the poll right
/// after the flow's proof) call `throw_if_stopped`, which raises
/// CancelledError; the serving layer maps the exception's reason onto a
/// definite JobStatus.  The CEC engines only read `should_stop` (between
/// simulation chunks, every 256 SAT conflicts) and degrade to
/// ProbablyEquivalent, leaving the raise to the next cancel point.
/// Polling is strictly observational: a null token (the default
/// everywhere) compiles down to a pointer test, keeping cancel-free runs
/// bit-identical to the pre-cancellation code paths.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace bg {

/// Why a cancelled computation stopped.
enum class CancelReason : std::uint8_t {
    Cancelled = 0,  ///< explicit request_cancel()
    TimedOut = 1,   ///< deadline expired
};

/// Thrown from cancel points; carries the reason so the serving layer can
/// report Cancelled vs TimedOut without string matching.
class CancelledError : public std::runtime_error {
public:
    CancelledError(CancelReason reason, const std::string& where)
        : std::runtime_error(
              (reason == CancelReason::TimedOut ? "timed out in "
                                                : "cancelled in ") +
              where),
          reason_(reason) {}

    CancelReason reason() const { return reason_; }

private:
    CancelReason reason_;
};

class CancelToken {
public:
    CancelToken() = default;
    /// A child token: it also stops when `parent` (null = none) stops,
    /// with the parent's reason; stopping the child never stops the
    /// parent.  The parent must outlive the child.
    explicit CancelToken(const CancelToken* parent) noexcept
        : parent_(parent) {}
    CancelToken(const CancelToken&) = delete;
    CancelToken& operator=(const CancelToken&) = delete;

    void request_cancel() noexcept {
        cancelled_.store(true, std::memory_order_relaxed);
    }

    /// Arm (or re-arm) the deadline `seconds` from now; non-positive
    /// values disarm it.
    void set_deadline_after(double seconds) noexcept {
        if (seconds <= 0.0) {
            deadline_ns_.store(0, std::memory_order_relaxed);
            return;
        }
        const auto now = std::chrono::steady_clock::now().time_since_epoch();
        const auto delta = std::chrono::nanoseconds(
            static_cast<std::int64_t>(seconds * 1e9));
        deadline_ns_.store(
            std::chrono::duration_cast<std::chrono::nanoseconds>(now)
                    .count() +
                delta.count(),
            std::memory_order_relaxed);
    }

    bool cancel_requested() const noexcept {
        return cancelled_.load(std::memory_order_relaxed) ||
               (parent_ != nullptr && parent_->cancel_requested());
    }

    bool deadline_expired() const noexcept {
        const std::int64_t d = deadline_ns_.load(std::memory_order_relaxed);
        if (d != 0) {
            const auto now =
                std::chrono::steady_clock::now().time_since_epoch();
            if (std::chrono::duration_cast<std::chrono::nanoseconds>(now)
                    .count() >= d) {
                return true;
            }
        }
        return parent_ != nullptr && parent_->deadline_expired();
    }

    bool should_stop() const noexcept {
        return cancel_requested() || deadline_expired();
    }

    /// The reason a stopped token stopped; explicit cancellation wins
    /// when both signals fired.
    CancelReason stop_reason() const noexcept {
        return cancel_requested() ? CancelReason::Cancelled
                                  : CancelReason::TimedOut;
    }

    /// Cancel point: raises CancelledError when either signal fired.
    void throw_if_stopped(const char* where) const {
        if (cancel_requested()) {
            throw CancelledError(CancelReason::Cancelled, where);
        }
        if (deadline_expired()) {
            throw CancelledError(CancelReason::TimedOut, where);
        }
    }

private:
    const CancelToken* parent_ = nullptr;
    std::atomic<bool> cancelled_{false};
    /// steady_clock deadline in ns since epoch; 0 = disarmed.
    std::atomic<std::int64_t> deadline_ns_{0};
};

/// Null-safe cancel point for the common `const CancelToken*` plumbing.
inline void poll_cancel(const CancelToken* token, const char* where) {
    if (token != nullptr) {
        token->throw_if_stopped(where);
    }
}

}  // namespace bg
