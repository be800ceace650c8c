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
/// lock.  Cancel points (orchestrate node walks, run_flow stage
/// boundaries, the poll right after a CEC proof) call `throw_if_stopped`,
/// which raises CancelledError; the serving layer maps the exception's
/// reason onto a definite JobStatus.  The CEC engines only read
/// `should_stop` (between simulation chunks, every 256 SAT conflicts) and
/// degrade to ProbablyEquivalent, leaving the raise to the next cancel
/// point.  Polling is strictly observational: a null token
/// (the default everywhere) compiles down to a pointer test, keeping
/// cancel-free runs bit-identical to the pre-cancellation code paths.

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
        return cancelled_.load(std::memory_order_relaxed);
    }

    bool deadline_expired() const noexcept {
        const std::int64_t d = deadline_ns_.load(std::memory_order_relaxed);
        if (d == 0) {
            return false;
        }
        const auto now = std::chrono::steady_clock::now().time_since_epoch();
        return std::chrono::duration_cast<std::chrono::nanoseconds>(now)
                   .count() >= d;
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
