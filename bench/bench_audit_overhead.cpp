/// \file bench_audit_overhead.cpp
/// Pins the "audit hooks are free in normal builds" claim two ways:
///
///  1. Semantically: sweeping every accessor of a large AIG under an
///     *active* ShadowScope must record nothing in a normal build — if a
///     hook were ever compiled unconditionally, the shadow set would fill
///     and this harness exits non-zero.  (Audit builds record, and the
///     harness checks that instead.)
///  2. Empirically: the accessor sweep is timed with and without the
///     active scope, so an audit-build slowdown is visible and a normal
///     build can eyeball parity.  Timing is reported, never asserted —
///     a loaded CI box must not flake the build.

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "aig/aig.hpp"
#include "aig/audit.hpp"
#include "circuits/registry.hpp"

namespace {

using namespace bg::aig;  // NOLINT: bench brevity

/// One full accessor sweep: every read class of every node, accumulated
/// into a checksum the optimizer cannot discard.
std::uint64_t sweep(const Aig& g) {
    std::uint64_t acc = 0;
    for (const Var v : g.topo_ands()) {
        acc += g.is_and(v) ? 1 : 0;
        acc += g.fanin0_ref(v).raw();
        acc += g.fanin1_ref(v).raw();
        acc += g.ref_count(v);
        acc += g.level(v);
        for (const Var f : g.fanouts(v)) {
            acc += f;
        }
    }
    return acc;
}

double time_sweeps(const Aig& g, int reps, std::uint64_t& sink) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) {
        sink += sweep(g);
    }
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

int main() {
    std::printf("== Audit-hook overhead (%s build) ==\n",
                audit::enabled() ? "AUDIT" : "normal");
    const Aig g = bg::circuits::make_benchmark_scaled("b12", 0.5);
    std::printf("design: %s\n", g.to_string().c_str());
    const int reps = 50;

    std::uint64_t sink = 0;
    const double cold_ms = time_sweeps(g, reps, sink);  // warm caches

    const double plain_ms = time_sweeps(g, reps, sink);

    audit::ShadowSet shadow;
    double scoped_ms = 0;
    {
        const audit::ShadowScope scope(shadow);
        scoped_ms = time_sweeps(g, reps, sink);
    }

    std::printf("sweep x%d: no scope %.2f ms, active scope %.2f ms "
                "(warmup %.2f ms, checksum %llu)\n",
                reps, plain_ms, scoped_ms, cold_ms,
                static_cast<unsigned long long>(sink));

    if (audit::enabled()) {
        if (shadow.entries.empty() && !shadow.overflow) {
            std::fprintf(stderr,
                         "FAIL: audit build recorded no accessor reads\n");
            return EXIT_FAILURE;
        }
        std::printf("audit build: %zu reads recorded%s\n",
                    shadow.entries.size(),
                    shadow.overflow ? " (overflowed)" : "");
    } else {
        // The pin: a normal build must compile the hooks to nothing, so
        // an active recorder observes zero reads.
        if (!shadow.entries.empty() || shadow.overflow ||
            shadow.undeclarable_read) {
            std::fprintf(stderr,
                         "FAIL: normal build recorded %zu accessor reads — "
                         "an audit hook is compiled unconditionally\n",
                         shadow.entries.size());
            return EXIT_FAILURE;
        }
        std::printf("normal build: 0 reads recorded with an active scope — "
                    "hooks compiled away\n");
    }
    return EXIT_SUCCESS;
}
