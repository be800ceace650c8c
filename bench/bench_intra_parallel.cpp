/// Harness for the intra-design parallel orchestrator: on a >= 100k-node
/// scaled registry design and a 1M-node file-backed design, run the same
/// mixed decision vector through the sequential orchestrator and the
/// speculate/ordered-commit path at 1/2/4 workers.  Alongside
/// the throughput table it self-checks the acceptance bar — bit-identical
/// committed graphs at every worker count and a >= 1.5x orchestration
/// speedup at 4 workers on the registry design — and returns nonzero if
/// any check fails, so CI/nightly can gate on it.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "aig/cec.hpp"
#include "circuits/design_source.hpp"
#include "circuits/generators.hpp"
#include "circuits/registry.hpp"
#include "io/aiger.hpp"
#include "opt/orchestrate.hpp"
#include "util/parallel.hpp"
#include "util/progress.hpp"

namespace {

namespace fs = std::filesystem;
using bg::aig::Aig;
using bg::aig::Var;
using bg::opt::DecisionVector;
using bg::opt::OpKind;

/// rw/rs/rf round-robin over every AND — the same shape a sampled flow
/// round commits.
DecisionVector mixed_decisions(const Aig& g) {
    DecisionVector d(g.num_slots(), OpKind::None);
    for (const Var v : g.topo_ands()) {
        d[v] = bg::opt::op_from_index(static_cast<int>(v % 3));
    }
    return d;
}

struct StageOutcome {
    double t_seq = 0.0;
    double t_par4 = 0.0;
};

/// Time the sequential orchestrator and the parallel one at each worker
/// count on fresh copies of `design` (best of `reps`, so one scheduler
/// hiccup does not decide the table), checking bit-parity throughout.
StageOutcome run_stage(
    const std::string& label, const Aig& design, int reps,
    bg::TablePrinter& table,
    const std::function<void(bool, const std::string&)>& check) {
    const DecisionVector d = mixed_decisions(design);

    StageOutcome out;
    Aig ref;
    for (int r = 0; r < reps; ++r) {
        Aig g = design;
        bg::Stopwatch sw;
        const auto res = bg::opt::orchestrate(g, d);
        const double t = sw.seconds();
        if (r == 0 || t < out.t_seq) {
            out.t_seq = t;
        }
        if (r == 0) {
            ref = std::move(g);
            check(res.num_applied > 0,
                  label + ": sequential pass applied transforms");
        }
    }
    const auto fp_ref = bg::aig::structural_fingerprint(ref);
    table.add_row({label + " sequential", bg::TablePrinter::fmt(out.t_seq, 3),
                   "1.00x"});

    for (const std::size_t workers : {1UL, 2UL, 4UL}) {
        bg::ThreadPool pool(workers);
        bg::opt::IntraParallel intra;
        intra.pool = &pool;
        double best = 0.0;
        std::uint64_t fp = 0;
        std::size_t conflicts = 0;
        for (int r = 0; r < reps; ++r) {
            Aig g = design;
            bg::Stopwatch sw;
            const auto res = bg::opt::orchestrate_parallel(
                g, d, {}, bg::opt::size_objective(), intra);
            const double t = sw.seconds();
            if (r == 0 || t < best) {
                best = t;
            }
            fp = bg::aig::structural_fingerprint(g);
            conflicts = res.num_conflicts;
        }
        check(fp == fp_ref, label + ": bit-identical at " +
                                std::to_string(workers) + " workers");
        const double speedup = best > 0.0 ? out.t_seq / best : 0.0;
        table.add_row({label + " " + std::to_string(workers) + " workers (" +
                           std::to_string(conflicts) + " conflicts)",
                       bg::TablePrinter::fmt(best, 3),
                       bg::TablePrinter::fmt(speedup, 2) + "x"});
        if (workers == 4) {
            out.t_par4 = best;
        }
    }
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    const bool full = bg::full_scale_requested(argc, argv);
    const double registry_scale = full ? 256.0 : 128.0;
    const std::size_t k_file_ands = 1'000'000;
    const int reps = 2;

    std::printf("== Intra-design parallel orchestration ==\n");
    std::printf("mode: %s (registry scale %.0fx, %zu-AND file design)%s\n\n",
                full ? "PAPER-SCALE" : "quick", registry_scale, k_file_ands,
                full ? "" : "   [--full or BOOLGEBRA_FULL=1 for 256x]");

    std::vector<std::string> failures;
    const auto check = [&failures](bool ok, const std::string& what) {
        if (!ok) {
            failures.push_back(what);
        }
        std::printf("self-check: %-58s %s\n", what.c_str(),
                    ok ? "OK" : "FAIL");
    };

    bg::TablePrinter table({"stage", "seconds", "speedup"});

    // -- >= 100k-node scaled registry design --------------------------------
    const Aig registry =
        bg::circuits::make_benchmark_scaled("b12", registry_scale);
    std::printf("registry design: b12 x%.0f = %zu ANDs\n", registry_scale,
                registry.num_ands());
    check(registry.num_ands() >= 100'000,
          "registry design reaches 100k AND nodes");
    const auto reg = run_stage("b12-scaled", registry, reps, table, check);
    check(reg.t_par4 > 0.0 && reg.t_seq / reg.t_par4 >= 1.5,
          "registry design >= 1.5x speedup at 4 workers");

    // -- 1M-node design through the AIGER file -> DesignSource path ---------
    const auto dir = fs::temp_directory_path() / "bg_bench_intra_parallel";
    fs::create_directories(dir);
    const std::string path = (dir / "intra.aig").string();
    {
        const Aig g = bg::circuits::dense_random_aig(64, k_file_ands, 42);
        bg::io::write_aiger_binary_file(g, path);
    }
    const Aig loaded = bg::circuits::load_design_spec("file:" + path);
    std::printf("file design: %zu ANDs from %s\n", loaded.num_ands(),
                path.c_str());
    check(loaded.num_ands() >= k_file_ands,
          "file-backed design keeps >= 1M AND nodes");
    (void)run_stage("file-1M", loaded, 1, table, check);

    std::error_code ec;
    fs::remove_all(dir, ec);

    std::printf("\n");
    table.print();
    std::printf("\nself-checks: %zu failed\n", failures.size());
    for (const auto& f : failures) {
        std::printf("  FAIL: %s\n", f.c_str());
    }
    return failures.empty() ? 0 : 1;
}
