/// Scale harness for the packed AIG storage redesign: build a >= 1M-AND
/// graph, round-trip it through the AIGER file -> DesignSource path, build
/// the feature-extraction CSR, and complete one size-objective flow round.
/// Alongside the throughput table it self-checks the storage acceptance
/// bar — at most 16 bytes per node of core node storage — and returns
/// nonzero if any check fails, so CI/nightly can gate on it.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "circuits/design_source.hpp"
#include "circuits/generators.hpp"
#include "core/features.hpp"
#include "core/flow_engine.hpp"
#include "core/model.hpp"
#include "io/aiger.hpp"
#include "util/progress.hpp"

namespace {

namespace fs = std::filesystem;

std::string mb(std::size_t bytes) {
    return bg::TablePrinter::fmt(static_cast<double>(bytes) / (1024.0 * 1024.0),
                                 1) +
           " MiB";
}

std::string rate(double count, double secs) {
    return bg::TablePrinter::fmt(secs > 0.0 ? count / secs / 1e6 : 0.0, 2) +
           " M/s";
}

}  // namespace

int main(int argc, char** argv) {
    using bg::aig::Aig;

    const bool full = bg::full_scale_requested(argc, argv);
    const std::size_t k_ands = full ? 2'000'000 : 1'000'000;
    std::printf("== AIG scale: packed storage throughput ==\n");
    std::printf("mode: %s (%zu AND nodes)%s\n\n",
                full ? "PAPER-SCALE" : "quick", k_ands,
                full ? "" : "   [--full or BOOLGEBRA_FULL=1 for 2M nodes]");

    std::vector<std::string> failures;
    const auto check = [&failures](bool ok, const std::string& what) {
        if (!ok) {
            failures.push_back(what);
        }
        std::printf("self-check: %-52s %s\n", what.c_str(),
                    ok ? "OK" : "FAIL");
    };

    bg::TablePrinter table({"stage", "seconds", "throughput"});
    bg::Stopwatch sw;

    // -- construction -------------------------------------------------------
    Aig g = bg::circuits::dense_random_aig(64, k_ands, 42);
    const double t_build = sw.seconds();
    table.add_row({"build (and_/strash)", bg::TablePrinter::fmt(t_build, 2),
                   rate(static_cast<double>(g.num_ands()), t_build)});

    const auto m = g.memory_stats();
    std::printf("node record: %zu bytes   nodes: %zu   core array: %s\n",
                Aig::node_bytes(), g.num_slots(), mb(m.node_array_bytes).c_str());
    std::printf("fanout arena: %s   strash: %s   total: %s\n\n",
                mb(m.fanout_bytes).c_str(), mb(m.strash_bytes).c_str(),
                mb(m.total()).c_str());

    // The acceptance bar: core node storage at most 16 bytes per node.
    check(Aig::node_bytes() <= 16, "core node storage <= 16 bytes/node");
    check(m.node_array_bytes >= g.num_slots() * Aig::node_bytes(),
          "memory stats account for the node array");

    // -- traversal ----------------------------------------------------------
    sw.reset();
    const auto order = g.topo_ands();
    const std::size_t depth = g.depth();
    const double t_topo = sw.seconds();
    table.add_row({"topo + depth", bg::TablePrinter::fmt(t_topo, 2),
                   rate(static_cast<double>(order.size()), t_topo)});
    check(order.size() == g.num_ands(), "topological order covers every AND");
    check(depth > 0, "depth computed on the large graph");

    // -- AIGER round trip through the DesignSource workload path ------------
    const auto dir = fs::temp_directory_path() / "bg_bench_aig_scale";
    fs::create_directories(dir);
    const std::string path = (dir / "scale.aig").string();

    sw.reset();
    bg::io::write_aiger_binary_file(g, path);
    const double t_write = sw.seconds();
    std::error_code size_ec;
    const auto file_bytes = fs::file_size(path, size_ec);
    table.add_row({"AIGER binary write", bg::TablePrinter::fmt(t_write, 2),
                   mb(size_ec ? 0 : file_bytes)});

    sw.reset();
    const Aig loaded = bg::circuits::load_design_spec("file:" + path);
    const double t_load = sw.seconds();
    table.add_row({"file: spec load", bg::TablePrinter::fmt(t_load, 2),
                   rate(static_cast<double>(loaded.num_ands()), t_load)});
    check(loaded.num_ands() >= k_ands, "loaded graph keeps >= target ANDs");
    check(loaded.num_pis() == g.num_pis() && loaded.num_pos() == g.num_pos(),
          "AIGER round trip preserves the interface");

    // -- GNN ingestion: CSR build -------------------------------------------
    sw.reset();
    const auto csr = bg::core::build_csr(loaded);
    const double t_csr = sw.seconds();
    table.add_row({"feature CSR build", bg::TablePrinter::fmt(t_csr, 2),
                   rate(static_cast<double>(csr.neighbors.size()), t_csr)});
    check(csr.offsets.size() == loaded.num_slots() + 1,
          "CSR offsets cover every slot");

    // -- one size-objective flow round --------------------------------------
    bg::core::ModelConfig mc = bg::core::ModelConfig::quick();
    mc.sage_dims = {12, 12, 8};
    mc.mlp_dims = {16, 8, 1};
    mc.dropout = 0.0F;
    mc.seed = 17;
    const bg::core::BoolGebraModel model{mc};
    bg::core::FlowConfig fc;
    fc.num_samples = full ? 8 : 2;
    fc.top_k = 1;
    fc.seed = 11;

    bg::ThreadPool pool;  // default size: the static-feature checks dominate
    sw.reset();
    const auto res = bg::core::run_design_flow({"scale", loaded}, model, fc,
                                               /*rounds=*/1, &pool);
    const double t_flow = sw.seconds();
    table.add_row({"size-objective flow round",
                   bg::TablePrinter::fmt(t_flow, 2),
                   std::to_string(res.samples_run) + " samples"});
    check(res.original_size == loaded.num_ands(),
          "flow round ran on the file-backed graph");
    check(res.iterated.final_size > 0 &&
              res.iterated.final_size <= res.original_size,
          "flow round completed with a committed size");

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
