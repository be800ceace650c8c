/// \file bench_cec.cpp
/// CEC latency and self-check: per registry design, times random
/// simulation, incremental SAT and the verification gate
/// (verify::PortfolioCec) on an equivalent pair (design vs its rewritten
/// twin) and a refuted pair (design vs a single flipped output).
///
/// Full mode (--full) adds the large pair: a dense random 20k-AND graph
/// against its rewrite+resub+refactor copy, with the strashed miter's
/// variable count and the SAT stage's conflicts.
///
/// Exits 1 when the gate does not prove a rewritten pair Equivalent or
/// refute a flipped pair NotEquivalent, when any engine reports the
/// opposite definitive verdict, or when a reported counterexample does
/// not distinguish its pair.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "aig/cec.hpp"
#include "bench_common.hpp"
#include "circuits/generators.hpp"
#include "opt/standalone.hpp"
#include "sat/cec_sat.hpp"
#include "verify/portfolio.hpp"

namespace {

using bg::aig::Aig;
using bg::aig::CecVerdict;
using bg::aig::Lit;
using bg::aig::Var;

/// Rebuild `source` with the first PO complemented: a definitively
/// inequivalent twin differing in exactly one output function.
Aig flip_first_po(const Aig& source) {
    const Aig src = source.compact();
    Aig out;
    std::vector<Lit> translate(src.num_slots(), 0);
    translate[0] = bg::aig::lit_false;
    for (std::size_t i = 0; i < src.num_pis(); ++i) {
        translate[src.pi(i)] = out.add_pi();
    }
    for (const Var v : src.topo_ands()) {
        const Lit f0 = src.fanin0(v);
        const Lit f1 = src.fanin1(v);
        translate[v] = out.and_(
            bg::aig::lit_not_cond(translate[bg::aig::lit_var(f0)],
                                  bg::aig::lit_is_compl(f0)),
            bg::aig::lit_not_cond(translate[bg::aig::lit_var(f1)],
                                  bg::aig::lit_is_compl(f1)));
    }
    for (std::size_t i = 0; i < src.num_pos(); ++i) {
        const Lit po = src.po(i);
        const Lit t = bg::aig::lit_not_cond(translate[bg::aig::lit_var(po)],
                                            bg::aig::lit_is_compl(po));
        out.add_po(i == 0 ? bg::aig::lit_not(t) : t);
    }
    return out;
}

struct Row {
    double sim_ms = 0.0;
    double sat_ms = 0.0;
    double gate_ms = 0.0;
    std::uint64_t sat_conflicts = 0;
    CecVerdict verdict = CecVerdict::ProbablyEquivalent;
    bg::verify::Engine engine = bg::verify::Engine::None;
    bool ok = true;
};

/// True unless `verdict` is definitive and contradicts `expected`, or
/// `cex` is non-empty and fails to distinguish the pair.
bool consistent(const Aig& a, const Aig& b, CecVerdict expected,
                CecVerdict verdict, const std::vector<bool>& cex) {
    const CecVerdict opposite = expected == CecVerdict::Equivalent
                                    ? CecVerdict::NotEquivalent
                                    : CecVerdict::Equivalent;
    if (verdict == opposite) {
        return false;
    }
    return cex.empty() || bg::sat::resolve_sat_counterexample(a, b, cex) ==
                              CecVerdict::NotEquivalent;
}

Row measure(const Aig& a, const Aig& b, CecVerdict expected) {
    Row row;
    {
        const bg::Stopwatch t;
        const auto r = bg::aig::check_equivalence_full(a, b);
        row.sim_ms = t.seconds() * 1e3;
        row.ok = consistent(a, b, expected, r.verdict, r.counterexample);
    }
    {
        const bg::Stopwatch t;
        const auto r = bg::sat::check_equivalence_sat_full(a, b);
        row.sat_ms = t.seconds() * 1e3;
        row.sat_conflicts = r.stats.conflicts;
        row.ok = consistent(a, b, expected, r.verdict, r.counterexample) &&
                 row.ok;
    }
    {
        bg::verify::PortfolioCec prover;  // fresh: no cache hits
        const bg::Stopwatch t;
        const auto report = prover.check(a, b);
        row.gate_ms = t.seconds() * 1e3;
        row.verdict = report.verdict;
        row.engine = report.engine;
        row.ok = report.verdict == expected &&
                 consistent(a, b, expected, report.verdict,
                            report.counterexample) &&
                 row.ok;
    }
    return row;
}

void print_row(const std::string& label, const Row& r) {
    std::printf("%-16s %9.2f %9.2f %9.2f   %-20s %-6s %s\n", label.c_str(),
                r.sim_ms, r.sat_ms, r.gate_ms, to_string(r.verdict).c_str(),
                bg::verify::to_string(r.engine).c_str(),
                r.ok ? "ok" : "FAIL");
}

}  // namespace

int main(int argc, char** argv) {
    const auto scale = bgbench::Scale::from_args(argc, argv);
    scale.banner("CEC: sim vs SAT vs the verification gate");

    const std::vector<std::string> names = {"b07", "b08", "b09", "b10",
                                            "b11", "b12", "c2670", "c5315"};
    std::printf("%-16s %9s %9s %9s   %-20s %-6s %s\n", "design", "sim ms",
                "sat ms", "gate ms", "verdict", "stage", "check");
    bool all_ok = true;
    for (const auto& name : names) {
        const Aig original = scale.design(name);
        Aig rewritten = original;
        (void)bg::opt::standalone_pass(rewritten, bg::opt::OpKind::Rewrite);
        const Row eq = measure(original, rewritten, CecVerdict::Equivalent);
        print_row(name, eq);
        const Row neq = measure(original, flip_first_po(original),
                                CecVerdict::NotEquivalent);
        print_row(name + " (flip)", neq);
        all_ok = all_ok && eq.ok && neq.ok;
    }
    if (scale.full) {
        const Aig dense = bg::circuits::dense_random_aig(64, 20000, 1);
        Aig optimized = dense;
        for (const auto op : {bg::opt::OpKind::Rewrite, bg::opt::OpKind::Resub,
                              bg::opt::OpKind::Refactor}) {
            (void)bg::opt::standalone_pass(optimized, op);
        }
        bg::sat::Solver miter;
        (void)bg::sat::encode_miter(miter, dense, optimized);
        const Row row = measure(dense, optimized, CecVerdict::Equivalent);
        print_row("dense 20k", row);
        std::printf("dense 20k: %zu against %zu ANDs, miter %d vars, SAT "
                    "%llu conflicts in %.1f ms, gate %.1f ms\n",
                    dense.num_ands(), optimized.num_ands(), miter.num_vars(),
                    static_cast<unsigned long long>(row.sat_conflicts),
                    row.sat_ms, row.gate_ms);
        all_ok = all_ok && row.ok;
    }
    if (!all_ok) {
        std::printf("\nFAIL: a pair got the wrong verdict or a"
                    " counterexample that does not distinguish it\n");
        return 1;
    }
    std::printf("\nevery rewritten pair proven equivalent, every flipped"
                " pair refuted with a distinguishing counterexample\n");
    return 0;
}
