/// \file bench_fig2_sampling.cpp
/// Reproduces Figure 2: the distribution of optimized AIG sizes under
/// purely random sampling vs priority-guided sampling for b11, b12,
/// c2670 and c5315.  The paper's findings to check:
///  (1) decision choice matters — the size spread is wide;
///  (2) random QoR is roughly Gaussian (bulky middle, thin tails);
///  (3) guided sampling is shifted toward smaller sizes.

#include "bench_common.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
    const auto scale = bgbench::Scale::from_args(argc, argv);
    scale.banner("Figure 2: random vs priority-guided sampling QoR");

    bg::TablePrinter table({"design", "strategy", "samples", "mean", "sd",
                            "min", "max", "density (size lo->hi)"});
    bool guided_always_better = true;
    for (const std::string name : {"b11", "b12", "c2670", "c5315"}) {
        const auto design = scale.design(name);
        const auto random = bg::core::generate_random_samples(
            design, scale.fig2_samples, 0xF16'2, {}, nullptr,
            &bgbench::pool());
        const auto guided = bg::core::generate_guided_samples(
            design, scale.fig2_samples, 0xF16'2, {}, nullptr, nullptr,
            &bgbench::pool());

        double lo = 1e18;
        double hi = -1e18;
        const auto sizes = [&](const auto& batch) {
            std::vector<double> out;
            for (const auto& s : batch) {
                out.push_back(static_cast<double>(s.final_size));
                lo = std::min(lo, out.back());
                hi = std::max(hi, out.back());
            }
            return out;
        };
        const auto rs = sizes(random);
        const auto gs = sizes(guided);

        const auto emit = [&](const char* strategy,
                              const std::vector<double>& v) {
            const auto sum = bg::summarize(v);
            const auto hist = bg::histogram(v, 24, lo, hi);
            table.add_row({name, strategy, std::to_string(v.size()),
                           bg::TablePrinter::fmt(sum.mean, 1),
                           bg::TablePrinter::fmt(sum.stddev, 1),
                           bg::TablePrinter::fmt(sum.min, 0),
                           bg::TablePrinter::fmt(sum.max, 0),
                           bg::sparkline(hist)});
        };
        emit("random", rs);
        emit("guided", gs);
        guided_always_better &= bg::mean(gs) < bg::mean(rs);
    }
    table.print();
    std::printf("\nshape check (paper): guided mean size < random mean size "
                "on every design: %s\n",
                guided_always_better ? "YES" : "NO");
    return guided_always_better ? 0 : 1;
}
