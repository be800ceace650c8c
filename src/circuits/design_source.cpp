#include "circuits/design_source.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>

#include "circuits/registry.hpp"
#include "io/aiger.hpp"
#include "io/bench.hpp"
#include "util/glob.hpp"

namespace bg::circuits {

namespace fs = std::filesystem;

namespace {

constexpr const char* k_file_prefix = "file:";

bool is_netlist_path(const std::string& s) {
    return s.ends_with(".aag") || s.ends_with(".aig") ||
           s.ends_with(".bench");
}

aig::Aig read_netlist(const std::string& path) {
    std::error_code ec;
    if (!fs::exists(path, ec) || ec) {
        throw DesignSourceError("design file '" + path +
                                "' does not exist");
    }
    try {
        if (path.ends_with(".bench")) {
            return io::read_bench_file(path);
        }
        // .aag/.aig and anything else: sniff the AIGER magic.
        return io::read_aiger_auto_file(path);
    } catch (const DesignSourceError&) {
        throw;
    } catch (const std::exception& e) {
        throw DesignSourceError("cannot load design file '" + path +
                                "': " + e.what());
    }
}

/// Expand a file:<glob> body: the directory part is literal, the final
/// component is a glob over directory entries.  Matches sort by path so
/// suite order is deterministic across filesystems.
std::vector<std::string> expand_file_glob(const std::string& body) {
    const fs::path pat(body);
    const fs::path dir =
        pat.has_parent_path() ? pat.parent_path() : fs::path(".");
    const std::string leaf = pat.filename().string();
    std::error_code ec;
    if (!fs::is_directory(dir, ec) || ec) {
        throw DesignSourceError("design pattern 'file:" + body +
                                "': directory '" + dir.string() +
                                "' does not exist");
    }
    std::vector<std::string> out;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
        if (!entry.is_regular_file()) {
            continue;
        }
        if (glob_match(leaf, entry.path().filename().string())) {
            out.push_back(entry.path().string());
        }
    }
    std::sort(out.begin(), out.end());
    if (out.empty()) {
        throw DesignSourceError("design pattern 'file:" + body +
                                "' matches no files");
    }
    return out;
}

std::vector<ResolvedDesign> resolve_file_spec(const std::string& body) {
    if (body.empty()) {
        throw DesignSourceError(
            "empty file: spec (expected file:<path> or file:<glob>)");
    }
    std::vector<ResolvedDesign> out;
    if (has_glob_chars(body)) {
        for (auto& path : expand_file_glob(body)) {
            out.push_back({path, DesignOrigin::File, path, 1.0});
        }
    } else {
        out.push_back({body, DesignOrigin::File, body, 1.0});
    }
    return out;
}

/// Throws unless make_benchmark_scaled can take `scale`: finite, positive,
/// and small enough that num_pis * scale converts to unsigned and
/// target_ands * scale to std::size_t for every registry design.  A
/// product grows with its count, so the registry's largest counts bound
/// them all.  `spec` names the spec whose @scale suffix this is; empty for
/// a scale argument.
void check_scale(double scale, const std::string& spec = {}) {
    double max_pis = 0.0;
    double max_ands = 0.0;
    for (const auto& info : benchmark_registry()) {
        max_pis = std::max(max_pis, static_cast<double>(info.num_pis));
        max_ands = std::max(max_ands, static_cast<double>(info.target_ands));
    }
    const double unsigned_end =
        std::ldexp(1.0, std::numeric_limits<unsigned>::digits);
    const double size_end =
        std::ldexp(1.0, std::numeric_limits<std::size_t>::digits);
    if (std::isfinite(scale) && scale > 0.0 &&
        max_pis * scale < unsigned_end && max_ands * scale < size_end) {
        return;
    }
    const auto fmt = [](double v) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%g", v);
        return std::string(buf);
    };
    throw DesignSourceError(
        "bad scale " + fmt(scale) +
        (spec.empty() ? "" : " in design spec '" + spec + "'") +
        ": must be finite, positive and below " +
        fmt(unsigned_end / max_pis));
}

ResolvedDesign resolve_registry_name(const std::string& spec, double scale) {
    std::string name = spec;
    const auto at = spec.find('@');
    if (at != std::string::npos) {
        name = spec.substr(0, at);
        try {
            scale = std::stod(spec.substr(at + 1));
        } catch (const std::exception&) {
            throw DesignSourceError("bad scale suffix in design spec '" +
                                    spec + "'");
        }
        check_scale(scale, spec);
    }
    const auto& names = benchmark_names();
    if (std::find(names.begin(), names.end(), name) == names.end()) {
        throw DesignSourceError(
            "unknown design '" + spec +
            "' (not a registry name, file: spec or netlist path; run "
            "'boolgebra_cli list' for registry names)");
    }
    return {spec, DesignOrigin::Registry, name, scale};
}

}  // namespace

aig::Aig ResolvedDesign::load() const {
    if (origin == DesignOrigin::File) {
        return read_netlist(path);
    }
    return make_benchmark_scaled(path, scale);
}

std::vector<ResolvedDesign> resolve_design_spec(const std::string& spec,
                                                double scale) {
    check_scale(scale);
    if (spec.starts_with(k_file_prefix)) {
        return resolve_file_spec(spec.substr(sizeof("file:") - 1));
    }
    if (is_netlist_path(spec)) {
        return {{spec, DesignOrigin::File, spec, 1.0}};
    }
    if (has_glob_chars(spec)) {
        std::vector<ResolvedDesign> out;
        for (const auto& info : benchmark_registry()) {
            if (glob_match(spec, info.name)) {
                out.push_back(
                    {info.name, DesignOrigin::Registry, info.name, scale});
            }
        }
        if (out.empty()) {
            throw DesignSourceError(
                "pattern '" + spec +
                "' matches no registry design (run 'boolgebra_cli list' "
                "for the names, or prefix with file: for a file glob)");
        }
        return out;
    }
    return {resolve_registry_name(spec, scale)};
}

std::vector<ResolvedDesign> resolve_design_specs(
    const std::vector<std::string>& specs, bool all, double scale) {
    std::vector<ResolvedDesign> out;
    if (all) {
        check_scale(scale);
        for (const auto& info : benchmark_registry()) {
            out.push_back(
                {info.name, DesignOrigin::Registry, info.name, scale});
        }
    }
    for (const auto& spec : specs) {
        for (auto& r : resolve_design_spec(spec, scale)) {
            out.push_back(std::move(r));
        }
    }
    return out;
}

ResolvedDesign resolve_single_design(const std::string& spec, double scale) {
    auto resolved = resolve_design_spec(spec, scale);
    if (resolved.size() != 1) {
        throw DesignSourceError("spec '" + spec + "' resolves to " +
                                std::to_string(resolved.size()) +
                                " designs; exactly one is required here");
    }
    return std::move(resolved.front());
}

aig::Aig load_design_spec(const std::string& spec, double scale) {
    return resolve_single_design(spec, scale).load();
}

}  // namespace bg::circuits
