#pragma once

/// \file design_source.hpp
/// Unified design resolution: one spec language shared by every CLI
/// command and by core::jobs_from_specs, covering both the synthetic
/// registry and real AIGER/BENCH netlists on disk.
///
/// Spec forms:
///   name            registry entry (b07 .. c5315)
///   name@scale      registry entry, scaled (e.g. b12@0.25)
///   glob            '*'/'?' pattern over registry names (e.g. 'b1?')
///   file:path       netlist file (.aag/.aig auto-sniffed, .bench by
///                   suffix); relative or absolute
///   file:glob       filesystem glob over the basename (the directory
///                   part is literal), e.g. file:bench/*.aig — matches
///                   sorted by path for determinism
///   path.aag|.aig|.bench   bare netlist path (historical shorthand)
///
/// Every resolution failure — unknown registry name, glob matching
/// nothing, unreadable or malformed file, a scale that is not finite and
/// positive or too large to size a registry design — throws
/// DesignSourceError with a message naming the offending spec or scale;
/// the CLI maps it to exit code 2 so scripted suites distinguish "bad
/// invocation" from "flow failed".

#include <stdexcept>
#include <string>
#include <vector>

#include "aig/aig.hpp"

namespace bg::circuits {

/// A design spec that cannot be resolved (unknown name, empty glob,
/// unreadable or malformed file).  The what() string names the spec and
/// the reason.
class DesignSourceError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Where a resolved design comes from.
enum class DesignOrigin {
    Registry,  ///< deterministic synthetic generator
    File,      ///< AIGER / BENCH netlist on disk
};

/// One resolved design: display name plus enough to load it on demand.
struct ResolvedDesign {
    std::string name;    ///< display name (registry name or file path)
    DesignOrigin origin = DesignOrigin::Registry;
    std::string path;    ///< filesystem path when origin == File
    double scale = 1.0;  ///< registry scaling factor (identity at 1.0)

    /// Build (registry) or read (file) the AIG.  Throws DesignSourceError
    /// on unreadable or malformed files.
    aig::Aig load() const;
};

/// Resolve one spec (see the file header for the language).  `scale`
/// applies to registry-backed entries that do not carry their own
/// `@scale` suffix.  Returns at least one design or throws
/// DesignSourceError.
std::vector<ResolvedDesign> resolve_design_spec(const std::string& spec,
                                                double scale = 1.0);

/// Resolve a whole command line: `all` prepends every registry design,
/// then each spec expands in order.  Duplicates are kept (running one
/// design twice is a legitimate request).
std::vector<ResolvedDesign> resolve_design_specs(
    const std::vector<std::string>& specs, bool all, double scale = 1.0);

/// Resolve a spec that must name exactly one design (stats/opt/train/cec
/// operands).  Throws DesignSourceError when the spec expands to several.
ResolvedDesign resolve_single_design(const std::string& spec,
                                     double scale = 1.0);

/// Convenience: resolve_single_design + load.
aig::Aig load_design_spec(const std::string& spec, double scale = 1.0);

}  // namespace bg::circuits
