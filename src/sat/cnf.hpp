#pragma once

/// \file cnf.hpp
/// Tseitin encoding of AIGs into CNF and miter construction for the
/// incremental SAT equivalence check in sat/cec_sat.hpp (what ABC's `cec`
/// does).

#include <vector>

#include "aig/aig.hpp"
#include "sat/solver.hpp"

namespace bg::sat {

/// Encode all live nodes of `g` into `solver`.  Returns the SAT variable
/// of each AIG var (index = aig::Var; unused slots hold -1).  PIs become
/// free variables; every AND gate contributes the three Tseitin clauses
///   (!x | a) (!x | b) (x | !a | !b).
std::vector<Var> encode_aig(Solver& solver, const aig::Aig& g);

/// SAT literal for an AIG literal under a mapping from encode_aig.
Lit lit_for(const std::vector<Var>& mapping, aig::Lit l);
/// Same, for a packed fanin reference (avoids the Lit round trip on the
/// encode hot path).
Lit lit_for(const std::vector<Var>& mapping, aig::NodeRef r);

/// A miter of two AIGs encoded into one solver: both networks share the
/// PI variables, and each PO pair i carries a selector literal with
/// diff_lits[i] <-> (po_a[i] XOR po_b[i]).  Nothing is asserted about the
/// selectors themselves: the SAT CEC solves per output under the
/// assumption diff_lits[i] on the same solver instance, keeping learned
/// clauses across outputs.
struct MiterEncoding {
    std::vector<Var> map_a;      ///< AIG var -> SAT var for `a`
    std::vector<Var> map_b;      ///< AIG var -> SAT var for `b`
    std::vector<Lit> diff_lits;  ///< one per PO pair
};

/// Encode the shared-input miter of two interface-identical AIGs.
MiterEncoding encode_miter(Solver& solver, const aig::Aig& a,
                           const aig::Aig& b);

}  // namespace bg::sat
