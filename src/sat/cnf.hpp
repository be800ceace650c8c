#pragma once

/// \file cnf.hpp
/// Tseitin encoding of AIGs into CNF and miter construction for the
/// incremental SAT equivalence check in sat/cec_sat.hpp.
///
/// The miter is strashed, as in ABC's `&cec` (Mishchenko et al.,
/// "Improvements to combinational equivalence checking", ICCAD'06): `a`
/// and then `b` are copied into one AIG through Aig::and_, so every node
/// of `b` that matches a node of `a` structurally reuses it, and the
/// union is encoded once.  The solver never has to rediscover the
/// equivalences the structure already shows, and a PO pair that strashes
/// to one literal is proven without a solve.

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

/// The strashed miter of two AIGs encoded into one solver.  Each PO pair
/// whose two literals differ in the union carries a selector literal
/// with diff <-> (po_a XOR po_b); the other pairs are already proven.
/// Nothing is asserted about the selectors themselves: the SAT CEC
/// solves per output under the assumption of its selector on the same
/// solver instance, keeping learned clauses across outputs.
struct MiterEncoding {
    std::vector<Var> pi_vars;    ///< SAT var of each PI position, if any
    std::vector<Lit> diff_lits;  ///< one per PO pair strashing left open
};

/// Encode the strashed miter of two interface-identical AIGs.  When every
/// PO pair strashes to one literal, nothing is encoded: `solver` is left
/// untouched and both `pi_vars` and `diff_lits` are empty.
MiterEncoding encode_miter(Solver& solver, const aig::Aig& a,
                           const aig::Aig& b);

}  // namespace bg::sat
