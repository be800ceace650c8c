#pragma once

/// \file isop.hpp
/// Minato–Morreale irredundant sum-of-products extraction from truth
/// tables.  This is the entry point refactoring uses to turn a collapsed
/// cone function back into algebra, and the rewrite library uses it as one
/// of its structure candidates.
///
/// The recursion runs over raw word arrays, as ABC's Kit_TruthIsop does: a
/// frame splitting on x_v hands its children 2^v-bit tables, reads its
/// cofactors as the two halves of its bounds when v >= 6, and takes its
/// temporaries from one per-thread arena sized once per call (about eight
/// tables of the input width).  Below six variables a frame works on
/// single words.
/// The split variable is the highest one either bound depends on, and the
/// cubes come out in a fixed order: those with !x_v, those with x_v, then
/// those without x_v.  Refactoring factors these covers, so that order is
/// part of its results.

#include "tt/sop.hpp"
#include "tt/truth_table.hpp"

namespace bg::tt {

/// Compute an irredundant SOP cover of `on` with don't-cares allowed by
/// `dc` (i.e. the cover f satisfies on <= f <= on | dc).
/// Requires on & dc == 0 and at most 32 variables.
Sop isop(const TruthTable& on, const TruthTable& dc);

/// Irredundant SOP of exactly `f` (no don't-cares).
Sop isop(const TruthTable& f);

/// Convenience: pick the cheaper of covering f or ~f; returns the cover
/// and sets `complemented` accordingly (cover of ~f means the caller must
/// invert the result).
Sop isop_best_phase(const TruthTable& f, bool& complemented);

}  // namespace bg::tt
