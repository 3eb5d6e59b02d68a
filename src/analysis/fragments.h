// Syntactic fragment checks: piece-wise linearity (Definition 4.1),
// intensional linearity (IL, Section 5), linear Datalog, FULL1, and the
// node-width polynomials f_WARD∩PWL and f_WARD of Section 4.2.

#ifndef VADALOG_ANALYSIS_FRAGMENTS_H_
#define VADALOG_ANALYSIS_FRAGMENTS_H_

#include <cstddef>

#include "analysis/predicate_graph.h"
#include "ast/program.h"
#include "ast/rule.h"

namespace vadalog {

/// Number of body atoms of σ whose predicate is mutually recursive with a
/// predicate occurring in head(σ).
size_t RecursiveBodyAtomCount(const Tgd& tgd, const PredicateGraph& graph);

/// Definition 4.1: Σ is piece-wise linear if every TGD has at most one body
/// atom whose predicate is mutually recursive with a head predicate.
bool IsPiecewiseLinear(const Program& program, const PredicateGraph& graph);
bool IsPiecewiseLinear(const Program& program);

/// Section 5: Σ is intensionally linear (IL) if every TGD has at most one
/// body atom with an intensional predicate.
bool IsIntensionallyLinear(const Program& program);

/// Σ is a Datalog program (class FULL1): full TGDs with single-atom heads.
bool IsDatalog(const Program& program);

/// Σ is linear Datalog: Datalog where each body has at most one
/// intensional atom.
bool IsLinearDatalog(const Program& program);

/// Σ is in the class LINEAR of Datalog±: every TGD has exactly one body
/// atom. (Strictly stronger than IL; decidable, FO-rewritable.)
bool IsLinearTgds(const Program& program);

/// Σ is guarded: every TGD has a body atom (the guard) containing every
/// universally quantified variable of the body.
bool IsGuarded(const Program& program);

/// Σ is sticky (Calì–Gottlob–Pieris marking procedure): after marking
///   (base) every body variable that does not occur in the head, and
///   (prop) every body variable appearing in a head position that holds a
///          marked body occurrence somewhere in Σ,
/// no marked variable occurs more than once in a body. Sticky sets allow
/// arbitrary joins but restrict how join variables propagate.
bool IsSticky(const Program& program);

/// The node-width polynomial for WARD ∩ PWL (Section 4.2):
///   f(q, Σ) = (|q| + 1) · max_P ℓΣ(P) · max_σ |body(σ)|.
/// `query_atoms` is |q| (number of atoms of the CQ).
size_t NodeWidthBoundPwl(size_t query_atoms, const Program& program,
                         const PredicateGraph& graph);

/// The same polynomial from its precomputed program factors: `max_level`
/// is PredicateGraph::MaxLevel() and `max_body` Program::MaxBodySize().
size_t NodeWidthBoundPwl(size_t query_atoms, uint32_t max_level,
                         size_t max_body);

/// The node-width polynomial for WARD (Section 4.2):
///   f(q, Σ) = 2 · max{ |q|, max_σ |body(σ)| }.
size_t NodeWidthBoundWarded(size_t query_atoms, const Program& program);

}  // namespace vadalog

#endif  // VADALOG_ANALYSIS_FRAGMENTS_H_
