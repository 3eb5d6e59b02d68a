// Homomorphism enumeration: matching conjunctions of atoms (with
// variables) against an instance. This is the workhorse behind chase-step
// applicability, CQ evaluation (Proposition 2.1), and the match-and-drop
// step of the bounded proof search.

#ifndef VADALOG_STORAGE_HOMOMORPHISM_H_
#define VADALOG_STORAGE_HOMOMORPHISM_H_

#include <functional>
#include <vector>

#include "ast/atom.h"
#include "ast/rule.h"
#include "storage/instance.h"

namespace vadalog {

/// Callback invoked once per homomorphism with the full substitution
/// (bindings for every variable of the matched atoms, plus whatever was in
/// the seed). Return false to stop enumeration early.
using HomomorphismCallback = std::function<bool(const Substitution&)>;

/// Enumerates homomorphisms h extending `seed` with h(atoms) ⊆ instance.
/// Terms in the atoms that are constants or nulls must match exactly
/// (homomorphisms are the identity on C; nulls in a *pattern* are treated
/// as rigid names, which is what chase-step applicability needs).
/// Returns true if enumeration ran to completion (callback never returned
/// false).
bool ForEachHomomorphism(const std::vector<Atom>& atoms,
                         const Instance& instance, const Substitution& seed,
                         const HomomorphismCallback& callback);

/// ForEachHomomorphism for a single atom and no seed (the match-and-drop
/// step of the proof searches), without building a pattern vector.
bool ForEachHomomorphism(const Atom& atom, const Instance& instance,
                         const HomomorphismCallback& callback);

/// True if at least one homomorphism extending `seed` exists. Never
/// builds a substitution.
bool HasHomomorphism(const std::vector<Atom>& atoms, const Instance& instance,
                     const Substitution& seed = {});

/// HasHomomorphism over the atoms of [begin, end) with no seed, for
/// callers that check slices of a larger vector without copying them out.
bool HasHomomorphism(const Atom* begin, const Atom* end,
                     const Instance& instance);

/// Evaluates a CQ over an instance: the set of output tuples h(x̄) over all
/// homomorphisms. When `certain_only` is set, tuples containing nulls are
/// discarded (certain answers contain constants only).
std::vector<std::vector<Term>> EvaluateQuery(const ConjunctiveQuery& query,
                                             const Instance& instance,
                                             bool certain_only = true);

/// Deduplicated + sorted variant for stable comparisons in tests.
std::vector<std::vector<Term>> EvaluateQuerySorted(
    const ConjunctiveQuery& query, const Instance& instance,
    bool certain_only = true);

/// True iff `from` maps homomorphically into `onto` as CQ states: a map h
/// on the variables of `from` (identity on constants and nulls) such that
/// h(a) is an atom of `onto` for every atom a of `from`. The variables of
/// `onto` are frozen — they act as distinct rigid names, never renamed —
/// which is CQ containment of `onto` in `from` (Chandra–Merlin). This is
/// the primitive behind subsumption-based state pruning: when it holds,
/// any proof of `onto` restricts to a proof of `from`, so a refutation of
/// `from` refutes `onto`.
bool HasStateHomomorphism(const std::vector<Atom>& from,
                          const std::vector<Atom>& onto);

}  // namespace vadalog

#endif  // VADALOG_STORAGE_HOMOMORPHISM_H_
