// Most general unifiers for atoms over constants, nulls, and variables
// (no function symbols). Used by chunk-based resolution (Definition 4.3).

#ifndef VADALOG_ENGINE_UNIFY_H_
#define VADALOG_ENGINE_UNIFY_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "ast/atom.h"

namespace vadalog {

/// A unifier under construction: a union-find-style binding store. Rigid
/// terms (constants/nulls) are never bound; variables may be bound to
/// variables or rigid terms. Resolve() follows binding chains.
///
/// The store is a flat journal of (variable, value) pairs in insertion
/// order — no hash map, no per-binding allocation once the journal's
/// capacity is warm. A variable is bound at most once (only unbound
/// representatives are ever bound), so a lookup is a scan of the few
/// bindings of one chunk unifier; a 64-bit filter over the low index bits
/// answers most lookups of unbound variables without scanning. Variable
/// indices are never used as array offsets, so any index works.
/// Mark()/Rewind() give cheap backtracking (the chunk DFS of resolution
/// extends one shared unifier instead of copying it per branch).
class Unifier {
 public:
  /// Follows bindings until a rigid term or an unbound variable.
  Term Resolve(Term t) const;

  /// Unifies two terms; returns false on clash (two distinct rigids).
  bool Unify(Term a, Term b);

  /// Unifies two atoms position-wise; false on predicate/arity mismatch or
  /// clash. On failure, bindings added by the partial walk remain; use
  /// Mark()/Rewind() to restore.
  bool UnifyAtoms(const Atom& a, const Atom& b);

  /// Journal position for Rewind().
  size_t Mark() const { return journal_.size(); }

  /// Erases every binding inserted after `mark` (LIFO undo).
  void Rewind(size_t mark);

  /// The substitution mapping every bound variable to its fully resolved
  /// value. Unbound variables are left out (identity).
  Substitution ToSubstitution() const;

  /// All variables v (bound or not) whose resolved representative equals
  /// Resolve(t); includes t itself when t is a variable. Used to inspect
  /// the equivalence class of an existential variable when validating a
  /// chunk unifier. Members other than t and the representative come in
  /// binding order.
  std::vector<Term> ClassOf(Term t) const;

  /// ClassOf into a caller-owned buffer (cleared first): the resolution
  /// step validates chunk unifiers millions of times per search.
  void ClassOf(Term t, std::vector<Term>* members) const;

 private:
  struct Binding {
    Term var;
    Term value;
  };
  static uint64_t FilterBit(Term v) { return uint64_t{1} << (v.index() & 63); }

  std::vector<Binding> journal_;
  uint64_t filter_ = 0;  // FilterBit of every bound variable
};

/// Convenience: MGU of two atoms, or nullopt.
std::optional<Substitution> MostGeneralUnifier(const Atom& a, const Atom& b);

}  // namespace vadalog

#endif  // VADALOG_ENGINE_UNIFY_H_
