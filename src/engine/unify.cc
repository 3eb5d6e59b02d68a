#include "engine/unify.h"

namespace vadalog {

Term Unifier::Resolve(Term t) const {
  while (t.is_variable() && (filter_ & FilterBit(t)) != 0) {
    const Binding* found = nullptr;
    for (const Binding& b : journal_) {
      if (b.var == t) {
        found = &b;
        break;
      }
    }
    if (found == nullptr) return t;
    t = found->value;
  }
  return t;
}

bool Unifier::Unify(Term a, Term b) {
  a = Resolve(a);
  b = Resolve(b);
  if (a == b) return true;
  if (a.is_variable()) {
    journal_.push_back(Binding{a, b});
    filter_ |= FilterBit(a);
    return true;
  }
  if (b.is_variable()) {
    journal_.push_back(Binding{b, a});
    filter_ |= FilterBit(b);
    return true;
  }
  return false;  // two distinct rigid terms
}

bool Unifier::UnifyAtoms(const Atom& a, const Atom& b) {
  if (a.predicate != b.predicate || a.args.size() != b.args.size()) {
    return false;
  }
  for (size_t i = 0; i < a.args.size(); ++i) {
    if (!Unify(a.args[i], b.args[i])) return false;
  }
  return true;
}

void Unifier::Rewind(size_t mark) {
  if (mark >= journal_.size()) return;
  journal_.resize(mark);
  filter_ = 0;
  for (const Binding& b : journal_) filter_ |= FilterBit(b.var);
}

Substitution Unifier::ToSubstitution() const {
  Substitution subst;
  for (const Binding& b : journal_) subst[b.var] = Resolve(b.var);
  return subst;
}

std::vector<Term> Unifier::ClassOf(Term t) const {
  std::vector<Term> members;
  ClassOf(t, &members);
  return members;
}

void Unifier::ClassOf(Term t, std::vector<Term>* members) const {
  members->clear();
  Term representative = Resolve(t);
  if (t.is_variable()) members->push_back(t);
  for (const Binding& b : journal_) {
    if (b.var != t && Resolve(b.var) == representative) {
      members->push_back(b.var);
    }
  }
  // The representative itself, if a variable distinct from t. It is
  // unbound, so it is not among the journal's keys.
  if (representative.is_variable() && representative != t) {
    members->push_back(representative);
  }
}

std::optional<Substitution> MostGeneralUnifier(const Atom& a, const Atom& b) {
  Unifier unifier;
  if (!unifier.UnifyAtoms(a, b)) return std::nullopt;
  return unifier.ToSubstitution();
}

}  // namespace vadalog
