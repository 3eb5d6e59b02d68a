#include "engine/resolution.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "engine/unify.h"

namespace vadalog {
namespace {

Term Shift(Term t, uint64_t base) {
  return t.is_variable() ? Term::Variable(t.index() + base) : t;
}

/// Per-thread scratch of one ResolveWithTgd call: the shared unifier, the
/// renamed head and existentials, and the chunk DFS buffers. Grow-only, so
/// the steady state allocates nothing but the emitted resolvents.
struct ResolutionScratch {
  Unifier unifier;
  Atom head;                       // the TGD head, renamed by the base
  std::vector<Term> existentials;  // renamed likewise
  std::vector<size_t> candidates;
  std::vector<size_t> chunk;
  // TryEmitResolvent: variables of the chunk (S1) and of the rest of the
  // state, and the class of the existential under inspection. States are
  // node-width bounded, so flat vectors beat hash sets.
  std::vector<char> in_chunk;
  std::vector<Term> chunk_vars;
  std::vector<Term> rest_vars;
  std::vector<Term> members;
};

thread_local ResolutionScratch resolution_scratch;

/// Validates the existential-variable conditions of a chunk unifier and, on
/// success, emits the resolvent.
bool TryEmitResolvent(const std::vector<Atom>& state, const TgdTemplate& tgd,
                      uint64_t fresh_variable_base, size_t tgd_index,
                      ResolutionScratch* s, std::vector<Resolvent>* out) {
  const Unifier& unifier = s->unifier;
  s->in_chunk.assign(state.size(), 0);
  s->chunk_vars.clear();
  s->rest_vars.clear();
  for (size_t i : s->chunk) s->in_chunk[i] = 1;
  for (size_t i = 0; i < state.size(); ++i) {
    std::vector<Term>& vars = s->in_chunk[i] ? s->chunk_vars : s->rest_vars;
    for (Term t : state[i].args) {
      if (t.is_variable()) vars.push_back(t);
    }
  }
  auto contains = [](const std::vector<Term>& vars, Term t) {
    return std::find(vars.begin(), vars.end(), t) != vars.end();
  };

  auto is_sigma_variable = [fresh_variable_base](Term t) {
    return t.is_variable() && t.index() >= fresh_variable_base;
  };

  for (Term x : s->existentials) {
    // (1) γ(x) must not be rigid: a fresh null can never equal a constant
    // or a pre-existing null.
    Term resolved = unifier.Resolve(x);
    if (resolved.is_rigid()) return false;
    // (2) every variable unified with x must be a non-shared variable of
    // the chunk. Unifying x with any variable of σ (a frontier variable or
    // another existential) is unsound as well: a fresh null is distinct
    // from every other term of the chase.
    unifier.ClassOf(x, &s->members);
    for (Term y : s->members) {
      if (y == x) continue;
      if (is_sigma_variable(y)) return false;
      if (!contains(s->chunk_vars, y)) return false;  // must occur in S1
      if (contains(s->rest_vars, y)) return false;    // and not be shared
    }
  }

  // γ applied on the fly: Resolve() maps every bound variable to its
  // representative, which is exactly ToSubstitution() without building the
  // intermediate map. Body variables are renamed by the base as they go.
  Resolvent resolvent;
  resolvent.tgd_index = tgd_index;
  resolvent.chunk = s->chunk;
  std::sort(resolvent.chunk.begin(), resolvent.chunk.end());
  resolvent.atoms.reserve(state.size() - s->chunk.size() + tgd.body.size());
  auto emit = [&](const Atom& atom, uint64_t base) {
    Atom resolved;
    resolved.predicate = atom.predicate;
    resolved.args.reserve(atom.args.size());
    for (Term t : atom.args) {
      resolved.args.push_back(unifier.Resolve(Shift(t, base)));
    }
    resolvent.atoms.push_back(std::move(resolved));
  };
  for (size_t i = 0; i < state.size(); ++i) {
    if (!s->in_chunk[i]) emit(state[i], 0);
  }
  for (const Atom& b : tgd.body) emit(b, fresh_variable_base);
  out->push_back(std::move(resolvent));
  return true;
}

/// DFS over chunks S1 ⊆ candidate atoms: extends the chunk one atom at a
/// time, unifying incrementally (a chunk that fails to unify prunes all of
/// its supersets). The shared unifier is extended in place and rewound via
/// its journal instead of being copied per branch.
void ExtendChunk(const std::vector<Atom>& state, size_t start,
                 const TgdTemplate& tgd, uint64_t fresh_variable_base,
                 size_t tgd_index, size_t max_chunk, ResolutionScratch* s,
                 std::vector<Resolvent>* out) {
  if (!s->chunk.empty()) {
    TryEmitResolvent(state, tgd, fresh_variable_base, tgd_index, s, out);
  }
  if (s->chunk.size() >= max_chunk) return;
  for (size_t i = start; i < s->candidates.size(); ++i) {
    size_t mark = s->unifier.Mark();
    if (s->unifier.UnifyAtoms(state[s->candidates[i]], s->head)) {
      s->chunk.push_back(s->candidates[i]);
      ExtendChunk(state, i + 1, tgd, fresh_variable_base, tgd_index,
                  max_chunk, s, out);
      s->chunk.pop_back();
    }
    s->unifier.Rewind(mark);
  }
}

}  // namespace

TgdTemplate::TgdTemplate(const Tgd& t) : head(t.head), body(t.body) {
  std::unordered_set<Term> existential_set = t.ExistentialVariables();
  existentials.assign(existential_set.begin(), existential_set.end());
  std::sort(existentials.begin(), existentials.end());
}

std::vector<TgdTemplate> MakeTgdTemplates(const Program& program) {
  std::vector<TgdTemplate> templates;
  templates.reserve(program.tgds().size());
  for (const Tgd& tgd : program.tgds()) templates.emplace_back(tgd);
  return templates;
}

std::vector<Resolvent> ResolveWithTgd(const std::vector<Atom>& state,
                                      const TgdTemplate& tgd,
                                      size_t tgd_index,
                                      uint64_t fresh_variable_base,
                                      size_t max_chunk, size_t anchor) {
  std::vector<Resolvent> out;
  assert(tgd.head.size() == 1 &&
         "resolution requires single-head TGDs (normalize first)");
  const Atom& head = tgd.head[0];
  if (anchor != kNoAnchor && state[anchor].predicate != head.predicate) {
    return out;  // the anchor can never join a chunk of this TGD
  }
  ResolutionScratch* s = &resolution_scratch;
  s->head.predicate = head.predicate;
  s->head.args.clear();
  for (Term t : head.args) {
    s->head.args.push_back(Shift(t, fresh_variable_base));
  }

  s->candidates.clear();
  for (size_t i = 0; i < state.size(); ++i) {
    if (state[i].predicate == head.predicate && i != anchor) {
      s->candidates.push_back(i);
    }
  }

  s->chunk.clear();
  s->unifier.Rewind(0);
  if (anchor != kNoAnchor) {
    // Pre-seed the chunk with the anchor; every emitted chunk extends it.
    if (!s->unifier.UnifyAtoms(state[anchor], s->head)) return out;
    s->chunk.push_back(anchor);
  } else if (s->candidates.empty()) {
    return out;
  }
  s->existentials.clear();
  for (Term x : tgd.existentials) {
    s->existentials.push_back(Shift(x, fresh_variable_base));
  }
  ExtendChunk(state, 0, tgd, fresh_variable_base, tgd_index, max_chunk, s,
              &out);
  return out;
}

std::vector<Resolvent> ResolveWithTgd(const std::vector<Atom>& state,
                                      const Program& program,
                                      size_t tgd_index,
                                      uint64_t fresh_variable_base,
                                      size_t max_chunk, size_t anchor) {
  return ResolveWithTgd(state, TgdTemplate(program.tgds()[tgd_index]),
                        tgd_index, fresh_variable_base, max_chunk, anchor);
}

std::vector<Resolvent> ResolveAll(const std::vector<Atom>& state,
                                  const Program& program,
                                  uint64_t fresh_variable_base,
                                  size_t max_chunk) {
  std::vector<Resolvent> out;
  std::vector<TgdTemplate> templates = MakeTgdTemplates(program);
  for (size_t i = 0; i < templates.size(); ++i) {
    std::vector<Resolvent> partial = ResolveWithTgd(
        state, templates[i], i, fresh_variable_base, max_chunk);
    for (Resolvent& r : partial) out.push_back(std::move(r));
  }
  return out;
}

}  // namespace vadalog
