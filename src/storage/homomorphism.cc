#include "storage/homomorphism.h"

#include <algorithm>
#include <memory>
#include <set>

namespace vadalog {
namespace {

/// One compiled pattern atom: its arguments live in `MatchFrame::args`
/// [begin, end), with every variable renamed to its dense slot.
struct PatternAtom {
  const Relation* relation;  // null: the predicate has no tuples
  uint32_t begin, end;
};

/// Per-call matcher state. The pattern is compiled once per call: seed
/// bindings are applied, the remaining variables are renumbered densely
/// in first-occurrence order (`vars[slot]` is the original variable), and
/// bindings live in a flat array indexed by slot. A slot holding a
/// variable is unbound — tuples are rigid, so no binding is ever a
/// variable. Frames are grow-only and thread-local; a callback may match
/// again (the proof searches simplify successors from inside their
/// match-and-drop callbacks), so nested calls take the next frame.
struct MatchFrame {
  std::vector<Term> vars;       // slot -> original variable
  std::vector<Term> args;       // compiled arguments of all atoms
  std::vector<PatternAtom> atoms;
  std::vector<uint32_t> order;  // join order (indices into `atoms`)
  std::vector<Term> value;      // slot -> binding; a variable = unbound
  std::vector<uint32_t> touched;  // slots bound so far, in binding order
  std::vector<char> used;
  Substitution out;             // the callback's view, built lazily
  bool out_ready = false;
};

struct MatchFrames {
  std::vector<std::unique_ptr<MatchFrame>> frames;
  size_t depth = 0;
};

thread_local MatchFrames match_frames;

/// Takes the next thread-local frame for the duration of one call.
class FrameLease {
 public:
  FrameLease() {
    MatchFrames& f = match_frames;
    if (f.depth == f.frames.size()) {
      f.frames.push_back(std::make_unique<MatchFrame>());
    }
    frame_ = f.frames[f.depth++].get();
  }
  ~FrameLease() { --match_frames.depth; }
  FrameLease(const FrameLease&) = delete;
  FrameLease& operator=(const FrameLease&) = delete;
  MatchFrame* get() const { return frame_; }

 private:
  MatchFrame* frame_;
};

/// Compiles atoms[0, count) under `seed` into `f` and picks the join
/// order greedily: the atom with the most bound terms first (ties: smaller
/// relation, then earlier atom).
void Compile(const Atom* atoms, size_t count, const Instance& instance,
             const Substitution& seed, MatchFrame* f) {
  f->vars.clear();
  f->args.clear();
  f->atoms.clear();
  for (size_t a = 0; a < count; ++a) {
    uint32_t begin = static_cast<uint32_t>(f->args.size());
    for (Term t : atoms[a].args) {
      if (!seed.empty()) t = ApplySubstitution(seed, t);
      if (t.is_variable()) {
        // Patterns are CQ bodies and proof-state components: a handful of
        // distinct variables, so a scan beats any index.
        size_t slot = 0;
        while (slot < f->vars.size() && f->vars[slot] != t) ++slot;
        if (slot == f->vars.size()) f->vars.push_back(t);
        t = Term::Variable(slot);
      }
      f->args.push_back(t);
    }
    f->atoms.push_back(PatternAtom{instance.RelationFor(atoms[a].predicate),
                                   begin,
                                   static_cast<uint32_t>(f->args.size())});
  }
  f->value.resize(f->vars.size());
  for (size_t i = 0; i < f->vars.size(); ++i) {
    f->value[i] = Term::Variable(i);
  }
  f->touched.clear();
  f->out_ready = false;

  // Join order. `value` doubles as the "bound" marks while ordering: a
  // slot counts as bound once an earlier atom of the order mentions it.
  size_t n = f->atoms.size();
  f->order.clear();
  if (n == 1) {
    f->order.push_back(0);
    return;
  }
  f->used.assign(n, 0);
  for (size_t step = 0; step < n; ++step) {
    size_t best = n;
    size_t best_bound = 0;
    size_t best_size = ~size_t{0};
    for (size_t i = 0; i < n; ++i) {
      if (f->used[i]) continue;
      const PatternAtom& pa = f->atoms[i];
      size_t bound = 0;
      for (uint32_t k = pa.begin; k < pa.end; ++k) {
        Term t = f->args[k];
        if (t.is_rigid() || f->value[t.index()].is_rigid()) ++bound;
      }
      size_t size = pa.relation == nullptr ? 0 : pa.relation->size();
      if (best == n || bound > best_bound ||
          (bound == best_bound && size < best_size)) {
        best = i;
        best_bound = bound;
        best_size = size;
      }
    }
    f->used[best] = 1;
    f->order.push_back(static_cast<uint32_t>(best));
    const PatternAtom& chosen = f->atoms[best];
    for (uint32_t k = chosen.begin; k < chosen.end; ++k) {
      Term t = f->args[k];
      if (t.is_variable()) f->value[t.index()] = Term::Constant(0);
    }
  }
  for (size_t i = 0; i < f->vars.size(); ++i) {
    f->value[i] = Term::Variable(i);
  }
}

/// The callback's substitution: the seed plus every slot binding. The map
/// is built on the first match and updated in place afterwards (every
/// match binds the same variables).
const Substitution& CallbackView(const Substitution& seed, MatchFrame* f) {
  if (!f->out_ready) {
    f->out = seed;
    f->out_ready = true;
  }
  for (size_t i = 0; i < f->vars.size(); ++i) {
    f->out.insert_or_assign(f->vars[i], f->value[i]);
  }
  return f->out;
}

/// Depth-first join over `f->order`. Returns false as soon as the callback
/// stops the enumeration (a null callback stops at the first match).
bool MatchFrom(size_t depth, const Substitution& seed,
               const HomomorphismCallback* callback, MatchFrame* f) {
  if (depth == f->order.size()) {
    return callback != nullptr && (*callback)(CallbackView(seed, f));
  }
  const PatternAtom& pa = f->atoms[f->order[depth]];
  const Relation* rel = pa.relation;
  if (rel == nullptr) return true;  // no tuples: zero matches, keep going

  // Drive the scan through the most selective bound position.
  const std::vector<uint32_t>* rows = nullptr;
  for (uint32_t k = pa.begin; k < pa.end; ++k) {
    Term t = f->args[k];
    if (t.is_variable()) t = f->value[t.index()];
    if (!t.is_rigid()) continue;
    const std::vector<uint32_t>& with = rel->RowsWith(k - pa.begin, t);
    if (rows == nullptr || with.size() < rows->size()) rows = &with;
  }

  auto try_row = [&](size_t row) {
    const std::vector<Term>& tuple = rel->TupleAt(row);
    size_t mark = f->touched.size();
    bool ok = true;
    for (uint32_t k = pa.begin; k < pa.end && ok; ++k) {
      Term t = f->args[k];
      Term actual = tuple[k - pa.begin];
      if (t.is_rigid()) {
        ok = t == actual;
      } else if (Term& v = f->value[t.index()]; v.is_rigid()) {
        ok = v == actual;
      } else {
        v = actual;
        f->touched.push_back(static_cast<uint32_t>(t.index()));
      }
    }
    bool keep_going = !ok || MatchFrom(depth + 1, seed, callback, f);
    while (f->touched.size() > mark) {
      uint32_t slot = f->touched.back();
      f->value[slot] = Term::Variable(slot);
      f->touched.pop_back();
    }
    return keep_going;
  };

  if (rows != nullptr) {
    for (uint32_t row : *rows) {
      if (!try_row(row)) return false;
    }
  } else {
    for (size_t row = 0; row < rel->size(); ++row) {
      if (!try_row(row)) return false;
    }
  }
  return true;
}

/// The one matcher behind ForEachHomomorphism and HasHomomorphism.
/// Returns true if the enumeration ran to completion.
bool Match(const Atom* atoms, size_t count, const Instance& instance,
           const Substitution& seed, const HomomorphismCallback* callback) {
  FrameLease lease;
  MatchFrame* f = lease.get();
  Compile(atoms, count, instance, seed, f);
  return MatchFrom(0, seed, callback, f);
}

const Substitution kNoSeed;

}  // namespace

bool ForEachHomomorphism(const std::vector<Atom>& atoms,
                         const Instance& instance, const Substitution& seed,
                         const HomomorphismCallback& callback) {
  return Match(atoms.data(), atoms.size(), instance, seed, &callback);
}

bool ForEachHomomorphism(const Atom& atom, const Instance& instance,
                         const HomomorphismCallback& callback) {
  return Match(&atom, 1, instance, kNoSeed, &callback);
}

bool HasHomomorphism(const std::vector<Atom>& atoms, const Instance& instance,
                     const Substitution& seed) {
  return !Match(atoms.data(), atoms.size(), instance, seed, nullptr);
}

bool HasHomomorphism(const Atom* begin, const Atom* end,
                     const Instance& instance) {
  return !Match(begin, static_cast<size_t>(end - begin), instance, kNoSeed,
                nullptr);
}

std::vector<std::vector<Term>> EvaluateQuery(const ConjunctiveQuery& query,
                                             const Instance& instance,
                                             bool certain_only) {
  std::vector<std::vector<Term>> results;
  std::set<std::vector<Term>> seen;
  ForEachHomomorphism(
      query.atoms, instance, {}, [&](const Substitution& h) {
        std::vector<Term> tuple;
        tuple.reserve(query.output.size());
        bool ok = true;
        for (Term t : query.output) {
          Term image = ApplySubstitution(h, t);
          if (certain_only && !image.is_constant()) {
            ok = false;
            break;
          }
          tuple.push_back(image);
        }
        if (ok && seen.insert(tuple).second) results.push_back(tuple);
        return true;
      });
  return results;
}

std::vector<std::vector<Term>> EvaluateQuerySorted(
    const ConjunctiveQuery& query, const Instance& instance,
    bool certain_only) {
  std::vector<std::vector<Term>> results =
      EvaluateQuery(query, instance, certain_only);
  std::sort(results.begin(), results.end());
  return results;
}

namespace {

/// Grow-only scratch for HasStateHomomorphism: the subsumption pruning of
/// the proof searches calls it millions of times on tiny states, so the
/// matcher must not allocate. Variable bindings live in a flat array
/// indexed by variable index (states are canonically renamed, so indices
/// are small and dense); candidate lists are one flat arena.
struct StateHomScratch {
  static constexpr uint64_t kMaxVar = 4096;
  std::vector<Term> binding;        // per from-variable index
  std::vector<char> bound;          // per from-variable index
  std::vector<uint32_t> touched;    // bound indices to reset
  std::vector<const Atom*> arena;   // concatenated candidate lists
  std::vector<std::pair<uint32_t, uint32_t>> span;  // per from-atom [b, e)
  std::vector<size_t> order;
};

bool MatchStateFrom(const std::vector<Atom>& from, StateHomScratch* s,
                    size_t depth) {
  if (depth == s->order.size()) return true;
  const Atom& atom = from[s->order[depth]];
  auto [begin, end] = s->span[s->order[depth]];
  for (uint32_t c = begin; c < end; ++c) {
    const Atom* target = s->arena[c];
    size_t touched_mark = s->touched.size();
    bool ok = true;
    for (size_t i = 0; i < atom.args.size() && ok; ++i) {
      Term arg = atom.args[i];
      Term t = target->args[i];
      if (!arg.is_variable()) {
        ok = arg == t;  // constants and nulls map to themselves
        continue;
      }
      uint32_t v = static_cast<uint32_t>(arg.index());
      if (s->bound[v] != 0) {
        ok = s->binding[v] == t;
      } else {
        s->bound[v] = 1;
        s->binding[v] = t;
        s->touched.push_back(v);
      }
    }
    if (ok && MatchStateFrom(from, s, depth + 1)) return true;
    while (s->touched.size() > touched_mark) {
      s->bound[s->touched.back()] = 0;
      s->touched.pop_back();
    }
  }
  return false;
}

}  // namespace

bool HasStateHomomorphism(const std::vector<Atom>& from,
                          const std::vector<Atom>& onto) {
  if (from.empty()) return true;
  uint64_t max_var = 0;
  for (const Atom& a : from) {
    for (Term t : a.args) {
      if (t.is_variable()) max_var = std::max(max_var, t.index());
    }
  }
  // Proof states are canonically renamed, so this never triggers there;
  // it guards arbitrary callers against unbounded scratch growth.
  if (max_var >= StateHomScratch::kMaxVar) return false;

  static thread_local StateHomScratch scratch;
  StateHomScratch* s = &scratch;
  if (s->binding.size() <= max_var) {
    s->binding.resize(max_var + 1);
    s->bound.resize(max_var + 1, 0);
  }
  s->arena.clear();
  s->span.clear();

  // Per-atom candidate targets (same predicate and arity, rigid positions
  // compatible up front). An atom with no candidate kills the match.
  for (const Atom& a : from) {
    uint32_t begin = static_cast<uint32_t>(s->arena.size());
    for (const Atom& target : onto) {
      if (target.predicate != a.predicate ||
          target.args.size() != a.args.size()) {
        continue;
      }
      bool compatible = true;
      for (size_t k = 0; k < a.args.size() && compatible; ++k) {
        if (!a.args[k].is_variable()) {
          compatible = a.args[k] == target.args[k];
        }
      }
      if (compatible) s->arena.push_back(&target);
    }
    if (s->arena.size() == begin) return false;
    s->span.emplace_back(begin, static_cast<uint32_t>(s->arena.size()));
  }
  // Most-constrained-first: fewer candidates earlier prunes harder.
  s->order.resize(from.size());
  for (size_t i = 0; i < from.size(); ++i) s->order[i] = i;
  std::sort(s->order.begin(), s->order.end(), [s](size_t a, size_t b) {
    return s->span[a].second - s->span[a].first <
           s->span[b].second - s->span[b].first;
  });
  bool found = MatchStateFrom(from, s, 0);
  // A successful match leaves its bindings in place — reset them so the
  // flat arrays are clean for the next call.
  for (uint32_t v : s->touched) s->bound[v] = 0;
  s->touched.clear();
  return found;
}

}  // namespace vadalog

