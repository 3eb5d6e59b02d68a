#include "engine/state.h"

#include <algorithm>
#include <unordered_map>

#include "base/hash.h"
#include "storage/homomorphism.h"

namespace vadalog {
namespace {

constexpr uint32_t kNoSlot = 0xffffffffu;
constexpr uint32_t kUnranked = 0xffffffffu;

/// One position of the canonical encoder's search: the candidates tried
/// there and what placing one changed (restored on backtrack).
struct EncodeLevel {
  uint32_t next;       // next candidate (index into CanonScratch::cands)
  uint32_t enc_size;   // encoding length before the placement
  uint32_t touched;    // rank journal length before the placement
  uint32_t next_var;   // rank counters before the placement
  uint32_t next_null;
  int cmp;             // prefix vs. best so far: <0 smaller, 0 equal
};

/// Grow-only per-thread scratch of the canonical encoder. Renameable terms
/// (variables; nulls too in sentinel mode) are renumbered into dense
/// slots, so every per-term table is a flat array indexed by slot whatever
/// the original indices are, and nothing is allocated per call beyond the
/// returned state.
struct CanonScratch {
  std::vector<Term> terms;          // slot -> renameable term
  std::vector<uint32_t> arg_begin;  // per atom: offset of its first arg
  std::vector<uint32_t> arg_slot;   // per argument: slot, or kNoSlot
  std::vector<uint64_t> color;      // per slot
  std::vector<uint32_t> rank;       // per slot; kUnranked = unseen
  std::vector<uint32_t> touched;    // ranked slots, in ranking order
  std::vector<std::pair<uint32_t, uint64_t>> occ;  // (slot, code)
  std::vector<uint64_t> run_codes;
  std::vector<uint64_t> keys;  // concatenated per-atom invariant keys
  std::vector<std::pair<uint32_t, uint32_t>> key_span;  // per atom [b, e)
  std::vector<uint32_t> atom_seen;  // slots seen so far within one atom
  std::vector<size_t> order;        // atoms sorted by invariant key
  std::vector<uint32_t> cand_begin, cand_end;  // per position, into cands
  std::vector<size_t> cands;
  std::vector<uint32_t> twin;       // per candidate: its first twin's index
  std::vector<uint32_t> uses;       // per slot: occurrences in the state
  std::vector<char> used;           // per atom: placed at some position
  std::vector<size_t> current, best_order;
  std::vector<EncodeLevel> levels;
  std::vector<uint64_t> enc, best;
};

thread_local CanonScratch canon_scratch;

/// Sorts the (slot, code) pairs in `s->occ` and folds each slot's code run
/// into its color (combining with the previous color when refining).
void FoldColorRuns(CanonScratch* s, bool combine_old) {
  std::sort(s->occ.begin(), s->occ.end());
  for (size_t i = 0; i < s->occ.size();) {
    uint32_t slot = s->occ[i].first;
    s->run_codes.clear();
    size_t j = i;
    while (j < s->occ.size() && s->occ[j].first == slot) {
      s->run_codes.push_back(s->occ[j].second);
      ++j;
    }
    size_t c = HashRange(s->run_codes.begin(), s->run_codes.end());
    if (combine_old) HashCombine(&c, s->color[slot]);
    s->color[slot] = c;
    i = j;
  }
}

/// Appends the encoding of `atom` (argument slots from `slots`) to `out`,
/// ranking unseen slots by first occurrence. Kind tags: constants and
/// unrenamed nulls keep their packed bits (tags 0/1); variables use the
/// unused tag 3 with their rank; renamed nulls use tag 1 with a rank of
/// their own (safe: in sentinel mode no raw null bits are emitted).
void EncodeAtom(const Atom& atom, const uint32_t* slots, CanonScratch* s,
                std::vector<uint64_t>* out, uint32_t* next_var,
                uint32_t* next_null) {
  out->push_back((uint64_t{2} << 62) | atom.predicate);
  for (size_t i = 0; i < atom.args.size(); ++i) {
    Term t = atom.args[i];
    uint32_t slot = slots[i];
    if (slot == kNoSlot) {
      out->push_back(t.bits());
      continue;
    }
    bool is_var = t.is_variable();
    if (s->rank[slot] == kUnranked) {
      s->rank[slot] = is_var ? (*next_var)++ : (*next_null)++;
      s->touched.push_back(slot);
    }
    out->push_back(((is_var ? uint64_t{3} : uint64_t{1}) << 62) |
                   s->rank[slot]);
  }
}

/// Compares `enc` with `best` from `from` on (equal lengths up to
/// enc.size()): -1, 0 or 1 by the first differing word.
int ComparePrefix(const std::vector<uint64_t>& enc,
                  const std::vector<uint64_t>& best, size_t from) {
  for (size_t k = from; k < enc.size(); ++k) {
    if (enc[k] != best[k]) return enc[k] < best[k] ? -1 : 1;
  }
  return 0;
}

/// True if atoms `a` and `b` are interchangeable in every order: same
/// predicate and rigid terms, the same shared renameable terms at the same
/// positions, and private ones (occurring once in the whole state)
/// elsewhere. Swapping two such atoms in an order yields the identical
/// encoding — their private terms take the same first-occurrence ranks —
/// so the encoder needs to try only one of them at any position.
bool Twins(const std::vector<Atom>& atoms, size_t a, size_t b,
           const CanonScratch& s) {
  const Atom& x = atoms[a];
  const Atom& y = atoms[b];
  if (x.predicate != y.predicate || x.args.size() != y.args.size()) {
    return false;
  }
  const uint32_t* sx = &s.arg_slot[s.arg_begin[a]];
  const uint32_t* sy = &s.arg_slot[s.arg_begin[b]];
  for (size_t i = 0; i < x.args.size(); ++i) {
    if (sx[i] == kNoSlot || sy[i] == kNoSlot) {
      if (x.args[i] != y.args[i]) return false;
      continue;
    }
    if (sx[i] == sy[i]) continue;
    if (x.args[i].kind() != y.args[i].kind() || s.uses[sx[i]] != 1 ||
        s.uses[sy[i]] != 1) {
      return false;
    }
  }
  return true;
}

/// Searches the orders of the tie groups of `s->order` for the
/// lexicographically smallest encoding and leaves it in `s->best_order`.
///
/// Depth-first over positions, encoding as it places atoms and comparing
/// against the best complete encoding so far: a placement whose prefix is
/// already larger is abandoned with its whole subtree, and a twin of a
/// candidate already tried at the same position is skipped (its subtree
/// encodes identically). The enumeration runs group by group, each
/// group's orders in lexicographic order, and only a strictly smaller
/// encoding replaces the best — the result is the minimum over every
/// combination, found without encoding most of them in full.
template <typename KeyEq>
void SearchTieGroups(const std::vector<Atom>& atoms, const KeyEq& key_eq,
                     CanonScratch* s) {
  size_t n = atoms.size();
  s->cand_begin.resize(n);
  s->cand_end.resize(n);
  s->cands.clear();
  s->twin.clear();
  for (size_t i = 0; i < n;) {
    size_t j = i + 1;
    while (j < n && key_eq(s->order[i], s->order[j])) ++j;
    // Positions i..j-1 choose among the group's atoms in ascending index
    // order, as a sorted next_permutation enumeration would.
    uint32_t begin = static_cast<uint32_t>(s->cands.size());
    s->cands.insert(s->cands.end(), s->order.begin() + i,
                    s->order.begin() + j);
    std::sort(s->cands.begin() + begin, s->cands.end());
    for (uint32_t k = begin; k < s->cands.size(); ++k) {
      uint32_t rep = k;  // twins form classes; name each by its first
      for (uint32_t t = begin; t < k; ++t) {
        if (Twins(atoms, s->cands[t], s->cands[k], *s)) {
          rep = s->twin[t];
          break;
        }
      }
      s->twin.push_back(rep);
    }
    for (size_t p = i; p < j; ++p) {
      s->cand_begin[p] = begin;
      s->cand_end[p] = static_cast<uint32_t>(s->cands.size());
    }
    i = j;
  }

  s->used.assign(n, 0);
  s->current.resize(n);
  s->levels.resize(n + 1);
  s->enc.clear();
  s->touched.clear();
  uint32_t next_var = 0;
  uint32_t next_null = 0;
  bool have_best = false;
  auto undo = [&](size_t p) {
    const EncodeLevel& level = s->levels[p];
    s->used[s->current[p]] = 0;
    s->enc.resize(level.enc_size);
    while (s->touched.size() > level.touched) {
      s->rank[s->touched.back()] = kUnranked;
      s->touched.pop_back();
    }
    next_var = level.next_var;
    next_null = level.next_null;
  };
  // A candidate is skipped when used, or when an unused twin precedes it
  // at this position (that twin was tried first).
  auto skip = [s](uint32_t k, uint32_t begin) {
    if (s->used[s->cands[k]]) return true;
    for (uint32_t t = begin; t < k; ++t) {
      if (s->twin[t] == s->twin[k] && !s->used[s->cands[t]]) return true;
    }
    return false;
  };
  size_t p = 0;
  s->levels[0].next = s->cand_begin[0];
  s->levels[0].cmp = 0;
  while (true) {
    if (p == n) {
      if (!have_best || s->levels[n].cmp < 0) {
        s->best.assign(s->enc.begin(), s->enc.end());
        s->best_order.assign(s->current.begin(), s->current.end());
        have_best = true;
        // Every prefix of the current path is now a prefix of the best.
        for (EncodeLevel& level : s->levels) level.cmp = 0;
      }
      undo(--p);
      continue;
    }
    EncodeLevel& level = s->levels[p];
    uint32_t begin = s->cand_begin[p];
    while (level.next < s->cand_end[p] && skip(level.next, begin)) {
      ++level.next;
    }
    if (level.next == s->cand_end[p]) {
      if (p == 0) break;
      undo(--p);
      continue;
    }
    size_t atom = s->cands[level.next++];
    level.enc_size = static_cast<uint32_t>(s->enc.size());
    level.touched = static_cast<uint32_t>(s->touched.size());
    level.next_var = next_var;
    level.next_null = next_null;
    s->used[atom] = 1;
    s->current[p] = atom;
    EncodeAtom(atoms[atom], &s->arg_slot[s->arg_begin[atom]], s, &s->enc,
               &next_var, &next_null);
    int cmp = level.cmp;
    if (have_best && cmp == 0) {
      cmp = ComparePrefix(s->enc, s->best, level.enc_size);
    }
    if (cmp > 0) {
      undo(p);  // prefix already larger: prune this placement
      continue;
    }
    ++p;
    s->levels[p].cmp = cmp;
    if (p < n) s->levels[p].next = s->cand_begin[p];
  }
}

}  // namespace

CanonicalState Canonicalize(std::vector<Atom> atoms) {
  return CanonicalizeEx(std::move(atoms), /*rename_nulls=*/false, nullptr);
}

CanonicalState CanonicalizeEx(std::vector<Atom> atoms, bool rename_nulls,
                              std::unordered_map<Term, Term>* mapping) {
  CanonicalState state;
  size_t n = atoms.size();
  if (n == 0) {
    state.atoms = std::move(atoms);
    state.hash = HashRange(state.encoding.begin(), state.encoding.end());
    return state;
  }
  CanonScratch* s = &canon_scratch;
  auto renameable = [rename_nulls](Term t) {
    return t.is_variable() || (rename_nulls && t.is_null());
  };

  // Dense slots for the renameable terms, in first-occurrence order.
  // States are node-width bounded (a handful of distinct terms), so a
  // scan beats any index.
  s->terms.clear();
  s->arg_begin.clear();
  s->arg_slot.clear();
  for (const Atom& a : atoms) {
    s->arg_begin.push_back(static_cast<uint32_t>(s->arg_slot.size()));
    for (Term t : a.args) {
      if (!renameable(t)) {
        s->arg_slot.push_back(kNoSlot);
        continue;
      }
      uint32_t slot = 0;
      while (slot < s->terms.size() && s->terms[slot] != t) ++slot;
      if (slot == s->terms.size()) {
        s->terms.push_back(t);
        s->uses.resize(s->terms.size());
        s->uses[slot] = 0;
      }
      ++s->uses[slot];
      s->arg_slot.push_back(slot);
    }
  }
  size_t num_slots = s->terms.size();
  s->color.assign(num_slots, 0);
  if (s->rank.size() < num_slots) s->rank.resize(num_slots, kUnranked);
  auto slots_of = [s](size_t atom) { return &s->arg_slot[s->arg_begin[atom]]; };

  // Pass 1: color renameable terms by their occurrence profile (multiset
  // of (predicate, position) pairs) to break most ties.
  s->occ.clear();
  for (size_t a = 0; a < n; ++a) {
    const uint32_t* slots = slots_of(a);
    for (size_t i = 0; i < atoms[a].args.size(); ++i) {
      if (slots[i] != kNoSlot) {
        s->occ.emplace_back(
            slots[i], (static_cast<uint64_t>(atoms[a].predicate) << 8) | i);
      }
    }
  }
  FoldColorRuns(s, /*combine_old=*/false);

  // Pass 1b: one Weisfeiler–Leman-style refinement round — recolor each
  // term by the multiset of its occurrences *including the colors of the
  // co-occurring variables* (rigid terms, renamed nulls included, enter
  // by their bits). This separates most structurally distinct but
  // profile-identical variables, collapsing the tie groups the encoder
  // below would otherwise have to permute.
  if (n > 2) {
    s->occ.clear();
    for (size_t a = 0; a < n; ++a) {
      const Atom& atom = atoms[a];
      const uint32_t* slots = slots_of(a);
      size_t atom_sig = atom.predicate;
      for (size_t i = 0; i < atom.args.size(); ++i) {
        Term t = atom.args[i];
        HashCombine(&atom_sig,
                    t.is_variable() ? s->color[slots[i]] : t.bits());
      }
      for (size_t i = 0; i < atom.args.size(); ++i) {
        if (slots[i] != kNoSlot) {
          size_t code = atom_sig;
          HashCombine(&code, i);
          s->occ.emplace_back(slots[i], code);
        }
      }
    }
    FoldColorRuns(s, /*combine_old=*/true);
  }

  // Variable-invariant atom keys, concatenated into one arena: predicate,
  // rigid terms verbatim, renameable terms as kind + first-occurrence rank
  // among the atom's distinct renameable terms + color.
  s->keys.clear();
  s->key_span.clear();
  for (size_t a = 0; a < n; ++a) {
    const Atom& atom = atoms[a];
    const uint32_t* slots = slots_of(a);
    uint32_t begin = static_cast<uint32_t>(s->keys.size());
    s->keys.push_back(atom.predicate);
    s->atom_seen.clear();
    for (size_t i = 0; i < atom.args.size(); ++i) {
      if (slots[i] == kNoSlot) {
        s->keys.push_back(atom.args[i].bits());
        continue;
      }
      size_t local_rank = 0;
      while (local_rank < s->atom_seen.size() &&
             s->atom_seen[local_rank] != slots[i]) {
        ++local_rank;
      }
      if (local_rank == s->atom_seen.size()) s->atom_seen.push_back(slots[i]);
      uint64_t kind_tag = atom.args[i].is_variable() ? 3 : 1;
      s->keys.push_back((kind_tag << 62) | local_rank);
      s->keys.push_back(s->color[slots[i]]);
    }
    s->key_span.emplace_back(begin, static_cast<uint32_t>(s->keys.size()));
  }
  auto key_less = [s](size_t a, size_t b) {
    auto [ab, ae] = s->key_span[a];
    auto [bb, be] = s->key_span[b];
    return std::lexicographical_compare(s->keys.begin() + ab,
                                        s->keys.begin() + ae,
                                        s->keys.begin() + bb,
                                        s->keys.begin() + be);
  };
  auto key_eq = [s](size_t a, size_t b) {
    auto [ab, ae] = s->key_span[a];
    auto [bb, be] = s->key_span[b];
    return ae - ab == be - bb &&
           std::equal(s->keys.begin() + ab, s->keys.begin() + ae,
                      s->keys.begin() + bb);
  };
  s->order.resize(n);
  for (size_t i = 0; i < n; ++i) s->order[i] = i;
  std::sort(s->order.begin(), s->order.end(), key_less);

  // Tie groups: runs of equal keys. Their orders are searched for the
  // lexicographically smallest encoding (exact canonical form on
  // symmetric states) unless the product of their sizes exceeds 720, in
  // which case the sorted order stands.
  size_t combinations = 1;
  for (size_t i = 0; i < n;) {
    size_t j = i + 1;
    while (j < n && key_eq(s->order[i], s->order[j])) ++j;
    for (size_t k = 2; k <= j - i && combinations <= 720; ++k) {
      combinations *= k;
    }
    i = j;
  }
  const std::vector<size_t>* chosen = &s->order;
  if (combinations > 1 && combinations <= 720) {
    SearchTieGroups(atoms, key_eq, s);
    chosen = &s->best_order;
  }

  // Materialize the chosen order: canonical atoms and their encoding.
  size_t words = 0;
  for (const Atom& a : atoms) words += 1 + a.args.size();
  state.encoding.reserve(words);
  state.atoms.reserve(n);
  uint32_t next_var = 0;
  uint32_t next_null = 0;
  for (size_t idx : *chosen) {
    const Atom& atom = atoms[idx];
    const uint32_t* slots = slots_of(idx);
    EncodeAtom(atom, slots, s, &state.encoding, &next_var, &next_null);
    Atom renamed;
    renamed.predicate = atom.predicate;
    renamed.args.reserve(atom.args.size());
    for (size_t i = 0; i < atom.args.size(); ++i) {
      Term t = atom.args[i];
      if (slots[i] == kNoSlot) {
        renamed.args.push_back(t);
        continue;
      }
      uint32_t rank = s->rank[slots[i]];
      Term out = t.is_variable() ? Term::Variable(rank) : Term::Null(rank);
      if (mapping != nullptr) (*mapping)[t] = out;
      renamed.args.push_back(out);
    }
    state.atoms.push_back(std::move(renamed));
  }
  for (uint32_t slot : s->touched) s->rank[slot] = kUnranked;
  s->touched.clear();

  state.hash = HashRange(state.encoding.begin(), state.encoding.end());
  return state;
}

namespace {

/// Grow-only per-thread scratch of ComponentIds and the simplifier.
struct ComponentScratch {
  std::vector<Term> vars;         // distinct variables seen so far
  std::vector<uint32_t> first;    // per distinct variable: first atom
  std::vector<uint32_t> parent;   // union-find over atom indices
  std::vector<int> id_of_root;
  std::vector<int> ids;
  std::vector<char> component_state;
  std::vector<uint32_t> perm;       // atoms grouped by component
  std::vector<uint32_t> group_end;  // per component: slice bound in perm
  std::vector<Atom> grouped;
};

thread_local ComponentScratch component_scratch;

}  // namespace

void ComponentIds(const std::vector<Atom>& atoms, std::vector<int>* ids) {
  // Array union-find over atom indices: each atom joins the first atom
  // that mentioned each of its variables. The distinct variables of a
  // node-width-bounded state are few, so they are found by a scan — no
  // per-variable table, and any variable index works.
  ComponentScratch* s = &component_scratch;
  size_t n = atoms.size();
  s->parent.resize(n);
  for (size_t i = 0; i < n; ++i) s->parent[i] = static_cast<uint32_t>(i);
  auto find = [s](uint32_t x) {
    while (s->parent[x] != x) {
      s->parent[x] = s->parent[s->parent[x]];
      x = s->parent[x];
    }
    return x;
  };
  s->vars.clear();
  s->first.clear();
  for (size_t i = 0; i < n; ++i) {
    for (Term t : atoms[i].args) {
      if (!t.is_variable()) continue;
      size_t v = 0;
      while (v < s->vars.size() && s->vars[v] != t) ++v;
      if (v == s->vars.size()) {
        s->vars.push_back(t);
        s->first.push_back(static_cast<uint32_t>(i));
      } else {
        s->parent[find(static_cast<uint32_t>(i))] = find(s->first[v]);
      }
    }
  }

  // Dense component ids in first-occurrence order of the roots.
  s->id_of_root.assign(n, -1);
  ids->resize(n);
  int next = 0;
  for (size_t i = 0; i < n; ++i) {
    uint32_t root = find(static_cast<uint32_t>(i));
    if (s->id_of_root[root] < 0) s->id_of_root[root] = next++;
    (*ids)[i] = s->id_of_root[root];
  }
}

std::vector<int> ComponentIds(const std::vector<Atom>& atoms) {
  std::vector<int> ids;
  ComponentIds(atoms, &ids);
  return ids;
}

std::vector<std::vector<Atom>> SplitComponents(
    const std::vector<Atom>& atoms) {
  std::vector<int> ids = ComponentIds(atoms);
  std::vector<std::vector<Atom>> components;
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (static_cast<size_t>(ids[i]) >= components.size()) {
      components.resize(ids[i] + 1);
    }
    components[ids[i]].push_back(atoms[i]);
  }
  return components;
}

size_t EagerSimplify(std::vector<Atom>* atoms, const Instance& database) {
  std::vector<char> dirty(atoms->size(), 1);
  return EagerSimplifyIncremental(atoms, database, &dirty);
}

size_t EagerSimplifyIncremental(std::vector<Atom>* atoms,
                                const Instance& database,
                                std::vector<char>* dirty) {
  // A CQ state is a *set* of atoms: conjunction is idempotent, so exact
  // duplicates (frequent in resolvents) are dropped first. This shrinks
  // states against the width bound and merges otherwise-distinct states.
  // A surviving copy inherits the dirtiness of every duplicate it absorbs.
  {
    size_t n = atoms->size();
    size_t kept = 0;
    for (size_t i = 0; i < n; ++i) {
      bool duplicate = false;
      for (size_t j = 0; j < kept && !duplicate; ++j) {
        if ((*atoms)[i] == (*atoms)[j]) {
          (*dirty)[j] = static_cast<char>((*dirty)[j] | (*dirty)[i]);
          duplicate = true;
        }
      }
      if (!duplicate) {
        if (kept != i) {
          (*atoms)[kept] = std::move((*atoms)[i]);
          (*dirty)[kept] = (*dirty)[i];
        }
        ++kept;
      }
    }
    atoms->resize(kept);
    dirty->resize(kept);
  }

  // The successor's components, computed once and used both to pick the
  // components to re-check and to emit the survivors grouped.
  ComponentScratch* s = &component_scratch;
  ComponentIds(*atoms, &s->ids);
  const std::vector<int>& ids = s->ids;
  size_t n = ids.size();
  int num_components = 0;
  for (int id : ids) num_components = std::max(num_components, id + 1);

  // 0 = keep unchecked (clean, parent certificate), 1 = check.
  s->component_state.assign(num_components, 0);
  for (size_t i = 0; i < n; ++i) {
    if ((*dirty)[i] != 0) s->component_state[ids[i]] = 1;
  }

  // Survivors are emitted grouped by component, in first-occurrence order
  // — byte-identical to the SplitComponents-based full simplification.
  // A counting sort of the atom indices by component gives each component
  // a contiguous slice, which the matcher checks in place.
  s->group_end.assign(num_components, 0);
  for (int id : ids) ++s->group_end[id];
  for (int c = 1; c < num_components; ++c) {
    s->group_end[c] += s->group_end[c - 1];
  }
  s->perm.resize(n);
  for (size_t i = n; i-- > 0;) {
    s->perm[--s->group_end[ids[i]]] = static_cast<uint32_t>(i);
  }
  // group_end now holds each component's first offset, and perm lists
  // each component's atoms in state order. Atoms move only if needed.
  bool in_order = true;
  for (size_t k = 0; k < n && in_order; ++k) in_order = s->perm[k] == k;
  if (!in_order) {
    s->grouped.resize(n);
    for (size_t k = 0; k < n; ++k) {
      s->grouped[k] = std::move((*atoms)[s->perm[k]]);
    }
    for (size_t k = 0; k < n; ++k) (*atoms)[k] = std::move(s->grouped[k]);
  }
  size_t removed = 0;
  size_t kept = 0;
  for (int c = 0; c < num_components; ++c) {
    size_t begin = s->group_end[c];
    size_t end = c + 1 < num_components ? s->group_end[c + 1] : n;
    if (s->component_state[c] == 1 &&
        HasHomomorphism(atoms->data() + begin, atoms->data() + end,
                        database)) {
      removed += end - begin;
      continue;
    }
    for (size_t k = begin; k < end; ++k) {
      if (kept != k) (*atoms)[kept] = std::move((*atoms)[k]);
      ++kept;
    }
  }
  atoms->resize(kept);
  return removed;
}

void ResolventDirtyFlags(const std::vector<int>& components,
                         const std::vector<size_t>& chunk,
                         size_t resolvent_size, std::vector<char>* dirty) {
  // Components disjoint from the chunk pass through the resolution
  // untouched (the unifier binds none of their variables — a shared
  // variable would put them in a chunk atom's component), so only
  // components that lost a member need re-checking, plus the new body
  // atoms appended after the kept parent atoms.
  static thread_local std::vector<char> component_hit;
  component_hit.assign(components.size(), 0);
  for (size_t idx : chunk) component_hit[components[idx]] = 1;
  dirty->clear();
  size_t chunk_cursor = 0;
  for (size_t i = 0; i < components.size(); ++i) {
    if (chunk_cursor < chunk.size() && chunk[chunk_cursor] == i) {
      ++chunk_cursor;
      continue;
    }
    dirty->push_back(component_hit[components[i]]);
  }
  dirty->resize(resolvent_size, 1);  // the body atoms are new
}

bool HasDeadAtom(const std::vector<Atom>& atoms, const Instance& database,
                 const std::unordered_set<PredicateId>& derivable) {
  for (const Atom& atom : atoms) {
    if (derivable.count(atom.predicate) == 0 &&
        EstimateMatches(atom, database) == 0) {
      return true;
    }
  }
  return false;
}

size_t EstimateMatches(const Atom& atom, const Instance& database) {
  const Relation* rel = database.RelationFor(atom.predicate);
  if (rel == nullptr) return 0;
  size_t rows = rel->size();
  for (size_t pos = 0; pos < atom.args.size(); ++pos) {
    if (atom.args[pos].is_rigid()) {
      rows = std::min(
          rows,
          rel->RowsWith(static_cast<uint32_t>(pos), atom.args[pos]).size());
    }
  }
  return rows;
}

size_t SelectAtom(const std::vector<Atom>& atoms, const Instance& database) {
  // Mirror the proof tree's eager leaf decomposition: prefer the
  // database-matchable atom with the fewest candidate rows (it will be
  // dropped with few branches). Only when nothing is matchable do we pick
  // a resolution target, preferring the most-constrained atom.
  size_t best_droppable = atoms.size();
  size_t best_rows = ~size_t{0};
  size_t best_resolvable = 0;
  size_t best_rigid = 0;
  bool have_resolvable = false;
  for (size_t i = 0; i < atoms.size(); ++i) {
    size_t rows = EstimateMatches(atoms[i], database);
    if (rows > 0 && rows < best_rows) {
      best_rows = rows;
      best_droppable = i;
    }
    size_t rigid = 0;
    for (Term t : atoms[i].args) {
      if (t.is_rigid()) ++rigid;
    }
    if (!have_resolvable || rigid > best_rigid) {
      best_rigid = rigid;
      best_resolvable = i;
      have_resolvable = true;
    }
  }
  return best_droppable != atoms.size() ? best_droppable : best_resolvable;
}

}  // namespace vadalog
