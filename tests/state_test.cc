// Tests for proof-state canonicalization, decomposition into components,
// and eager simplification.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "ast/parser.h"
#include "base/hash.h"
#include "base/rng.h"
#include "engine/state.h"

namespace vadalog {
namespace {

Atom MakeAtom(PredicateId p, std::initializer_list<Term> args) {
  return Atom(p, std::vector<Term>(args));
}

TEST(CanonicalizeTest, VariableRenamingInvariance) {
  // {e(X5, X9)} and {e(X0, X1)} canonicalize identically.
  CanonicalState a =
      Canonicalize({MakeAtom(0, {Term::Variable(5), Term::Variable(9)})});
  CanonicalState b =
      Canonicalize({MakeAtom(0, {Term::Variable(0), Term::Variable(1)})});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
}

TEST(CanonicalizeTest, AtomOrderInvariance) {
  std::vector<Atom> forward = {
      MakeAtom(0, {Term::Variable(0), Term::Variable(1)}),
      MakeAtom(1, {Term::Variable(1), Term::Variable(2)})};
  std::vector<Atom> backward = {
      MakeAtom(1, {Term::Variable(7), Term::Variable(3)}),
      MakeAtom(0, {Term::Variable(9), Term::Variable(7)})};
  EXPECT_EQ(Canonicalize(forward), Canonicalize(backward));
}

TEST(CanonicalizeTest, DistinguishesJoinStructure) {
  // e(X,Y), e(Y,Z)  vs  e(X,Y), e(Z,Y): different join shapes.
  std::vector<Atom> chain = {
      MakeAtom(0, {Term::Variable(0), Term::Variable(1)}),
      MakeAtom(0, {Term::Variable(1), Term::Variable(2)})};
  std::vector<Atom> vee = {
      MakeAtom(0, {Term::Variable(0), Term::Variable(1)}),
      MakeAtom(0, {Term::Variable(2), Term::Variable(1)})};
  EXPECT_FALSE(Canonicalize(chain) == Canonicalize(vee));
}

TEST(CanonicalizeTest, ConstantsAreRigid) {
  std::vector<Atom> with_a = {MakeAtom(0, {Term::Constant(1)})};
  std::vector<Atom> with_b = {MakeAtom(0, {Term::Constant(2)})};
  EXPECT_FALSE(Canonicalize(with_a) == Canonicalize(with_b));
}

TEST(CanonicalizeTest, SymmetricStatesMerge) {
  // {e(X,Y), e(Y,X)} under either atom order.
  std::vector<Atom> one = {
      MakeAtom(0, {Term::Variable(0), Term::Variable(1)}),
      MakeAtom(0, {Term::Variable(1), Term::Variable(0)})};
  std::vector<Atom> two = {
      MakeAtom(0, {Term::Variable(1), Term::Variable(0)}),
      MakeAtom(0, {Term::Variable(0), Term::Variable(1)})};
  EXPECT_EQ(Canonicalize(one), Canonicalize(two));
}

TEST(CanonicalizeTest, EmptyState) {
  CanonicalState state = Canonicalize({});
  EXPECT_TRUE(state.atoms.empty());
  EXPECT_TRUE(state.encoding.empty());
}

TEST(CanonicalizeTest, SentinelModeRenamesNulls) {
  std::vector<Atom> one = {MakeAtom(0, {Term::Null(7), Term::Variable(0)})};
  std::vector<Atom> two = {MakeAtom(0, {Term::Null(2), Term::Variable(5)})};
  EXPECT_EQ(CanonicalizeEx(one, true, nullptr),
            CanonicalizeEx(two, true, nullptr));
  // Without renaming, the nulls are rigid and distinct.
  EXPECT_FALSE(Canonicalize(one) == Canonicalize(two));
}

TEST(CanonicalizeTest, SentinelsStayDistinctFromVariables) {
  std::vector<Atom> null_version = {MakeAtom(0, {Term::Null(0)})};
  std::vector<Atom> var_version = {MakeAtom(0, {Term::Variable(0)})};
  EXPECT_FALSE(CanonicalizeEx(null_version, true, nullptr) ==
               CanonicalizeEx(var_version, true, nullptr));
}

TEST(CanonicalizeTest, MappingReportsRenaming) {
  std::unordered_map<Term, Term> mapping;
  CanonicalizeEx({MakeAtom(0, {Term::Variable(8), Term::Null(4)})}, true,
                 &mapping);
  EXPECT_EQ(mapping.at(Term::Variable(8)), Term::Variable(0));
  EXPECT_EQ(mapping.at(Term::Null(4)), Term::Null(0));
}

// ---------------------------------------------------------------------
// Differential oracle: the canonical form as the hash-map implementation
// computed it — per-term maps for colors and ranks, and every tie-group
// combination encoded in full. The flat encoder (dense slots, pruned
// search) must reproduce its encoding, atoms and renaming exactly.

std::vector<uint64_t> ReferenceEncode(const std::vector<Atom>& atoms,
                                      const std::vector<size_t>& order,
                                      bool rename_nulls) {
  std::vector<uint64_t> enc;
  std::unordered_map<Term, uint64_t> var_rank, null_rank;
  for (size_t idx : order) {
    const Atom& a = atoms[idx];
    enc.push_back((uint64_t{2} << 62) | a.predicate);
    for (Term t : a.args) {
      if (t.is_constant() || (t.is_null() && !rename_nulls)) {
        enc.push_back(t.bits());
      } else if (t.is_null()) {
        auto [it, inserted] = null_rank.try_emplace(t, null_rank.size());
        enc.push_back((uint64_t{1} << 62) | it->second);
      } else {
        auto [it, inserted] = var_rank.try_emplace(t, var_rank.size());
        enc.push_back((uint64_t{3} << 62) | it->second);
      }
    }
  }
  return enc;
}

CanonicalState ReferenceCanonicalize(std::vector<Atom> atoms,
                                     bool rename_nulls,
                                     std::unordered_map<Term, Term>* mapping) {
  CanonicalState state;
  size_t n = atoms.size();
  if (n == 0) {
    state.hash = HashRange(state.encoding.begin(), state.encoding.end());
    return state;
  }
  auto renameable = [rename_nulls](Term t) {
    return t.is_variable() || (rename_nulls && t.is_null());
  };
  std::unordered_map<Term, std::vector<uint64_t>> occurrences;
  for (const Atom& a : atoms) {
    for (size_t i = 0; i < a.args.size(); ++i) {
      if (renameable(a.args[i])) {
        occurrences[a.args[i]].push_back(
            (static_cast<uint64_t>(a.predicate) << 8) | i);
      }
    }
  }
  std::unordered_map<Term, uint64_t> term_color;
  for (auto& [term, profile] : occurrences) {
    std::sort(profile.begin(), profile.end());
    term_color[term] = HashRange(profile.begin(), profile.end());
  }
  if (n > 2) {
    auto context_color = [&term_color](Term t) -> uint64_t {
      if (t.is_constant() || t.is_null()) return t.bits();
      return term_color.at(t);
    };
    std::unordered_map<Term, std::vector<uint64_t>> refined;
    for (const Atom& a : atoms) {
      uint64_t atom_sig = a.predicate;
      for (Term t : a.args) HashCombine(&atom_sig, context_color(t));
      for (size_t i = 0; i < a.args.size(); ++i) {
        if (renameable(a.args[i])) {
          uint64_t occ = atom_sig;
          HashCombine(&occ, i);
          refined[a.args[i]].push_back(occ);
        }
      }
    }
    for (auto& [term, profile] : refined) {
      std::sort(profile.begin(), profile.end());
      uint64_t color = HashRange(profile.begin(), profile.end());
      HashCombine(&color, term_color[term]);
      term_color[term] = color;
    }
  }
  std::vector<std::vector<uint64_t>> keys(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i].push_back(atoms[i].predicate);
    std::unordered_map<Term, uint64_t> local_rank;
    for (Term t : atoms[i].args) {
      if (!renameable(t)) {
        keys[i].push_back(t.bits());
        continue;
      }
      auto [it, inserted] = local_rank.try_emplace(t, local_rank.size());
      keys[i].push_back(((t.is_variable() ? uint64_t{3} : uint64_t{1}) << 62) |
                        it->second);
      keys[i].push_back(term_color.at(t));
    }
  }
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&keys](size_t a, size_t b) { return keys[a] < keys[b]; });
  std::vector<std::pair<size_t, size_t>> groups;
  size_t combinations = 1;
  for (size_t i = 0; i < n;) {
    size_t j = i + 1;
    while (j < n && keys[order[i]] == keys[order[j]]) ++j;
    if (j - i > 1) {
      groups.emplace_back(i, j);
      for (size_t k = 2; k <= j - i && combinations <= 720; ++k) {
        combinations *= k;
      }
    }
    i = j;
  }
  if (groups.empty() || combinations > 720) {
    state.encoding = ReferenceEncode(atoms, order, rename_nulls);
  } else {
    std::vector<uint64_t> best;
    std::vector<size_t> current = order;
    std::function<void(size_t)> recurse = [&](size_t group_index) {
      if (group_index == groups.size()) {
        std::vector<uint64_t> enc =
            ReferenceEncode(atoms, current, rename_nulls);
        if (best.empty() || enc < best) {
          best = std::move(enc);
          order = current;
        }
        return;
      }
      auto [begin, end] = groups[group_index];
      std::vector<size_t> members(current.begin() + begin,
                                  current.begin() + end);
      std::sort(members.begin(), members.end());
      do {
        std::copy(members.begin(), members.end(), current.begin() + begin);
        recurse(group_index + 1);
      } while (std::next_permutation(members.begin(), members.end()));
    };
    recurse(0);
    state.encoding = std::move(best);
  }
  std::unordered_map<Term, uint64_t> var_rank, null_rank;
  for (size_t idx : order) {
    Atom renamed;
    renamed.predicate = atoms[idx].predicate;
    for (Term t : atoms[idx].args) {
      Term out = t;
      if (t.is_variable()) {
        auto [it, inserted] = var_rank.try_emplace(t, var_rank.size());
        out = Term::Variable(it->second);
      } else if (rename_nulls && t.is_null()) {
        auto [it, inserted] = null_rank.try_emplace(t, null_rank.size());
        out = Term::Null(it->second);
      }
      if (mapping != nullptr && renameable(t)) (*mapping)[t] = out;
      renamed.args.push_back(out);
    }
    state.atoms.push_back(std::move(renamed));
  }
  state.hash = HashRange(state.encoding.begin(), state.encoding.end());
  return state;
}

/// Checks every entry point of the flat encoder against the oracle.
void ExpectMatchesReference(const std::vector<Atom>& atoms,
                            const std::string& label) {
  CanonicalState expected = ReferenceCanonicalize(atoms, false, nullptr);
  CanonicalState plain = Canonicalize(atoms);
  EXPECT_EQ(plain.encoding, expected.encoding) << label;
  EXPECT_EQ(plain.atoms, expected.atoms) << label;
  EXPECT_EQ(plain.hash, expected.hash) << label;

  std::unordered_map<Term, Term> mapping, expected_mapping;
  CanonicalState with_mapping = CanonicalizeEx(atoms, false, &mapping);
  ReferenceCanonicalize(atoms, false, &expected_mapping);
  EXPECT_EQ(with_mapping.encoding, plain.encoding) << label;
  EXPECT_EQ(mapping, expected_mapping) << label;

  std::unordered_map<Term, Term> sentinel_mapping, expected_sentinel;
  CanonicalState sentinel = CanonicalizeEx(atoms, true, &sentinel_mapping);
  CanonicalState expected_sentinel_state =
      ReferenceCanonicalize(atoms, true, &expected_sentinel);
  EXPECT_EQ(sentinel.encoding, expected_sentinel_state.encoding) << label;
  EXPECT_EQ(sentinel.atoms, expected_sentinel_state.atoms) << label;
  EXPECT_EQ(sentinel_mapping, expected_sentinel) << label;
}

std::string Describe(const std::vector<Atom>& atoms) {
  std::string out;
  for (const Atom& a : atoms) {
    out += "p" + std::to_string(a.predicate) + "(";
    for (Term t : a.args) out += DebugString(t) + " ";
    out += ") ";
  }
  return out;
}

TEST(CanonicalizeDifferentialTest, RandomStatesMatchReference) {
  Rng rng(20240611);
  const uint32_t arity[] = {1, 2, 3, 2};
  for (int round = 0; round < 3000; ++round) {
    size_t n = 1 + rng.Below(8);
    // Some rounds use variable indices far beyond any dense table.
    uint64_t var_base = rng.Chance(0.3) ? (uint64_t{1} << 40) : 0;
    uint64_t var_pool = 1 + rng.Below(6);
    std::vector<Atom> atoms;
    for (size_t i = 0; i < n; ++i) {
      PredicateId p = static_cast<PredicateId>(rng.Below(4));
      Atom a(p, {});
      for (uint32_t k = 0; k < arity[p]; ++k) {
        uint64_t roll = rng.Below(10);
        if (roll < 7) {
          a.args.push_back(Term::Variable(var_base + rng.Below(var_pool)));
        } else if (roll < 9) {
          a.args.push_back(Term::Constant(rng.Below(3)));
        } else {
          a.args.push_back(Term::Null(rng.Below(2)));
        }
      }
      atoms.push_back(std::move(a));
    }
    ExpectMatchesReference(atoms, Describe(atoms));
    if (HasFailure()) return;
  }
}

TEST(CanonicalizeDifferentialTest, TieGroupsAtAndBeyondTheSearchLimit) {
  auto v = [](uint64_t i) { return Term::Variable(i); };
  auto cycle = [&](PredicateId p, uint64_t first, uint64_t length,
                   std::vector<Atom>* out) {
    for (uint64_t i = 0; i < length; ++i) {
      out->push_back(Atom(p, {v(first + i), v(first + (i + 1) % length)}));
    }
  };
  std::vector<std::vector<Atom>> states;
  // Two 3-cycles: one tie group of six atoms, exactly 720 orders.
  states.emplace_back();
  cycle(0, 10, 3, &states.back());
  cycle(0, 20, 3, &states.back());
  // A 6-cycle: 720 orders, and the order changes the encoding.
  states.emplace_back();
  cycle(0, 0, 6, &states.back());
  // A 7-cycle: 5040 > 720, the sorted order stands.
  states.emplace_back();
  cycle(0, 0, 7, &states.back());
  // Several groups: 3! · 5! = 720, and 4! · 4! = 576.
  states.emplace_back();
  cycle(0, 0, 3, &states.back());
  cycle(1, 50, 5, &states.back());
  states.emplace_back();
  cycle(0, 0, 4, &states.back());
  cycle(1, 50, 4, &states.back());
  // 3! · 3! · 3! = 216 over a star, a cycle and a sentinel-null fan.
  states.emplace_back();
  for (uint64_t i = 0; i < 3; ++i) {
    states.back().push_back(Atom(2, {Term::Constant(7), v(100 + i)}));
    states.back().push_back(Atom(3, {Term::Null(1), v(200 + i)}));
  }
  cycle(0, 300, 3, &states.back());
  // 6! · 2! > 720.
  states.emplace_back();
  cycle(0, 0, 6, &states.back());
  cycle(1, 40, 2, &states.back());
  for (std::vector<Atom>& atoms : states) {
    std::string label = Describe(atoms);
    ExpectMatchesReference(atoms, label);
    // Same state, shuffled input order and renamed variables.
    std::reverse(atoms.begin(), atoms.end());
    for (Atom& a : atoms) {
      for (Term& t : a.args) {
        if (t.is_variable()) t = v(5000 + 3 * t.index());
      }
    }
    ExpectMatchesReference(atoms, label + " (reversed, renamed)");
  }
}

TEST(SplitComponentsTest, DisjointAtomsSplit) {
  std::vector<std::vector<Atom>> components = SplitComponents(
      {MakeAtom(0, {Term::Variable(0)}), MakeAtom(1, {Term::Variable(1)})});
  EXPECT_EQ(components.size(), 2u);
}

TEST(SplitComponentsTest, SharedVariableConnects) {
  std::vector<std::vector<Atom>> components = SplitComponents(
      {MakeAtom(0, {Term::Variable(0), Term::Variable(1)}),
       MakeAtom(1, {Term::Variable(1)}), MakeAtom(2, {Term::Variable(2)})});
  EXPECT_EQ(components.size(), 2u);
}

TEST(SplitComponentsTest, ConstantsDoNotConnect) {
  std::vector<std::vector<Atom>> components = SplitComponents(
      {MakeAtom(0, {Term::Constant(5), Term::Variable(0)}),
       MakeAtom(1, {Term::Constant(5), Term::Variable(1)})});
  EXPECT_EQ(components.size(), 2u);
}

TEST(SplitComponentsTest, TransitiveConnection) {
  std::vector<std::vector<Atom>> components = SplitComponents(
      {MakeAtom(0, {Term::Variable(0), Term::Variable(1)}),
       MakeAtom(0, {Term::Variable(1), Term::Variable(2)}),
       MakeAtom(0, {Term::Variable(2), Term::Variable(3)})});
  EXPECT_EQ(components.size(), 1u);
}

struct DbFixture {
  Program program;
  Instance db;
  PredicateId e, t;

  DbFixture() {
    ParseResult parsed = ParseProgram("e(a, b). e(b, c).");
    program = std::move(*parsed.program);
    db = DatabaseFromFacts(program.facts());
    e = program.symbols().FindPredicate("e");
    t = program.symbols().InternPredicate("t", 2);
  }
};

TEST(EagerSimplifyTest, RemovesSatisfiableComponents) {
  DbFixture f;
  std::vector<Atom> atoms = {
      MakeAtom(f.e, {Term::Variable(0), Term::Variable(1)}),  // matches db
      MakeAtom(f.t, {Term::Variable(2), Term::Variable(3)})}; // t is empty
  size_t removed = EagerSimplify(&atoms, f.db);
  EXPECT_EQ(removed, 1u);
  ASSERT_EQ(atoms.size(), 1u);
  EXPECT_EQ(atoms[0].predicate, f.t);
}

TEST(EagerSimplifyTest, KeepsConnectedUnsatisfiedPart) {
  DbFixture f;
  // e(X,Y) joined with t(Y,Z): one component, t unmatched, nothing drops.
  std::vector<Atom> atoms = {
      MakeAtom(f.e, {Term::Variable(0), Term::Variable(1)}),
      MakeAtom(f.t, {Term::Variable(1), Term::Variable(2)})};
  EXPECT_EQ(EagerSimplify(&atoms, f.db), 0u);
  EXPECT_EQ(atoms.size(), 2u);
}

TEST(EagerSimplifyTest, GroundAtomInDatabase) {
  DbFixture f;
  Term a = f.program.symbols().InternConstant("a");
  Term b = f.program.symbols().InternConstant("b");
  std::vector<Atom> atoms = {MakeAtom(f.e, {a, b})};
  EXPECT_EQ(EagerSimplify(&atoms, f.db), 1u);
  EXPECT_TRUE(atoms.empty());
}

TEST(SelectAtomTest, PrefersMoreRigidArguments) {
  DbFixture f;
  Term a = f.program.symbols().InternConstant("a");
  std::vector<Atom> atoms = {
      MakeAtom(f.e, {Term::Variable(0), Term::Variable(1)}),
      MakeAtom(f.e, {a, Term::Variable(2)})};
  EXPECT_EQ(SelectAtom(atoms, f.db), 1u);
}

}  // namespace
}  // namespace vadalog
