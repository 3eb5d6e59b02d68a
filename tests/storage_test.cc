// Tests for instances, relations, and homomorphism / CQ evaluation.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "ast/parser.h"
#include "base/rng.h"
#include "storage/homomorphism.h"
#include "storage/instance.h"

namespace vadalog {
namespace {

struct Fixture {
  Program program;
  Instance db;
  PredicateId e;
  Term a, b, c;

  Fixture() {
    ParseResult parsed = ParseProgram(R"(
      e(a, b).
      e(b, c).
      e(a, c).
    )");
    program = std::move(*parsed.program);
    db = DatabaseFromFacts(program.facts());
    e = program.symbols().FindPredicate("e");
    a = program.symbols().InternConstant("a");
    b = program.symbols().InternConstant("b");
    c = program.symbols().InternConstant("c");
  }
};

TEST(InstanceTest, InsertDeduplicates) {
  Fixture f;
  EXPECT_EQ(f.db.size(), 3u);
  EXPECT_FALSE(f.db.Insert(Atom(f.e, {f.a, f.b})));
  EXPECT_EQ(f.db.size(), 3u);
  EXPECT_TRUE(f.db.Insert(Atom(f.e, {f.c, f.a})));
  EXPECT_EQ(f.db.size(), 4u);
}

TEST(InstanceTest, ContainsAndRelation) {
  Fixture f;
  EXPECT_TRUE(f.db.Contains(Atom(f.e, {f.a, f.b})));
  EXPECT_FALSE(f.db.Contains(Atom(f.e, {f.b, f.a})));
  const Relation* rel = f.db.RelationFor(f.e);
  ASSERT_NE(rel, nullptr);
  EXPECT_EQ(rel->size(), 3u);
  EXPECT_EQ(rel->arity(), 2u);
}

TEST(InstanceTest, PositionalIndex) {
  Fixture f;
  const Relation* rel = f.db.RelationFor(f.e);
  EXPECT_EQ(rel->RowsWith(0, f.a).size(), 2u);  // e(a,b), e(a,c)
  EXPECT_EQ(rel->RowsWith(1, f.c).size(), 2u);  // e(b,c), e(a,c)
  EXPECT_TRUE(rel->RowsWith(0, f.c).empty());
}

TEST(InstanceTest, ActiveDomainAndAtoms) {
  Fixture f;
  EXPECT_EQ(f.db.ActiveDomain().size(), 3u);
  EXPECT_EQ(f.db.AllAtoms().size(), 3u);
  EXPECT_EQ(f.db.Predicates().size(), 1u);
}

TEST(InstanceTest, NullTrackingAndDrop) {
  Fixture f;
  f.db.Insert(Atom(f.e, {f.a, Term::Null(5)}));
  EXPECT_EQ(f.db.MaxNullIndex(), 6u);
  size_t before = f.db.size();
  f.db.DropRelation(f.e);
  EXPECT_EQ(f.db.size(), before - 4);
  EXPECT_EQ(f.db.RelationFor(f.e), nullptr);
}

TEST(HomomorphismTest, EnumeratesAllMatches) {
  Fixture f;
  // e(X, Y): three homomorphisms.
  std::vector<Atom> pattern = {
      Atom(f.e, {Term::Variable(0), Term::Variable(1)})};
  int count = 0;
  ForEachHomomorphism(pattern, f.db, {}, [&](const Substitution&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 3);
}

TEST(HomomorphismTest, JoinThroughSharedVariable) {
  Fixture f;
  // e(X, Y), e(Y, Z): only a→b→c.
  std::vector<Atom> pattern = {
      Atom(f.e, {Term::Variable(0), Term::Variable(1)}),
      Atom(f.e, {Term::Variable(1), Term::Variable(2)})};
  std::vector<std::vector<Term>> results;
  ForEachHomomorphism(pattern, f.db, {}, [&](const Substitution& h) {
    results.push_back({h.at(Term::Variable(0)), h.at(Term::Variable(1)),
                       h.at(Term::Variable(2))});
    return true;
  });
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0], (std::vector<Term>{f.a, f.b, f.c}));
}

TEST(HomomorphismTest, RepeatedVariableInAtom) {
  Fixture f;
  f.db.Insert(Atom(f.e, {f.b, f.b}));
  std::vector<Atom> pattern = {
      Atom(f.e, {Term::Variable(0), Term::Variable(0)})};
  int count = 0;
  ForEachHomomorphism(pattern, f.db, {}, [&](const Substitution& h) {
    EXPECT_EQ(h.at(Term::Variable(0)), f.b);
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1);
}

TEST(HomomorphismTest, SeedConstrainsMatches) {
  Fixture f;
  std::vector<Atom> pattern = {
      Atom(f.e, {Term::Variable(0), Term::Variable(1)})};
  Substitution seed = {{Term::Variable(0), f.b}};
  int count = 0;
  ForEachHomomorphism(pattern, f.db, seed, [&](const Substitution&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1);  // only e(b, c)
}

TEST(HomomorphismTest, EarlyStopRespected) {
  Fixture f;
  std::vector<Atom> pattern = {
      Atom(f.e, {Term::Variable(0), Term::Variable(1)})};
  int count = 0;
  bool completed =
      ForEachHomomorphism(pattern, f.db, {}, [&](const Substitution&) {
        ++count;
        return false;
      });
  EXPECT_EQ(count, 1);
  EXPECT_FALSE(completed);
  EXPECT_TRUE(HasHomomorphism(pattern, f.db));
}

TEST(HomomorphismTest, EmptyPatternHasIdentityMatch) {
  Fixture f;
  EXPECT_TRUE(HasHomomorphism({}, f.db));
}

TEST(HomomorphismTest, MissingPredicateHasNoMatch) {
  Fixture f;
  PredicateId ghost = f.program.symbols().InternPredicate("ghost", 1);
  EXPECT_FALSE(HasHomomorphism({Atom(ghost, {Term::Variable(0)})}, f.db));
}

TEST(QueryEvalTest, OutputProjection) {
  Fixture f;
  ConjunctiveQuery q;
  q.output = {Term::Variable(0)};
  q.atoms = {Atom(f.e, {Term::Variable(0), Term::Variable(1)})};
  std::vector<std::vector<Term>> result = EvaluateQuerySorted(q, f.db);
  // Sources: a (twice, deduplicated) and b.
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0][0], f.a);
  EXPECT_EQ(result[1][0], f.b);
}

TEST(QueryEvalTest, CertainOnlyFiltersNulls) {
  Fixture f;
  f.db.Insert(Atom(f.e, {f.c, Term::Null(0)}));
  ConjunctiveQuery q;
  q.output = {Term::Variable(1)};
  q.atoms = {Atom(f.e, {f.c, Term::Variable(1)})};
  EXPECT_TRUE(EvaluateQuerySorted(q, f.db, /*certain_only=*/true).empty());
  EXPECT_EQ(EvaluateQuerySorted(q, f.db, /*certain_only=*/false).size(), 1u);
}

TEST(QueryEvalTest, BooleanQuery) {
  Fixture f;
  ConjunctiveQuery q;
  q.atoms = {Atom(f.e, {Term::Variable(0), Term::Variable(1)})};
  std::vector<std::vector<Term>> result = EvaluateQuerySorted(q, f.db);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_TRUE(result[0].empty());
}

TEST(QueryEvalTest, ConstantInQueryAtom) {
  Fixture f;
  ConjunctiveQuery q;
  q.output = {Term::Variable(0)};
  q.atoms = {Atom(f.e, {f.a, Term::Variable(0)})};
  std::vector<std::vector<Term>> result = EvaluateQuerySorted(q, f.db);
  ASSERT_EQ(result.size(), 2u);  // b and c
}

// Differential: the flat matcher against a brute-force oracle that tries
// every combination of one row per pattern atom, on random patterns over
// a random database — with and without a seed, with nulls in the data and
// with variable indices far beyond any dense table. HasHomomorphism must
// agree with "ForEachHomomorphism found a match", and the enumeration
// must produce every homomorphism exactly once.
size_t OracleCount(const std::vector<Atom>& atoms, const Instance& db,
                   const Substitution& seed) {
  size_t count = 0;
  Substitution h = seed;
  std::function<void(size_t)> extend = [&](size_t depth) {
    if (depth == atoms.size()) {
      ++count;
      return;
    }
    const Relation* rel = db.RelationFor(atoms[depth].predicate);
    if (rel == nullptr) return;
    for (size_t row = 0; row < rel->size(); ++row) {
      const std::vector<Term>& tuple = rel->TupleAt(row);
      Substitution saved = h;
      bool ok = true;
      for (size_t i = 0; i < tuple.size() && ok; ++i) {
        Term t = ApplySubstitution(h, atoms[depth].args[i]);
        if (t.is_variable()) {
          h[t] = tuple[i];
        } else {
          ok = t == tuple[i];
        }
      }
      if (ok) extend(depth + 1);
      h = std::move(saved);
    }
  };
  extend(0);
  return count;
}

TEST(HomomorphismDifferentialTest, MatchesBruteForceOracle) {
  Rng rng(4242);
  const uint32_t arity[] = {1, 2, 3};
  for (int round = 0; round < 400; ++round) {
    Instance db;
    size_t facts = 4 + rng.Below(20);
    for (size_t i = 0; i < facts; ++i) {
      PredicateId p = static_cast<PredicateId>(rng.Below(3));
      Atom fact(p, {});
      for (uint32_t k = 0; k < arity[p]; ++k) {
        fact.args.push_back(rng.Chance(0.9) ? Term::Constant(rng.Below(4))
                                            : Term::Null(rng.Below(2)));
      }
      db.Insert(fact);
    }
    uint64_t var_base = rng.Chance(0.3) ? (uint64_t{1} << 40) : 0;
    std::vector<Atom> pattern;
    size_t atoms = 1 + rng.Below(3);
    for (size_t i = 0; i < atoms; ++i) {
      // Predicate 3 has no facts: some patterns must fail on it.
      PredicateId p =
          static_cast<PredicateId>(rng.Below(10) == 0 ? 3 : rng.Below(3));
      Atom a(p, {});
      for (uint32_t k = 0; k < (p == 3 ? 1 : arity[p]); ++k) {
        a.args.push_back(rng.Chance(0.75)
                             ? Term::Variable(var_base + rng.Below(4))
                             : Term::Constant(rng.Below(4)));
      }
      pattern.push_back(std::move(a));
    }
    Substitution seed;
    if (rng.Chance(0.5)) {
      seed.emplace(Term::Variable(var_base + rng.Below(4)),
                   Term::Constant(rng.Below(4)));
    }
    for (const Substitution& s : {Substitution{}, seed}) {
      size_t count = 0;
      bool completed = ForEachHomomorphism(
          pattern, db, s, [&](const Substitution& h) {
            // Every pattern variable is bound, and the seed is kept.
            for (const Atom& a : pattern) {
              EXPECT_TRUE(db.Contains(ApplySubstitution(h, a)));
            }
            for (const auto& [from, to] : s) EXPECT_EQ(h.at(from), to);
            ++count;
            return true;
          });
      EXPECT_TRUE(completed);
      EXPECT_EQ(count, OracleCount(pattern, db, s)) << "round " << round;
      bool found = false;
      ForEachHomomorphism(pattern, db, s, [&found](const Substitution&) {
        found = true;
        return false;
      });
      EXPECT_EQ(HasHomomorphism(pattern, db, s), found) << "round " << round;
      EXPECT_EQ(found, count > 0) << "round " << round;
    }
    if (HasFailure()) return;
  }
}

TEST(HomomorphismDifferentialTest, CallbacksMayMatchAgain) {
  // The proof searches simplify successors from inside their
  // match-and-drop callbacks: a nested match must not disturb the outer
  // enumeration.
  Fixture f;
  std::vector<Atom> outer = {Atom(f.e, {Term::Variable(0), Term::Variable(1)})};
  std::vector<Atom> inner = {Atom(f.e, {Term::Variable(1), Term::Variable(2)})};
  size_t outer_count = 0, inner_total = 0;
  ForEachHomomorphism(outer, f.db, {}, [&](const Substitution& h) {
    ++outer_count;
    Substitution seed = {{Term::Variable(1), h.at(Term::Variable(1))}};
    ForEachHomomorphism(inner, f.db, seed, [&](const Substitution&) {
      ++inner_total;
      return true;
    });
    EXPECT_EQ(HasHomomorphism(inner, f.db, seed),
              h.at(Term::Variable(1)) == f.b);
    return true;
  });
  EXPECT_EQ(outer_count, 3u);
  EXPECT_EQ(inner_total, 1u);  // only e(a, b) continues, with e(b, c)
}

}  // namespace
}  // namespace vadalog
