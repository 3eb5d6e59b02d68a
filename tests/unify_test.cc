// Tests for unification and chunk-based resolution (Definition 4.3),
// including the paper's canonical unsound-step example.

#include <gtest/gtest.h>

#include <algorithm>

#include "ast/parser.h"
#include "engine/resolution.h"
#include "engine/unify.h"

namespace vadalog {
namespace {

TEST(UnifierTest, BindsVariableToConstant) {
  Unifier u;
  EXPECT_TRUE(u.Unify(Term::Variable(0), Term::Constant(3)));
  EXPECT_EQ(u.Resolve(Term::Variable(0)), Term::Constant(3));
}

TEST(UnifierTest, RigidClashFails) {
  Unifier u;
  EXPECT_FALSE(u.Unify(Term::Constant(1), Term::Constant(2)));
  EXPECT_FALSE(u.Unify(Term::Constant(1), Term::Null(1)));
}

TEST(UnifierTest, TransitiveChainsResolve) {
  Unifier u;
  EXPECT_TRUE(u.Unify(Term::Variable(0), Term::Variable(1)));
  EXPECT_TRUE(u.Unify(Term::Variable(1), Term::Variable(2)));
  EXPECT_TRUE(u.Unify(Term::Variable(2), Term::Constant(9)));
  EXPECT_EQ(u.Resolve(Term::Variable(0)), Term::Constant(9));
  Substitution subst = u.ToSubstitution();
  EXPECT_EQ(subst.at(Term::Variable(0)), Term::Constant(9));
  EXPECT_EQ(subst.at(Term::Variable(1)), Term::Constant(9));
}

TEST(UnifierTest, LargeVariableIndicesAndFilterCollisions) {
  // Indices far beyond any dense table, and indices that share their low
  // six bits (the unbound-lookup filter), must bind and rewind exactly.
  Term big = Term::Variable(uint64_t{1} << 40);
  Term v4096 = Term::Variable(4096);
  Term v1 = Term::Variable(1);
  Term v65 = Term::Variable(65);  // same filter bit as v1
  Unifier u;
  EXPECT_TRUE(u.Unify(big, v4096));
  size_t mark = u.Mark();
  EXPECT_TRUE(u.Unify(v1, Term::Constant(3)));
  EXPECT_EQ(u.Resolve(v65), v65);  // filter hit, but unbound
  EXPECT_TRUE(u.Unify(v65, v4096));
  EXPECT_TRUE(u.Unify(v4096, Term::Constant(8)));
  EXPECT_EQ(u.Resolve(big), Term::Constant(8));
  EXPECT_EQ(u.Resolve(v65), Term::Constant(8));
  EXPECT_FALSE(u.Unify(v65, v1));  // 8 vs 3
  u.Rewind(mark);
  EXPECT_EQ(u.Resolve(v1), v1);
  EXPECT_EQ(u.Resolve(v65), v65);
  EXPECT_EQ(u.Resolve(big), v4096);
  Substitution subst = u.ToSubstitution();
  ASSERT_EQ(subst.size(), 1u);
  EXPECT_EQ(subst.at(big), v4096);
}

TEST(UnifierTest, ClassOfIsIndependentOfBindingOrder) {
  // The same equalities, applied in every order, give the same classes
  // (as sets) and the same resolved rigid values.
  const Term x = Term::Variable(3), y = Term::Variable(5000),
             z = Term::Variable(67), w = Term::Variable(uint64_t{1} << 33),
             u_var = Term::Variable(9);
  std::vector<std::pair<Term, Term>> equalities = {
      {x, y}, {z, y}, {w, Term::Constant(4)}, {u_var, w}, {x, z}};
  std::vector<size_t> perm = {0, 1, 2, 3, 4};
  std::vector<std::vector<std::vector<Term>>> first_classes;
  bool first = true;
  do {
    Unifier u;
    for (size_t i : perm) {
      ASSERT_TRUE(u.Unify(equalities[i].first, equalities[i].second));
    }
    std::vector<std::vector<Term>> classes;
    for (Term t : {x, y, z, w, u_var}) {
      std::vector<Term> cls = u.ClassOf(t);
      std::sort(cls.begin(), cls.end());
      classes.push_back(cls);
    }
    EXPECT_EQ(u.Resolve(u_var), Term::Constant(4));
    EXPECT_TRUE(u.Resolve(x).is_variable());
    EXPECT_EQ(u.Resolve(x), u.Resolve(y));
    EXPECT_EQ(u.Resolve(z), u.Resolve(y));
    if (first) {
      first_classes = {classes};
      first = false;
    } else {
      EXPECT_EQ(classes, first_classes.front());
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  std::vector<Term> xyz = {x, z, y};
  std::sort(xyz.begin(), xyz.end());
  EXPECT_EQ(first_classes.front()[0], xyz);
}

TEST(UnifierTest, ClassOfTracksEquivalence) {
  Unifier u;
  u.Unify(Term::Variable(0), Term::Variable(1));
  u.Unify(Term::Variable(1), Term::Variable(2));
  std::vector<Term> cls = u.ClassOf(Term::Variable(0));
  EXPECT_EQ(cls.size(), 3u);
}

TEST(UnifierTest, AtomUnification) {
  // R(x, a) and R(b, y) unify with x→b, y→a.
  Atom lhs(0, {Term::Variable(0), Term::Constant(10)});
  Atom rhs(0, {Term::Constant(11), Term::Variable(1)});
  std::optional<Substitution> mgu = MostGeneralUnifier(lhs, rhs);
  ASSERT_TRUE(mgu.has_value());
  EXPECT_EQ(mgu->at(Term::Variable(0)), Term::Constant(11));
  EXPECT_EQ(mgu->at(Term::Variable(1)), Term::Constant(10));
}

TEST(UnifierTest, PredicateMismatchFails) {
  Atom lhs(0, {Term::Variable(0)});
  Atom rhs(1, {Term::Variable(1)});
  EXPECT_FALSE(MostGeneralUnifier(lhs, rhs).has_value());
}

struct ResolutionFixture {
  Program program;

  explicit ResolutionFixture(const char* text) {
    ParseResult parsed = ParseProgram(text);
    EXPECT_TRUE(parsed.ok()) << parsed.error;
    program = std::move(*parsed.program);
  }

  std::vector<Atom> QueryAtoms(const char* query_text) {
    std::string err = ParseInto(query_text, &program);
    EXPECT_TRUE(err.empty()) << err;
    std::vector<Atom> atoms = program.queries().back().atoms;
    return atoms;
  }
};

TEST(ResolutionTest, PaperUnsoundExampleRejected) {
  // Section 4.1: Q(x) ← R(x,y), S(y) must NOT resolve R(x,y) alone with
  // P(x') → ∃y' R(x',y'), because the shared variable y would be lost.
  ResolutionFixture f("r(X2, Y2) :- p(X2).");
  std::vector<Atom> state = f.QueryAtoms("?(X) :- r(X, Y), s(Y).");
  std::vector<Resolvent> resolvents =
      ResolveWithTgd(state, f.program, 0, 100, 4);
  EXPECT_TRUE(resolvents.empty());
}

TEST(ResolutionTest, PaperSoundExampleAccepted) {
  // With σ = P(x') → ∃y' R(x',y'), S(y'), the chunk {R(x,y), S(y)}
  // resolves as a whole. After single-head normalization the same effect
  // is achieved through the auxiliary predicate in two steps; here we
  // verify the single-atom chunk against the normalized aux rules.
  ResolutionFixture f("r(X2, Y2), s(Y2) :- p(X2).");
  std::unordered_set<PredicateId> aux;
  NormalizeToSingleHead(&f.program, &aux);
  std::vector<Atom> state = f.QueryAtoms("?(X) :- r(X, Y), s(Y).");
  // Resolve s(Y) with Aux → s rule, then r with Aux → r rule; after both,
  // the state should consist of Aux atoms only, eventually resolvable to
  // p. Here we check the first step succeeds.
  bool any = false;
  for (size_t i = 0; i < f.program.tgds().size(); ++i) {
    std::vector<Resolvent> rs = ResolveWithTgd(state, f.program, i, 100, 4);
    any = any || !rs.empty();
  }
  EXPECT_TRUE(any);
}

TEST(ResolutionTest, SingleAtomResolution) {
  ResolutionFixture f("t(X2, Z2) :- e(X2, Y2), t(Y2, Z2).");
  std::vector<Atom> state = f.QueryAtoms("?(X) :- t(X, W).");
  std::vector<Resolvent> resolvents =
      ResolveWithTgd(state, f.program, 0, 100, 4);
  ASSERT_EQ(resolvents.size(), 1u);
  EXPECT_EQ(resolvents[0].atoms.size(), 2u);  // e and t
  EXPECT_EQ(resolvents[0].chunk.size(), 1u);
}

TEST(ResolutionTest, ConstantInStatePropagates) {
  ResolutionFixture f("t(X2, Z2) :- e(X2, Y2), t(Y2, Z2).");
  // Freeze the first output to a constant.
  Term a = f.program.symbols().InternConstant("a");
  PredicateId t = f.program.symbols().FindPredicate("t");
  std::vector<Atom> state = {Atom(t, {a, Term::Variable(0)})};
  std::vector<Resolvent> resolvents =
      ResolveWithTgd(state, f.program, 0, 100, 4);
  ASSERT_EQ(resolvents.size(), 1u);
  // The e-atom inherits the constant a in first position.
  bool found = false;
  for (const Atom& atom : resolvents[0].atoms) {
    if (f.program.symbols().PredicateName(atom.predicate) == "e" &&
        atom.args[0] == a) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ResolutionTest, ExistentialCannotMeetConstant) {
  // σ = p(X2) → ∃Z2 r(X2, Z2); query atom r(X, a): γ(Z2) = a violates
  // condition (1) of the chunk unifier.
  ResolutionFixture f("r(X2, Z2) :- p(X2).");
  Term a = f.program.symbols().InternConstant("a");
  PredicateId r = f.program.symbols().FindPredicate("r");
  std::vector<Atom> state = {Atom(r, {Term::Variable(0), a})};
  EXPECT_TRUE(ResolveWithTgd(state, f.program, 0, 100, 4).empty());
}

TEST(ResolutionTest, ExistentialUnifiableWithLocalVariable) {
  // Query atom r(X, Y) with Y occurring nowhere else: resolvable.
  ResolutionFixture f("r(X2, Z2) :- p(X2).");
  PredicateId r = f.program.symbols().FindPredicate("r");
  std::vector<Atom> state = {Atom(r, {Term::Variable(0), Term::Variable(1)})};
  std::vector<Resolvent> resolvents =
      ResolveWithTgd(state, f.program, 0, 100, 4);
  ASSERT_EQ(resolvents.size(), 1u);
  EXPECT_EQ(resolvents[0].atoms.size(), 1u);  // p(X)
}

TEST(ResolutionTest, TwoExistentialsCannotMerge) {
  // σ = p(X2) → ∃Z2 ∃W2 r(Z2, W2); query atom r(U, U) forces the two
  // existentials together — unsound, must be rejected.
  ResolutionFixture f("r(Z2, W2) :- p(X2).");
  PredicateId r = f.program.symbols().FindPredicate("r");
  std::vector<Atom> state = {Atom(r, {Term::Variable(0), Term::Variable(0)})};
  EXPECT_TRUE(ResolveWithTgd(state, f.program, 0, 100, 4).empty());
}

TEST(ResolutionTest, MultiAtomChunkSamePredicate) {
  // Two query atoms over r can unify into one head atom when consistent.
  ResolutionFixture f("r(X2, Z2) :- p(X2).");
  PredicateId r = f.program.symbols().FindPredicate("r");
  std::vector<Atom> state = {
      Atom(r, {Term::Variable(0), Term::Variable(1)}),
      Atom(r, {Term::Variable(0), Term::Variable(2)})};
  std::vector<Resolvent> resolvents =
      ResolveWithTgd(state, f.program, 0, 100, 4);
  // Expected chunks include the pair {atom0, atom1}: the second arguments
  // merge into the existential, both occurring only inside the chunk.
  bool has_pair_chunk = false;
  for (const Resolvent& res : resolvents) {
    if (res.chunk.size() == 2) has_pair_chunk = true;
  }
  EXPECT_TRUE(has_pair_chunk);
}

TEST(ResolutionTest, ResolveAllCoversAllRules) {
  ResolutionFixture f(R"(
    t(X2, Y2) :- e(X2, Y2).
    t(X2, Z2) :- e(X2, Y2), t(Y2, Z2).
  )");
  std::vector<Atom> state = f.QueryAtoms("?(X) :- t(X, W).");
  std::vector<Resolvent> resolvents = ResolveAll(state, f.program, 100, 4);
  EXPECT_EQ(resolvents.size(), 2u);
}

}  // namespace
}  // namespace vadalog
