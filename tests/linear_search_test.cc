// Tests for the bounded linear proof search (Section 4.3) — the paper's
// headline NLogSpace algorithm for CQAns(WARD ∩ PWL).

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "engine/certain.h"
#include "engine/linear_search.h"
#include "gen/generators.h"
#include "vadalog/reasoner.h"

namespace vadalog {
namespace {

struct TestEnv {
  Program program;
  Instance db;

  explicit TestEnv(const char* text) {
    ParseResult parsed = ParseProgram(text);
    EXPECT_TRUE(parsed.ok()) << parsed.error;
    program = std::move(*parsed.program);
    NormalizeToSingleHead(&program, nullptr);
    db = DatabaseFromFacts(program.facts());
  }

  Term Const(const char* name) {
    return program.symbols().InternConstant(name);
  }
  ConjunctiveQuery Query(size_t index = 0) {
    return program.queries()[index];
  }
};

TEST(LinearSearchTest, ReachabilityPositive) {
  TestEnv s(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    e(a, b). e(b, c). e(c, d).
    ?(X) :- t(a, X).
  )");
  EXPECT_TRUE(
      LinearProofSearch(s.program, s.db, s.Query(), {s.Const("d")}).accepted);
  EXPECT_TRUE(
      LinearProofSearch(s.program, s.db, s.Query(), {s.Const("b")}).accepted);
}

TEST(LinearSearchTest, ReachabilityNegative) {
  TestEnv s(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    e(a, b). e(b, c). e(c, d).
    ?(X) :- t(a, X).
  )");
  EXPECT_FALSE(
      LinearProofSearch(s.program, s.db, s.Query(), {s.Const("a")}).accepted);
  ProofSearchResult r =
      LinearProofSearch(s.program, s.db, s.Query(), {s.Const("zz")});
  EXPECT_FALSE(r.accepted);
  EXPECT_FALSE(r.budget_exhausted);
}

TEST(LinearSearchTest, ExistentialWitnessBooleanQuery) {
  // P(x) → ∃z R(x,z): the Boolean query ∃x∃z R(x,z) is certain although
  // no R-fact exists in D.
  TestEnv s(R"(
    r(X, Z) :- p(X).
    p(a).
    ?() :- r(X, Y).
  )");
  EXPECT_TRUE(LinearProofSearch(s.program, s.db, s.Query(), {}).accepted);
}

TEST(LinearSearchTest, NullNotACertainAnswer) {
  // The witness z is a null: ?(Y) :- r(a, Y) has no certain (constant)
  // answer.
  TestEnv s(R"(
    r(X, Z) :- p(X).
    p(a).
    ?(Y) :- r(a, Y).
  )");
  EXPECT_FALSE(
      LinearProofSearch(s.program, s.db, s.Query(), {s.Const("a")}).accepted);
}

TEST(LinearSearchTest, WardedExistentialCycle) {
  // The Section 3 warded pair; derived P-facts are null-valued, so the
  // only certain P-answer is the database one... plus none propagated.
  TestEnv s(R"(
    r(X, Z) :- p(X).
    p(Y) :- r(X, Y).
    p(a).
    ?(X) :- p(X).
  )");
  EXPECT_TRUE(
      LinearProofSearch(s.program, s.db, s.Query(), {s.Const("a")}).accepted);
  Term b = s.Const("b");
  EXPECT_FALSE(LinearProofSearch(s.program, s.db, s.Query(), {b}).accepted);
  // Boolean: ∃x∃z r(x,z) and the deeper ∃ chain are certain.
  ConjunctiveQuery boolean_query;
  PredicateId r = s.program.symbols().FindPredicate("r");
  boolean_query.atoms = {Atom(r, {Term::Variable(0), Term::Variable(1)})};
  EXPECT_TRUE(LinearProofSearch(s.program, s.db, boolean_query, {}).accepted);
}

TEST(LinearSearchTest, JoinQueryOverDerivedAtoms) {
  TestEnv s(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    e(a, b). e(b, c). e(b, d).
    ?(X, Y) :- t(a, X), t(X, Y).
  )");
  EXPECT_TRUE(LinearProofSearch(s.program, s.db, s.Query(),
                                {s.Const("b"), s.Const("c")})
                  .accepted);
  EXPECT_FALSE(LinearProofSearch(s.program, s.db, s.Query(),
                                 {s.Const("c"), s.Const("b")})
                   .accepted);
}

TEST(LinearSearchTest, RepeatedOutputVariable) {
  TestEnv s(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    e(a, b). e(b, a).
    ?(X, X) :- t(X, X).
  )");
  EXPECT_TRUE(LinearProofSearch(s.program, s.db, s.Query(),
                                {s.Const("a"), s.Const("a")})
                  .accepted);
  // Inconsistent candidate for the repeated variable.
  EXPECT_FALSE(LinearProofSearch(s.program, s.db, s.Query(),
                                 {s.Const("a"), s.Const("b")})
                   .accepted);
}

TEST(LinearSearchTest, Owl2QlTypeInference) {
  TestEnv s(R"(
    subclassStar(X, Y) :- subclass(X, Y).
    subclassStar(X, Z) :- subclassStar(X, Y), subclass(Y, Z).
    type(X, Z) :- type(X, Y), subclassStar(Y, Z).
    triple(X, Z, W) :- type(X, Y), restriction(Y, Z).
    triple(Z, W, X) :- triple(X, Y, Z), inverse(Y, W).
    type(X, W) :- triple(X, Y, Z), restriction(W, Y).
    subclass(cat, mammal). subclass(mammal, animal).
    type(tom, cat).
    restriction(hunter, hunts).
    type(tom, hunter).
    ?(Y) :- type(tom, Y).
  )");
  // Transitive subclass inference: tom : cat, mammal, animal.
  EXPECT_TRUE(LinearProofSearch(s.program, s.db, s.Query(),
                                {s.Const("animal")})
                  .accepted);
  // Through restriction + inverse-free round trip: triple(tom, hunts, z)
  // with restriction(hunter, hunts) re-derives type(tom, hunter).
  EXPECT_TRUE(LinearProofSearch(s.program, s.db, s.Query(),
                                {s.Const("hunter")})
                  .accepted);
  EXPECT_FALSE(
      LinearProofSearch(s.program, s.db, s.Query(), {s.Const("hunts")})
          .accepted);
}

TEST(LinearSearchTest, AgreesWithChaseOnEnumeration) {
  TestEnv s(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    e(a, b). e(b, c). e(c, a). e(c, d).
    ?(X, Y) :- t(X, Y).
  )");
  std::vector<std::vector<Term>> via_chase =
      CertainAnswersViaChase(s.program, s.db, s.Query());
  std::vector<std::vector<Term>> via_search =
      CertainAnswersViaSearch(s.program, s.db, s.Query());
  EXPECT_EQ(via_chase, via_search);
  EXPECT_EQ(via_search.size(), 12u);  // 3-cycle closure (9) + edges into d (3)
}

TEST(LinearSearchTest, StateBudgetReported) {
  TestEnv s(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    e(a, b). e(b, c).
    ?(X) :- t(a, X).
  )");
  ProofSearchOptions options;
  options.max_states = 1;
  ProofSearchResult result =
      LinearProofSearch(s.program, s.db, s.Query(), {s.Const("zz")}, options);
  EXPECT_FALSE(result.accepted);
  EXPECT_TRUE(result.budget_exhausted);
}

TEST(LinearSearchTest, StatsArePopulated) {
  TestEnv s(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    e(a, b). e(b, c).
    ?(X) :- t(a, X).
  )");
  ProofSearchResult result =
      LinearProofSearch(s.program, s.db, s.Query(), {s.Const("c")});
  EXPECT_TRUE(result.accepted);
  EXPECT_GT(result.node_width_used, 0u);
  EXPECT_GT(result.peak_state_bytes, 0u);
}

// Deterministic perf canaries: the searches count expanded/visited states,
// so exploration-size regressions (a lost pruning rule, a broken canonical
// form) show up as counter jumps long before they show up as wall-clock.
// Bounds are ~2x the counts observed when the pruned search landed
// (7 states for the chain refutation, 8280 for the OWL 2 QL refutation).
TEST(LinearSearchTest, PerfCanaryChainRefutation) {
  TestEnv s(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    e(a, b). e(b, c). e(c, d).
    ?(X) :- t(a, X).
  )");
  ProofSearchResult result =
      LinearProofSearch(s.program, s.db, s.Query(), {s.Const("zz")});
  EXPECT_FALSE(result.accepted);
  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_LE(result.states_expanded, 16u);
  EXPECT_LE(result.states_visited, 16u);
}

TEST(LinearSearchTest, PerfCanaryOwl2QlRefutation) {
  TestEnv s(R"(
    subclassStar(X, Y) :- subclass(X, Y).
    subclassStar(X, Z) :- subclassStar(X, Y), subclass(Y, Z).
    type(X, Z) :- type(X, Y), subclassStar(Y, Z).
    triple(X, Z, W) :- type(X, Y), restriction(Y, Z).
    triple(Z, W, X) :- triple(X, Y, Z), inverse(Y, W).
    type(X, W) :- triple(X, Y, Z), restriction(W, Y).
    subclass(cat, mammal). subclass(mammal, animal).
    type(tom, cat).
    restriction(hunter, hunts).
    type(tom, hunter).
    ?(Y) :- type(tom, Y).
  )");
  ProofSearchResult result =
      LinearProofSearch(s.program, s.db, s.Query(), {s.Const("hunts")});
  EXPECT_FALSE(result.accepted);
  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_LE(result.states_expanded, 16000u);
  EXPECT_LE(result.states_visited, 16000u);
}

// Golden counters: exact exploration counters of single-threaded linear
// searches over generated OWL 2 QL ontologies. The per-successor kernels
// (matcher, components, canonical encoder, unifier) must change none of
// them — a kernel that is faster but not bit-identical shifts the visited
// set, the subsumption order and hence these numbers. The last case is the
// decision that exhausts cold_search's state budget.
struct GoldenCase {
  uint64_t seed;
  uint32_t classes, properties, individuals;
  const char* individual;
  const char* cls;
  uint64_t max_states;
  bool accepted, exhausted;
  uint64_t expanded, visited, subsumption_checks, resolution_edges,
      drop_edges, subsumed_discarded;
};

const GoldenCase kGoldenCases[] = {
    // clang-format off
    {1, 6, 1, 8, "ind3", "class0", 20000, true, false, 31, 59, 168, 45, 25, 14},
    {3, 6, 2, 8, "ind7", "class0", 20000, true, false, 14, 27, 33, 19, 9, 0},
    {5, 8, 3, 10, "ind4", "class0", 20000, true, false, 18, 35, 40, 25, 14, 2},
    {1, 6, 1, 8, "ind3", "class5", 20000, false, false, 214, 1791, 20927, 6790, 260, 1534},
    {2, 6, 1, 8, "ind7", "class4", 20000, false, false, 110, 531, 4393, 3880, 135, 375},
    {3, 6, 2, 8, "ind2", "class1", 20000, false, false, 432, 888, 11859, 4563, 428, 454},
    {4, 8, 2, 10, "ind9", "class2", 20000, false, false, 594, 2216, 33853, 8123, 797, 1585},
    {5, 8, 3, 10, "ind9", "class4", 20000, false, false, 469, 1613, 21957, 6291, 530, 1068},
    {7919, 30, 6, 120, "ind65", "class8", 20000, false, true, 20000, 55233, 22261, 86254, 19271, 660},
    // clang-format on
};

TEST(LinearSearchTest, GoldenCountersOnGeneratedOntologies) {
  for (const GoldenCase& c : kGoldenCases) {
    Program program = MakeOwl2QlProgram();
    Rng rng(c.seed);
    AddOntologyFacts(&program, c.classes, c.properties, c.individuals, &rng);
    NormalizeToSingleHead(&program, nullptr);
    Instance db = DatabaseFromFacts(program.facts());
    PredicateId type = program.symbols().FindPredicate("type");
    ConjunctiveQuery query;
    query.output = {Term::Variable(0), Term::Variable(1)};
    query.atoms = {Atom(type, {Term::Variable(0), Term::Variable(1)})};
    ProofSearchOptions options;
    options.max_states = c.max_states;
    ProofSearchResult r = LinearProofSearch(
        program, db, query,
        {program.symbols().InternConstant(c.individual),
         program.symbols().InternConstant(c.cls)},
        options);
    std::string label = std::to_string(c.seed) + "/" + c.individual + "/" +
                        c.cls + " got {" + (r.accepted ? "true" : "false") +
                        ", " + (r.budget_exhausted ? "true" : "false") +
                        ", " + std::to_string(r.states_expanded) + ", " +
                        std::to_string(r.states_visited) + ", " +
                        std::to_string(r.subsumption_checks) + ", " +
                        std::to_string(r.resolution_edges) + ", " +
                        std::to_string(r.drop_edges) + ", " +
                        std::to_string(r.subsumed_discarded) + "}";
    EXPECT_EQ(r.accepted, c.accepted) << label;
    EXPECT_EQ(r.budget_exhausted, c.exhausted) << label;
    EXPECT_EQ(r.states_expanded, c.expanded) << label;
    EXPECT_EQ(r.states_visited, c.visited) << label;
    EXPECT_EQ(r.subsumption_checks, c.subsumption_checks) << label;
    EXPECT_EQ(r.resolution_edges, c.resolution_edges) << label;
    EXPECT_EQ(r.drop_edges, c.drop_edges) << label;
    EXPECT_EQ(r.subsumed_discarded, c.subsumed_discarded) << label;
  }
}

TEST(LinearSearchTest, SubsumptionPruningPreservesDecisions) {
  TestEnv s(R"(
    subclassStar(X, Y) :- subclass(X, Y).
    subclassStar(X, Z) :- subclassStar(X, Y), subclass(Y, Z).
    type(X, Z) :- type(X, Y), subclassStar(Y, Z).
    triple(X, Z, W) :- type(X, Y), restriction(Y, Z).
    triple(Z, W, X) :- triple(X, Y, Z), inverse(Y, W).
    type(X, W) :- triple(X, Y, Z), restriction(W, Y).
    subclass(cat, mammal). subclass(mammal, animal).
    type(tom, cat).
    restriction(hunter, hunts).
    type(tom, hunter).
    ?(Y) :- type(tom, Y).
  )");
  ProofSearchOptions unpruned;
  unpruned.subsumption = false;
  for (const char* name : {"animal", "hunter", "hunts", "cat", "tom"}) {
    ProofSearchResult with_pruning =
        LinearProofSearch(s.program, s.db, s.Query(), {s.Const(name)});
    ProofSearchResult without =
        LinearProofSearch(s.program, s.db, s.Query(), {s.Const(name)},
                          unpruned);
    EXPECT_EQ(with_pruning.accepted, without.accepted) << name;
    EXPECT_LE(with_pruning.states_expanded, without.states_expanded)
        << name;
  }
  // On this workload the pruning must actually fire.
  ProofSearchResult refutation =
      LinearProofSearch(s.program, s.db, s.Query(), {s.Const("hunts")});
  EXPECT_GT(refutation.subsumed_discarded, 0u);
}

TEST(LinearSearchTest, ParallelFrontierIsDeterministicAndAgrees) {
  TestEnv s(R"(
    subclassStar(X, Y) :- subclass(X, Y).
    subclassStar(X, Z) :- subclassStar(X, Y), subclass(Y, Z).
    type(X, Z) :- type(X, Y), subclassStar(Y, Z).
    triple(X, Z, W) :- type(X, Y), restriction(Y, Z).
    triple(Z, W, X) :- triple(X, Y, Z), inverse(Y, W).
    type(X, W) :- triple(X, Y, Z), restriction(W, Y).
    subclass(cat, mammal). subclass(mammal, animal).
    type(tom, cat).
    restriction(hunter, hunts).
    type(tom, hunter).
    ?(Y) :- type(tom, Y).
  )");
  // A refutation explores the full space, so every counter must be
  // bit-identical across thread counts (deterministic sharded merge).
  ProofSearchResult single =
      LinearProofSearch(s.program, s.db, s.Query(), {s.Const("hunts")});
  for (uint32_t threads : {2u, 4u}) {
    ProofSearchOptions options;
    options.num_threads = threads;
    ProofSearchResult parallel = LinearProofSearch(
        s.program, s.db, s.Query(), {s.Const("hunts")}, options);
    EXPECT_FALSE(parallel.accepted);
    EXPECT_EQ(parallel.states_visited, single.states_visited) << threads;
    EXPECT_EQ(parallel.states_expanded, single.states_expanded) << threads;
    EXPECT_EQ(parallel.subsumed_discarded, single.subsumed_discarded)
        << threads;
    EXPECT_EQ(parallel.resolution_edges, single.resolution_edges)
        << threads;
    EXPECT_EQ(parallel.drop_edges, single.drop_edges) << threads;
  }
  // Accepting decisions agree on the verdict (counters may differ — the
  // accept short-circuit is allowed to stop workers early).
  for (const char* name : {"animal", "hunter", "cat"}) {
    ProofSearchOptions options;
    options.num_threads = 4;
    EXPECT_TRUE(LinearProofSearch(s.program, s.db, s.Query(),
                                  {s.Const(name)}, options)
                    .accepted)
        << name;
  }
}

TEST(LinearSearchTest, ParallelSearchHonorsBudgets) {
  TestEnv s(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    e(a, b). e(b, c). e(c, a). e(c, d). e(d, e). e(e, a).
    ?(X) :- t(a, X).
  )");
  ProofSearchOptions options;
  options.num_threads = 4;
  options.max_states = 3;
  ProofSearchResult result =
      LinearProofSearch(s.program, s.db, s.Query(), {s.Const("zz")}, options);
  EXPECT_FALSE(result.accepted);
  EXPECT_TRUE(result.budget_exhausted);
  EXPECT_LE(result.states_expanded, 3u);
}

TEST(LinearSearchTest, ParallelEnumerationMatchesChase) {
  TestEnv s(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    e(a, b). e(b, c). e(c, a). e(c, d).
    ?(X, Y) :- t(X, Y).
  )");
  std::vector<std::vector<Term>> via_chase =
      CertainAnswersViaChase(s.program, s.db, s.Query());
  ProofSearchOptions options;
  options.num_threads = 4;
  EXPECT_EQ(via_chase, CertainAnswersViaSearch(s.program, s.db, s.Query(),
                                               /*use_alternating=*/false,
                                               options));
  options.subsumption = false;
  EXPECT_EQ(via_chase, CertainAnswersViaSearch(s.program, s.db, s.Query(),
                                               /*use_alternating=*/false,
                                               options));
}

TEST(LinearSearchTest, ExplanationSurvivesPruningAndThreads) {
  TestEnv s(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- e(X, Y), t(Y, Z).
    e(a, b). e(b, c). e(c, d).
    ?(X) :- t(a, X).
  )");
  for (uint32_t threads : {1u, 4u}) {
    ProofSearchOptions options;
    options.num_threads = threads;
    ProofExplanation explanation;
    ProofSearchResult result = LinearProofSearch(
        s.program, s.db, s.Query(), {s.Const("d")}, options, &explanation);
    ASSERT_TRUE(result.accepted) << threads;
    ASSERT_FALSE(explanation.empty()) << threads;
    EXPECT_EQ(explanation.steps.front().kind, ProofStep::Kind::kStart);
    EXPECT_TRUE(explanation.steps.back().state.empty());
  }
}

TEST(LinearSearchTest, FreezeQueryRejectsMalformedCandidates) {
  TestEnv s(R"(
    t(X, Y) :- e(X, Y).
    e(a, b).
    ?(X) :- t(X, X).
  )");
  EXPECT_FALSE(FreezeQuery(s.Query(), {}).has_value());             // arity
  EXPECT_FALSE(FreezeQuery(s.Query(), {Term::Null(0)}).has_value()); // null
  EXPECT_TRUE(FreezeQuery(s.Query(), {s.Const("a")}).has_value());
}

}  // namespace
}  // namespace vadalog
