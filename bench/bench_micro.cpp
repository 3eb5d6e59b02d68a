// Google-benchmark microbenchmarks for the engine primitives: term
// interning, homomorphism matching, state canonicalization, chunk
// resolution, and single chase rounds. These calibrate the constants
// behind the experiment harnesses.

#include <benchmark/benchmark.h>

#include "ast/parser.h"
#include "chase/chase.h"
#include "engine/resolution.h"
#include "engine/state.h"
#include "gen/generators.h"
#include "storage/homomorphism.h"

namespace vadalog {
namespace {

void BM_InternConstant(benchmark::State& state) {
  SymbolTable symbols;
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        symbols.InternConstant("constant" + std::to_string(i++ % 4096)));
  }
}
BENCHMARK(BM_InternConstant);

void BM_HomomorphismJoin(benchmark::State& state) {
  Program program;
  Rng rng(1);
  AddRandomGraphFacts(&program, "e", static_cast<uint32_t>(state.range(0)),
                      state.range(0) * 3, &rng);
  Instance db = DatabaseFromFacts(program.facts());
  PredicateId e = program.symbols().FindPredicate("e");
  std::vector<Atom> pattern = {
      Atom(e, {Term::Variable(0), Term::Variable(1)}),
      Atom(e, {Term::Variable(1), Term::Variable(2)})};
  for (auto _ : state) {
    size_t count = 0;
    ForEachHomomorphism(pattern, db, {}, [&count](const Substitution&) {
      ++count;
      return true;
    });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_HomomorphismJoin)->Arg(100)->Arg(1000);

void BM_Canonicalize(benchmark::State& state) {
  // A chain state of `range` atoms with fresh variables.
  std::vector<Atom> atoms;
  for (int64_t i = 0; i < state.range(0); ++i) {
    atoms.push_back(Atom(0, {Term::Variable(static_cast<uint64_t>(i)),
                             Term::Variable(static_cast<uint64_t>(i + 1))}));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Canonicalize(atoms));
  }
}
BENCHMARK(BM_Canonicalize)->Arg(4)->Arg(16);

void BM_CanonicalizeSymmetric(benchmark::State& state) {
  // `groups` tie groups of `size` interchangeable atoms p_g(c, X) plus a
  // link atom per group pair, so the encoder must search the (size!)^groups
  // orders of the tie groups for the lexicographically smallest encoding.
  const int64_t size = state.range(0);
  const int64_t groups = state.range(1);
  Term c = Term::Constant(7);
  std::vector<Atom> atoms;
  uint64_t var = 0;
  for (int64_t g = 0; g < groups; ++g) {
    uint64_t first = var;
    for (int64_t i = 0; i < size; ++i) {
      atoms.push_back(
          Atom(static_cast<PredicateId>(g), {c, Term::Variable(var++)}));
    }
    if (g > 0) {
      atoms.push_back(Atom(static_cast<PredicateId>(groups + g),
                           {Term::Variable(first - 1), Term::Variable(first)}));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Canonicalize(atoms));
  }
}
BENCHMARK(BM_CanonicalizeSymmetric)
    ->Args({3, 1})
    ->Args({3, 2})
    ->Args({4, 2})
    ->Args({6, 1});

void BM_HasHomomorphism(benchmark::State& state) {
  // The eager-simplification probe: does one 1–3-atom component of a
  // proof state map into an OWL 2 QL database?
  Program program = MakeOwl2QlProgram();
  Rng rng(7919);
  AddOntologyFacts(&program, 30, 6, 120, &rng);
  Instance db = DatabaseFromFacts(program.facts());
  SymbolTable& symbols = program.symbols();
  PredicateId type = symbols.FindPredicate("type");
  PredicateId subclass = symbols.FindPredicate("subclass");
  PredicateId restriction = symbols.FindPredicate("restriction");
  Term ind = symbols.InternConstant("ind65");
  std::vector<Atom> pattern = {
      Atom(type, {ind, Term::Variable(0)}),
      Atom(subclass, {Term::Variable(0), Term::Variable(1)}),
      Atom(restriction, {Term::Variable(1), Term::Variable(2)})};
  pattern.resize(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(HasHomomorphism(pattern, db));
  }
}
BENCHMARK(BM_HasHomomorphism)->Arg(1)->Arg(2)->Arg(3);

void BM_ChunkResolution(benchmark::State& state) {
  ParseResult parsed = ParseProgram(R"(
    t(X, Z) :- e(X, Y), t(Y, Z).
    t(X, Y) :- e(X, Y).
  )");
  Program program = std::move(*parsed.program);
  PredicateId t = program.symbols().FindPredicate("t");
  std::vector<Atom> proof_state = {
      Atom(t, {Term::Variable(0), Term::Variable(1)}),
      Atom(t, {Term::Variable(1), Term::Variable(2)})};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ResolveAll(proof_state, program, 100, 4));
  }
}
BENCHMARK(BM_ChunkResolution);

void BM_ChaseTransitiveClosure(benchmark::State& state) {
  Program program = MakeTransitiveClosureProgram(/*linear=*/true);
  Rng rng(7);
  AddRandomGraphFacts(&program, "e", static_cast<uint32_t>(state.range(0)),
                      state.range(0) * 2, &rng);
  Instance db = DatabaseFromFacts(program.facts());
  for (auto _ : state) {
    ChaseResult result = RunChase(program, db);
    benchmark::DoNotOptimize(result.instance.size());
  }
}
BENCHMARK(BM_ChaseTransitiveClosure)->Arg(50)->Arg(150);

}  // namespace
}  // namespace vadalog

BENCHMARK_MAIN();
