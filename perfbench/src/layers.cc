#include "layers.h"

#include <optional>

#include "analysis/classify.h"
#include "analysis/wardedness.h"
#include "ast/parser.h"
#include "chase/chase.h"
#include "datalog/seminaive.h"
#include "engine/alternating_search.h"
#include "engine/linear_search.h"
#include "engine/search_cache.h"
#include "storage/instance.h"

namespace perfbench {

DecisionOutcome Decide(const std::string& text, const Row& candidate,
                       Engine engine, uint64_t max_states, Tracer* tracer,
                       Counters* counters) {
  DecisionOutcome outcome;
  ScopedSpan decision(tracer, "decision");
  std::optional<vadalog::Program> program;
  {
    ScopedSpan span(tracer, "ast.parse");
    vadalog::ParseResult parsed = vadalog::ParseProgram(text);
    if (!parsed.ok()) return outcome;
    program = std::move(*parsed.program);
    vadalog::NormalizeToSingleHead(&*program, nullptr);
  }
  if (program->queries().empty()) return outcome;
  vadalog::Instance database;
  {
    ScopedSpan span(tracer, "storage.load");
    database = vadalog::DatabaseFromFacts(program->facts());
  }
  vadalog::ProgramClassification classification;
  {
    ScopedSpan span(tracer, "analysis.classify");
    classification = vadalog::ClassifyProgram(*program);
    vadalog::WardednessReport wardedness = vadalog::CheckWardedness(*program);
    (void)wardedness;
  }
  if (engine == Engine::kAuto) {
    if (!classification.warded) return outcome;
    engine = classification.piecewise_linear ? Engine::kLinear
                                             : Engine::kAlternating;
  }
  std::vector<vadalog::Term> answer;
  for (const std::string& name : candidate) {
    answer.push_back(program->symbols().InternConstant(name));
  }
  const vadalog::ConjunctiveQuery& query = program->queries().back();
  std::optional<vadalog::ProofSearchCache> cache;
  {
    ScopedSpan span(tracer, "engine.index_build");
    cache.emplace(*program, database);
  }
  vadalog::ProofSearchOptions options;
  options.max_states = max_states;
  options.cache = &*cache;
  outcome.ok = true;
  if (engine == Engine::kLinear) {
    vadalog::ProofSearchResult result;
    {
      ScopedSpan span(tracer, "engine.linear.search");
      result = vadalog::LinearProofSearch(*program, database, query, answer,
                                          options);
    }
    outcome.linear = true;
    outcome.accepted = result.accepted;
    outcome.budget_exhausted = result.budget_exhausted;
    outcome.states = result.states_expanded;
    if (counters != nullptr) {
      counters->Add("engine.linear.states_expanded",
                    static_cast<double>(result.states_expanded));
      counters->Add("engine.linear.states_visited",
                    static_cast<double>(result.states_visited));
      counters->Add("engine.linear.subsumption_checks",
                    static_cast<double>(result.subsumption_checks));
      counters->Add("engine.linear.peak_state_bytes",
                    static_cast<double>(result.peak_state_bytes));
      counters->Add("engine.linear.visited_bytes",
                    static_cast<double>(result.visited_bytes));
    }
  } else {
    vadalog::AlternatingSearchResult result;
    {
      ScopedSpan span(tracer, "engine.alternating.search");
      result = vadalog::AlternatingProofSearch(*program, database, query,
                                               answer, options);
    }
    outcome.accepted = result.accepted;
    outcome.budget_exhausted = result.budget_exhausted;
    outcome.states = result.states_expanded;
    if (counters != nullptr) {
      counters->Add("engine.alternating.states_expanded",
                    static_cast<double>(result.states_expanded));
    }
  }
  outcome.malformed = outcome.accepted && outcome.budget_exhausted;
  return outcome;
}

void ChaseProbe(const std::string& text, Tracer* tracer, Counters* counters) {
  vadalog::ParseResult parsed = vadalog::ParseProgram(text);
  if (!parsed.ok()) return;
  vadalog::Program& program = *parsed.program;
  vadalog::NormalizeToSingleHead(&program, nullptr);
  vadalog::Instance database = vadalog::DatabaseFromFacts(program.facts());
  vadalog::ChaseResult chase;
  {
    ScopedSpan span(tracer, "chase.run");
    chase = vadalog::RunChase(program, database);
  }
  if (counters != nullptr) {
    counters->Add("chase.atoms", static_cast<double>(chase.instance.size()));
  }
}

void DatalogProbe(const std::string& text, Tracer* tracer) {
  vadalog::ParseResult parsed = vadalog::ParseProgram(text);
  if (!parsed.ok()) return;
  vadalog::Program& program = *parsed.program;
  vadalog::NormalizeToSingleHead(&program, nullptr);
  std::vector<vadalog::Tgd> full;
  for (vadalog::Tgd& tgd : program.tgds()) {
    if (tgd.IsDatalogRule()) full.push_back(std::move(tgd));
  }
  program.tgds() = std::move(full);
  vadalog::Instance database = vadalog::DatabaseFromFacts(program.facts());
  ScopedSpan span(tracer, "datalog.eval");
  vadalog::DatalogResult result = vadalog::EvaluateDatalog(program, database);
  (void)result;
}

}  // namespace perfbench
