// Calls into the reasoner's layers through their public functions, each
// wrapped in a span of the tracer: the one-shot decision that
// vadalog_cli makes (parse, classify, load, index, search), the chase
// and the Datalog evaluator.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>

#include "common.h"
#include "inputs.h"

namespace perfbench {

enum class Engine { kAuto, kLinear, kAlternating };

struct DecisionOutcome {
  bool ok = false;          // the program parsed and an engine could serve it
  bool linear = false;      // which search ran
  bool accepted = false;
  bool budget_exhausted = false;
  bool malformed = false;   // accepted and exhausted at once
  uint64_t states = 0;      // states expanded
};

/// Decides one candidate tuple against the program's last query, from
/// the program text, exactly as a one-shot CLI run does: ParseProgram,
/// NormalizeToSingleHead, DatabaseFromFacts, ClassifyProgram +
/// CheckWardedness, the ProofSearchCache build, then the search kAuto
/// picks (or the one `engine` forces), under `max_states`.
DecisionOutcome Decide(const std::string& text, const Row& candidate,
                       Engine engine, uint64_t max_states, Tracer* tracer,
                       Counters* counters);

/// Runs the chase over the program (span chase.run; counts chase.atoms).
void ChaseProbe(const std::string& text, Tracer* tracer, Counters* counters);

/// Runs the Datalog evaluator over the program's full TGDs (span
/// datalog.eval). Rules with existential variables are left out, so an
/// ontology's Datalog part can be evaluated too.
void DatalogProbe(const std::string& text, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
