// Seeded inputs for the workloads and the benchmark's own oracles.
//
// Every program is rendered to surface syntax, because that is what a
// user hands the CLI or the daemon. The oracles never read the answer
// path under test: reachability is a breadth-first search written here,
// and OWL 2 QL verdicts are compared across the three engines.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Edge = std::pair<uint32_t, uint32_t>;
using Row = std::vector<std::string>;

/// An OWL 2 QL ontology: the Example 3.3 rules (MakeOwl2QlProgram) over
/// AddOntologyFacts(classes, properties, individuals), without a query.
std::string OwlText(uint64_t seed, uint32_t classes, uint32_t properties,
                    uint32_t individuals);

/// Random DAG over v0..v{nodes-1}: `edges` draws of an ordered pair,
/// self-pairs skipped, every edge pointing from the lower to the higher
/// index. Duplicates are kept (the database deduplicates).
std::vector<Edge> RandomDag(uint64_t seed, uint32_t nodes, uint32_t edges);
/// Random directed graph (cycles allowed, self-loops skipped).
std::vector<Edge> RandomDigraph(uint64_t seed, uint32_t nodes,
                                uint32_t edges);

/// The non-linear transitive-closure program
/// (MakeTransitiveClosureProgram(false)) over e(vI, vJ) facts.
std::string TransitiveClosureText(const std::vector<Edge>& edges);

/// Stratified negation over a graph: t = transitive closure of e, and
/// unreached(X, Y) for every pair of graph nodes with no path X -> Y.
std::string NegationText(const std::vector<Edge>& edges);

/// Nodes reachable from `source` in one or more steps.
std::set<uint32_t> ReachableFrom(const std::vector<Edge>& edges,
                                 uint32_t source);
/// Nodes that occur in some edge.
std::set<uint32_t> GraphNodes(const std::vector<Edge>& edges);

inline std::string Node(uint32_t i) {
  std::string name = "v";
  return name.append(std::to_string(i));
}

/// Certain answers of `query_text` over `program_text` via the chase
/// (Proposition 2.1), rendered and sorted.
std::vector<Row> ChaseAnswers(const std::string& program_text,
                              const std::string& query_text);

/// Sorts rows so answer sets compare independently of server order.
std::vector<Row> Sorted(std::vector<Row> rows);
std::string RowsToString(const std::vector<Row>& rows);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
