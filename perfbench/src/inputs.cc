#include "inputs.h"

#include <algorithm>
#include <deque>
#include <map>

#include "ast/parser.h"
#include "base/rng.h"
#include "engine/certain.h"
#include "gen/generators.h"
#include "vadalog/reasoner.h"

namespace perfbench {

std::string OwlText(uint64_t seed, uint32_t classes, uint32_t properties,
                    uint32_t individuals) {
  vadalog::Program program = vadalog::MakeOwl2QlProgram();
  vadalog::Rng rng(seed);
  vadalog::AddOntologyFacts(&program, classes, properties, individuals, &rng);
  return program.ToString();
}

std::vector<Edge> RandomDag(uint64_t seed, uint32_t nodes, uint32_t edges) {
  vadalog::Rng rng(seed);
  std::vector<Edge> out;
  for (uint32_t i = 0; i < edges; ++i) {
    uint32_t a = static_cast<uint32_t>(rng.Below(nodes));
    uint32_t b = static_cast<uint32_t>(rng.Below(nodes));
    if (a == b) continue;
    out.emplace_back(std::min(a, b), std::max(a, b));
  }
  return out;
}

std::vector<Edge> RandomDigraph(uint64_t seed, uint32_t nodes,
                                uint32_t edges) {
  vadalog::Rng rng(seed);
  std::vector<Edge> out;
  for (uint32_t i = 0; i < edges; ++i) {
    uint32_t a = static_cast<uint32_t>(rng.Below(nodes));
    uint32_t b = static_cast<uint32_t>(rng.Below(nodes));
    if (a != b) out.emplace_back(a, b);
  }
  return out;
}

namespace {

std::string EdgeFacts(const std::vector<Edge>& edges) {
  std::string text;
  for (const Edge& e : edges) {
    text += "e(" + Node(e.first) + ", " + Node(e.second) + ").\n";
  }
  return text;
}

}  // namespace

std::string TransitiveClosureText(const std::vector<Edge>& edges) {
  return vadalog::MakeTransitiveClosureProgram(false).ToString() +
         EdgeFacts(edges);
}

std::string NegationText(const std::vector<Edge>& edges) {
  return "t(X, Y) :- e(X, Y).\n"
         "t(X, Z) :- t(X, Y), e(Y, Z).\n"
         "node(X) :- e(X, Y).\n"
         "node(Y) :- e(X, Y).\n"
         "unreached(X, Y) :- node(X), node(Y), not t(X, Y).\n" +
         EdgeFacts(edges);
}

std::set<uint32_t> ReachableFrom(const std::vector<Edge>& edges,
                                 uint32_t source) {
  std::map<uint32_t, std::vector<uint32_t>> adjacent;
  for (const Edge& e : edges) adjacent[e.first].push_back(e.second);
  std::set<uint32_t> reached;
  std::deque<uint32_t> queue = {source};
  while (!queue.empty()) {
    uint32_t at = queue.front();
    queue.pop_front();
    for (uint32_t next : adjacent[at]) {
      if (reached.insert(next).second) queue.push_back(next);
    }
  }
  return reached;
}

std::set<uint32_t> GraphNodes(const std::vector<Edge>& edges) {
  std::set<uint32_t> nodes;
  for (const Edge& e : edges) {
    nodes.insert(e.first);
    nodes.insert(e.second);
  }
  return nodes;
}

std::vector<Row> ChaseAnswers(const std::string& program_text,
                              const std::string& query_text) {
  std::unique_ptr<vadalog::Reasoner> reasoner =
      vadalog::Reasoner::FromText(program_text + query_text);
  if (reasoner == nullptr || reasoner->program().queries().empty()) return {};
  std::vector<Row> rows;
  for (const auto& tuple : vadalog::CertainAnswersViaChase(
           reasoner->program(), reasoner->database(),
           reasoner->program().queries().back())) {
    Row row;
    for (vadalog::Term t : tuple) {
      row.push_back(reasoner->program().symbols().TermToString(t));
    }
    rows.push_back(std::move(row));
  }
  return Sorted(std::move(rows));
}

std::vector<Row> Sorted(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::string RowsToString(const std::vector<Row>& rows) {
  std::string out = "{";
  for (size_t i = 0; i < rows.size(); ++i) {
    out += i == 0 ? "(" : ", (";
    for (size_t j = 0; j < rows[i].size(); ++j) {
      out += (j == 0 ? "" : ",") + rows[i][j];
    }
    out += ")";
  }
  return out + "}";
}

}  // namespace perfbench
