#include "analysis/fragments.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace vadalog {

size_t RecursiveBodyAtomCount(const Tgd& tgd, const PredicateGraph& graph) {
  size_t count = 0;
  for (const Atom& body : tgd.body) {
    bool recursive = false;
    for (const Atom& head : tgd.head) {
      if (graph.MutuallyRecursive(body.predicate, head.predicate)) {
        recursive = true;
        break;
      }
    }
    if (recursive) ++count;
  }
  return count;
}

bool IsPiecewiseLinear(const Program& program, const PredicateGraph& graph) {
  for (const Tgd& tgd : program.tgds()) {
    if (RecursiveBodyAtomCount(tgd, graph) > 1) return false;
  }
  return true;
}

bool IsPiecewiseLinear(const Program& program) {
  PredicateGraph graph(program);
  return IsPiecewiseLinear(program, graph);
}

bool IsIntensionallyLinear(const Program& program) {
  std::unordered_set<PredicateId> idb = program.IntensionalPredicates();
  for (const Tgd& tgd : program.tgds()) {
    size_t intensional = 0;
    for (const Atom& body : tgd.body) {
      if (idb.count(body.predicate) > 0) ++intensional;
    }
    if (intensional > 1) return false;
  }
  return true;
}

bool IsDatalog(const Program& program) {
  return std::all_of(program.tgds().begin(), program.tgds().end(),
                     [](const Tgd& tgd) { return tgd.IsDatalogRule(); });
}

bool IsLinearDatalog(const Program& program) {
  return IsDatalog(program) && IsIntensionallyLinear(program);
}

bool IsLinearTgds(const Program& program) {
  return std::all_of(program.tgds().begin(), program.tgds().end(),
                     [](const Tgd& tgd) { return tgd.body.size() == 1; });
}

bool IsGuarded(const Program& program) {
  for (const Tgd& tgd : program.tgds()) {
    std::unordered_set<Term> body_vars = VariablesOf(tgd.body);
    bool has_guard = false;
    for (const Atom& candidate : tgd.body) {
      std::unordered_set<Term> guard_vars;
      for (Term t : candidate.args) {
        if (t.is_variable()) guard_vars.insert(t);
      }
      if (guard_vars.size() == body_vars.size()) {
        has_guard = true;
        break;
      }
    }
    if (!has_guard) return false;
  }
  return true;
}

bool IsSticky(const Program& program) {
  const std::vector<Tgd>& tgds = program.tgds();
  // marked[r] = variables marked in the body of rule r.
  std::vector<std::unordered_set<Term>> marked(tgds.size());

  // Base step: body variables that do not occur in the head.
  for (size_t r = 0; r < tgds.size(); ++r) {
    std::unordered_set<Term> head_vars = VariablesOf(tgds[r].head);
    for (Term v : VariablesOf(tgds[r].body)) {
      if (head_vars.count(v) == 0) marked[r].insert(v);
    }
  }

  // Propagation to a fixpoint: a position R[i] is marked if some rule has
  // a marked variable at body position R[i]; any head variable sitting at
  // a marked position becomes marked in its own body.
  bool changed = true;
  while (changed) {
    changed = false;
    std::unordered_set<uint64_t> marked_positions;
    for (size_t r = 0; r < tgds.size(); ++r) {
      for (const Atom& body : tgds[r].body) {
        for (size_t i = 0; i < body.args.size(); ++i) {
          if (body.args[i].is_variable() &&
              marked[r].count(body.args[i]) > 0) {
            marked_positions.insert(
                (static_cast<uint64_t>(body.predicate) << 16) | i);
          }
        }
      }
    }
    for (size_t r = 0; r < tgds.size(); ++r) {
      std::unordered_set<Term> body_vars = VariablesOf(tgds[r].body);
      for (const Atom& head : tgds[r].head) {
        for (size_t i = 0; i < head.args.size(); ++i) {
          Term v = head.args[i];
          if (!v.is_variable() || body_vars.count(v) == 0) continue;
          uint64_t position =
              (static_cast<uint64_t>(head.predicate) << 16) | i;
          if (marked_positions.count(position) > 0 &&
              marked[r].insert(v).second) {
            changed = true;
          }
        }
      }
    }
  }

  // Sticky iff no marked variable occurs more than once in its body.
  for (size_t r = 0; r < tgds.size(); ++r) {
    std::unordered_map<Term, int> occurrences;
    for (const Atom& body : tgds[r].body) {
      for (Term t : body.args) {
        if (t.is_variable()) ++occurrences[t];
      }
    }
    for (Term v : marked[r]) {
      auto it = occurrences.find(v);
      if (it != occurrences.end() && it->second > 1) return false;
    }
  }
  return true;
}

size_t NodeWidthBoundPwl(size_t query_atoms, const Program& program,
                         const PredicateGraph& graph) {
  return NodeWidthBoundPwl(query_atoms, graph.MaxLevel(),
                           program.MaxBodySize());
}

size_t NodeWidthBoundPwl(size_t query_atoms, uint32_t max_level,
                         size_t max_body) {
  return (query_atoms + 1) * std::max<size_t>(1, max_level) *
         std::max<size_t>(1, max_body);
}

size_t NodeWidthBoundWarded(size_t query_atoms, const Program& program) {
  size_t max_body = std::max<size_t>(1, program.MaxBodySize());
  return 2 * std::max(query_atoms, max_body);
}

}  // namespace vadalog
