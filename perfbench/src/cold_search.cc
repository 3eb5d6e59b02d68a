// cold_search: one-shot decisions as vadalog_cli makes them, on one
// thread with no cache shared between them. Each operation parses the
// program text, classifies it, loads the database, builds the search
// index and decides one candidate tuple with the engine kAuto picks,
// under one fixed state budget.
//
// Inputs per seed: kOwlInstances OWL 2 QL ontologies (piece-wise linear,
// so the linear search runs) and kTcInstances non-linear transitive-
// closure programs over random DAGs (warded, not piece-wise linear, so
// the alternating search runs). Each instance contributes kPositives
// candidates drawn uniformly from its certain answers and kNegatives
// drawn uniformly from the other tuples over its constants, without
// looking at whether their decision completes. Fixing the share of each
// kind keeps the latency quantiles inside one kind across seeds: the
// median and p90 fall among the ontology refutations. Every
// round also decides one fixed candidate whose linear search exhausts
// the budget (ind65/class8 over AddOntologyFacts(30, 6, 120, Rng(7919))):
// it is the one operation that fails, once per round.
//
// Oracles run in a forked child, so their memory never reaches this
// process's peak RSS: the chase and the alternating search decide every
// OWL candidate (the three engines must agree wherever they complete),
// and a breadth-first search decides every graph candidate.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <ctime>
#include <set>
#include <sstream>

#include "base/rng.h"
#include "layers.h"
#include "serve.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kOwlInstances = 18;
constexpr int kTcInstances = 6;
constexpr int kPositives = 1;
constexpr int kNegatives = 7;
constexpr uint32_t kClasses = 6, kProperties = 1, kIndividuals = 8;
constexpr uint32_t kNodes = 8, kEdges = 12;
constexpr uint64_t kMaxStates = 20000;

const char* const kOwlQuery = "?(X, Y) :- type(X, Y).\n";
const char* const kTcQuery = "?(X, Y) :- t(X, Y).\n";

struct Op {
  const std::string* text;
  Row candidate;
  bool expected = false;      // the oracle's verdict
  bool must_exhaust = false;  // the fixed budget-exhausting decision
};

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// Oracle work for the OWL instances, run in a child process: samples
/// positives from the chase, draws negatives, and decides every
/// candidate with the chase and the alternating search. One line per
/// candidate: "<instance> <ind> <class> <chase> <alt_done> <alt_accepts>".
void OwlOracleChild(uint64_t seed, const std::vector<std::string>& texts,
                    int out_fd) {
  std::ostringstream out;
  for (size_t i = 0; i < texts.size(); ++i) {
    std::vector<Row> answers = ChaseAnswers(texts[i], kOwlQuery);
    std::set<Row> certain(answers.begin(), answers.end());
    vadalog::Rng rng(SubSeed(seed, 300 + i));
    std::vector<Row> candidates;
    for (int k = 0; k < kPositives && !answers.empty(); ++k) {
      candidates.push_back(answers[rng.Below(answers.size())]);
    }
    std::vector<Row> non_answers;
    for (uint32_t a = 0; a < kIndividuals; ++a) {
      for (uint32_t c = 0; c < kClasses; ++c) {
        Row pair = {"ind" + std::to_string(a), "class" + std::to_string(c)};
        if (certain.count(pair) == 0) non_answers.push_back(pair);
      }
    }
    for (int k = 0; k < kNegatives && !non_answers.empty(); ++k) {
      candidates.push_back(non_answers[rng.Below(non_answers.size())]);
    }
    for (const Row& c : candidates) {
      Tracer off(false);
      DecisionOutcome alt = Decide(texts[i] + kOwlQuery, c,
                                   Engine::kAlternating, kMaxStates, &off,
                                   nullptr);
      out << i << " " << c[0] << " " << c[1] << " " << certain.count(c)
          << " " << (alt.ok && !alt.budget_exhausted) << " " << alt.accepted
          << "\n";
    }
  }
  std::string text = out.str();
  size_t written = 0;
  while (written < text.size()) {
    ssize_t n = ::write(out_fd, text.data() + written, text.size() - written);
    if (n <= 0) break;
    written += static_cast<size_t>(n);
  }
}

}  // namespace

Result RunColdSearch(const Args& args) {
  Checker checker;
  Tracer tracer(args.trace);
  Counters counters;
  Clock::time_point own_start = Clock::now();

  // Inputs. Texts carry their query, as a CLI program file would.
  std::vector<std::string> owl_texts, owl_programs, tc_programs;
  std::vector<std::vector<Edge>> tc_edges;
  for (int i = 0; i < kOwlInstances; ++i) {
    owl_texts.push_back(OwlText(SubSeed(args.seed, 100 + i), kClasses,
                                kProperties, kIndividuals));
    owl_programs.push_back(owl_texts.back() + kOwlQuery);
  }
  for (int i = 0; i < kTcInstances; ++i) {
    tc_edges.push_back(RandomDag(SubSeed(args.seed, 200 + i), kNodes, kEdges));
    tc_programs.push_back(TransitiveClosureText(tc_edges.back()) + kTcQuery);
  }
  const std::string fixed_text = OwlText(7919, 30, 6, 120) + kOwlQuery;

  // Oracles: the OWL ones in a child process, the graph ones here (a BFS
  // over a handful of nodes).
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    checker.Fail("pipe failed");
    return Result{false, 1, 0, {}};
  }
  pid_t child = ::fork();
  if (child == 0) {
    ::close(pipe_fds[0]);
    OwlOracleChild(args.seed, owl_texts, pipe_fds[1]);
    ::close(pipe_fds[1]);
    ::_exit(0);
  }
  ::close(pipe_fds[1]);
  std::string oracle_text;
  char chunk[4096];
  for (ssize_t n; (n = ::read(pipe_fds[0], chunk, sizeof(chunk))) > 0;) {
    oracle_text.append(chunk, static_cast<size_t>(n));
  }
  ::close(pipe_fds[0]);
  int status = 0;
  ::waitpid(child, &status, 0);
  checker.Expect(child > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0,
                 "oracle child failed");

  std::vector<Op> ops;
  std::istringstream oracle_lines(oracle_text);
  size_t instance = 0;
  std::string ind, cls;
  int chase = 0, alt_done = 0, alt_accepts = 0;
  while (oracle_lines >> instance >> ind >> cls >> chase >> alt_done >>
         alt_accepts) {
    if (alt_done != 0) {
      checker.Expect(alt_accepts == chase,
                     "alternating search and chase disagree on type(" + ind +
                         ", " + cls + ")");
    }
    ops.push_back(Op{&owl_programs[instance], {ind, cls}, chase != 0, false});
  }
  checker.Expect(ops.size() >= static_cast<size_t>(kOwlInstances * kNegatives),
                 "oracle child returned too few candidates");
  for (int i = 0; i < kTcInstances; ++i) {
    vadalog::Rng rng(SubSeed(args.seed, 400 + i));
    std::vector<Row> reachable, unreachable;
    for (uint32_t a = 0; a < kNodes; ++a) {
      std::set<uint32_t> reached = ReachableFrom(tc_edges[i], a);
      for (uint32_t b = 0; b < kNodes; ++b) {
        (reached.count(b) ? reachable : unreachable)
            .push_back({Node(a), Node(b)});
      }
    }
    std::vector<Row> candidates;
    for (int k = 0; k < kPositives && !reachable.empty(); ++k) {
      candidates.push_back(reachable[rng.Below(reachable.size())]);
    }
    for (int k = 0; k < kNegatives && !unreachable.empty(); ++k) {
      candidates.push_back(unreachable[rng.Below(unreachable.size())]);
    }
    for (const Row& c : candidates) {
      uint32_t a = static_cast<uint32_t>(std::stoul(c[0].substr(1)));
      uint32_t b = static_cast<uint32_t>(std::stoul(c[1].substr(1)));
      ops.push_back(
          Op{&tc_programs[i], c, ReachableFrom(tc_edges[i], a).count(b) > 0,
             false});
    }
  }
  ops.push_back(Op{&fixed_text, {"ind65", "class8"}, false, true});
  if (args.self_test == "flip" && !ops.empty()) {
    ops[0].expected = !ops[0].expected;
  }
  const double own_s = MsSince(own_start) / 1000.0;

  // One round: every operation once.
  uint64_t attempted = 0, failed = 0;
  std::vector<double> latencies;
  auto run_round = [&]() {
    for (const Op& op : ops) {
      Clock::time_point start = Clock::now();
      DecisionOutcome outcome = Decide(*op.text, op.candidate, Engine::kAuto,
                                       kMaxStates, &tracer, &counters);
      double ms = MsSince(start);
      ++attempted;
      std::string what = "decision " + op.candidate[0] + "," +
                         op.candidate[1];
      checker.Expect(outcome.ok, what + ": no engine served the program");
      checker.Expect(!outcome.malformed,
                     what + ": accepted and budget-exhausted at once");
      if (outcome.budget_exhausted) {
        // Exhausted is never a refutation: it is a failed operation.
        ++failed;
        checker.Expect(op.must_exhaust,
                       what + ": exhausted the budget on a seeded input");
        continue;
      }
      checker.Expect(!op.must_exhaust,
                     what + ": expected to exhaust the budget, completed");
      checker.Expect(outcome.accepted == op.expected,
                     what + ": verdict " + std::to_string(outcome.accepted) +
                         " but the oracle says " +
                         std::to_string(op.expected));
      latencies.push_back(ms);
    }
  };
  // The warm-up round: untraced, unrecorded.
  Tracer untraced(false);
  for (const Op& op : ops) {
    Decide(*op.text, op.candidate, Engine::kAuto, kMaxStates, &untraced,
           nullptr);
  }
  const double setup_s = SecondsSinceStart() - own_s;
  Clock::time_point timed_start = Clock::now();
  double cpu_start = CpuSeconds();
  do {
    run_round();
  } while (MsSince(timed_start) < args.seconds * 1000.0);
  const double wall_s = MsSince(timed_start) / 1000.0;
  const double cpu_s = CpuSeconds() - cpu_start;
  const double rss = PeakRssMib(::getpid());

  Result result;
  result.attempted = attempted;
  result.failed = failed;
  if (!args.trace) {
    result.metrics = {
        {"setup_s", setup_s, "s"},
        {"ops_per_s", static_cast<double>(attempted - failed) / wall_s,
         "op/s"},
        {"query_p50_ms", Quantile(latencies, 0.5), "ms"},
        {"query_p90_ms", Quantile(latencies, 0.9), "ms"},
        {"cpu_ms_per_op", cpu_s * 1000.0 / static_cast<double>(attempted),
         "ms"},
        {"peak_rss_mib", rss, "MiB"},
    };
  } else {
    // Layers the decisions do not reach, measured on the same inputs.
    for (const std::string& text : owl_programs) {
      ChaseProbe(text, &tracer, &counters);
    }
    for (const std::string& text : tc_programs) {
      ChaseProbe(text, &tracer, &counters);
      DatalogProbe(text, &tracer);
    }
    DaemonLayerProbe(args.vadalogd, owl_texts[0], "ind0",
                     TransitiveClosureText(tc_edges[0]), &tracer, &counters,
                     &checker);
    result.metrics = PerLayerMetrics(tracer, counters);
    tracer.WriteJson(args.out_dir + "/trace_cold_search.json");
  }
  result.correct = checker.ok();
  return result;
}

}  // namespace perfbench
