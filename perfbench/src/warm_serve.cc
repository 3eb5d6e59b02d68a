// warm_serve: a closed loop over warm vadalogd sessions on two loopback
// connections, one negotiating v1 JSON and one v2 binary (VDF2) answer
// frames. The daemon runs two workers, so connections plus workers
// equal four cores.
//
// Sessions per seed (kSessions of each kind): a generated OWL 2 QL
// ontology without property restrictions, a subclass forest over typed
// individuals (QUERY engine=linear, QUERY engine=auto, EXPLAIN; with
// restrictions, a cold linear sweep ran from milliseconds to minutes
// with the draw, so it is cold_search that carries them), a non-linear
// transitive closure over a random DAG (QUERY engine=alternating) and a
// stratified-negation Datalog program over a random digraph (QUERY
// engine=auto, which the daemon serves with the semi-naive evaluator).
// One cycle sends every (session, query kind, parameter) once in a
// fixed order; each connection runs whole cycles, the second starting
// half a cycle in.
//
// Checks: graph answers against the breadth-first search of inputs.cc;
// ontology answers of the linear search and of the chase against an
// in-process chase of the same text, and every EXPLAIN of a certain
// answer must come back certain; the METRICS delta of
// vadalog_session_queries_total must equal the QUERYs sent; traced
// requests must report total_us within the client round trip.

#include <atomic>
#include <barrier>
#include <thread>

#include "layers.h"
#include "serve.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSessions = 8;
constexpr int kParams = 2;
constexpr int kWorkers = 2;
constexpr uint32_t kClasses = 3, kIndividuals = 3;
constexpr uint32_t kDagNodes = 10, kDagEdges = 15;
constexpr uint32_t kNegNodes = 24, kNegEdges = 36;

struct Request {
  std::string line;
  bool is_query = true;       // QUERY (counted by the daemon) or EXPLAIN
  uint64_t sweep_domain = 0;  // > 0: a proof-search enumeration
  std::vector<Row> expected;  // QUERY: the oracle's rows
};

struct Sample {
  const Request* request;
  Reply reply;
};

}  // namespace

Result RunWarmServe(const Args& args) {
  Checker checker;
  Tracer tracer(args.trace);
  Counters counters;
  Clock::time_point own_start = Clock::now();

  // Sessions and the cycle, with every expected answer computed up front.
  std::vector<std::pair<std::string, std::string>> sessions;  // name, text
  std::vector<Request> cycle;
  std::vector<std::string> owl_texts, tc_texts, neg_texts;
  for (int j = 0; j < kSessions; ++j) {
    owl_texts.push_back(OwlText(SubSeed(args.seed, 500 + j), kClasses,
                                /*properties=*/0, kIndividuals));
    std::vector<Edge> dag = RandomDag(SubSeed(args.seed, 600 + j), kDagNodes,
                                      kDagEdges);
    tc_texts.push_back(TransitiveClosureText(dag));
    std::vector<Edge> graph = RandomDigraph(SubSeed(args.seed, 700 + j),
                                            kNegNodes, kNegEdges);
    neg_texts.push_back(NegationText(graph));
    std::string owl = "owl" + std::to_string(j);
    std::string tc = "tc" + std::to_string(j);
    std::string neg = "neg" + std::to_string(j);
    sessions.push_back({owl, owl_texts.back()});
    sessions.push_back({tc, tc_texts.back()});
    sessions.push_back({neg, neg_texts.back()});
    const uint64_t owl_domain = DomainSize(owl_texts.back());
    const uint64_t tc_domain = DomainSize(tc_texts.back());
    std::set<uint32_t> nodes = GraphNodes(graph);
    std::vector<uint32_t> sources(nodes.begin(), nodes.end());
    for (int p = 0; p < kParams; ++p) {
      std::string ind = "ind" + std::to_string(p);
      std::string owl_query = "?(X) :- type(" + ind + ", X).";
      std::vector<Row> owl_rows = ChaseAnswers(owl_texts.back(), owl_query);
      cycle.push_back({QueryLine(owl, owl_query, "linear", args.trace), true,
                       owl_domain, owl_rows});
      cycle.push_back({QueryLine(owl, owl_query, "auto", args.trace), true, 0,
                       owl_rows});
      Row explained = {owl_rows.empty() ? "class0" : owl_rows.back()[0]};
      cycle.push_back({ExplainLine(owl, owl_query, explained, args.trace),
                       false, 0, {}});

      std::vector<Row> tc_rows;
      for (uint32_t b : ReachableFrom(dag, static_cast<uint32_t>(p))) {
        tc_rows.push_back({Node(b)});
      }
      cycle.push_back({QueryLine(tc, "?(X) :- t(" + Node(p) + ", X).",
                                 "alternating", args.trace),
                       true, tc_domain, Sorted(tc_rows)});

      uint32_t source = sources[static_cast<size_t>(p) % sources.size()];
      std::set<uint32_t> reached = ReachableFrom(graph, source);
      std::vector<Row> neg_rows;
      for (uint32_t n : nodes) {
        if (reached.count(n) == 0) neg_rows.push_back({Node(n)});
      }
      cycle.push_back(
          {QueryLine(neg, "?(Y) :- unreached(" + Node(source) + ", Y).",
                     "auto", args.trace),
           true, 0, Sorted(neg_rows)});
    }
  }
  if (args.self_test == "drop") {
    for (Request& request : cycle) {
      if (request.is_query && !request.expected.empty()) {
        request.expected.pop_back();
        break;
      }
    }
  }
  const double own_s = MsSince(own_start) / 1000.0;

  Daemon daemon;
  std::string error;
  if (!daemon.Start(args.vadalogd, kWorkers, &error)) {
    checker.Fail(error);
    return Result{false, 1, 0, {}};
  }
  Connection connections[2];
  for (int c = 0; c < 2; ++c) {
    if (!connections[c].Connect(daemon.port())) {
      checker.Fail("connect failed");
      return Result{false, 1, 0, {}};
    }
    Reply hello = connections[c].Call(HelloLine(c == 1));
    checker.Expect(hello.ok() && hello.body.GetString("encoding") ==
                                     (c == 1 ? "binary" : "json"),
                   "HELLO did not negotiate the expected encoding");
  }
  for (const auto& [name, text] : sessions) {
    checker.Expect(connections[0].Call(LoadLine(name, text, false)).ok(),
                   "LOAD_PROGRAM " + name + " failed");
  }

  // Each connection's closed loop: one warm-up cycle, then whole timed
  // cycles until the run's seconds are spent. The barrier's completion
  // step takes the pre-timing snapshot while both loops wait.
  std::vector<std::vector<Sample>> samples(2);
  std::vector<uint64_t> queries_sent(2, 0);
  std::atomic<bool> stop{false};
  Clock::time_point timed_start;
  double setup_s = 0, cpu_start = 0, queries_before = 0;
  auto snapshot = [&]() noexcept {
    Reply before = connections[0].Call(R"({"cmd":"METRICS"})");
    queries_before = MetricSum(before.body, "vadalog_session_queries_total");
    setup_s = SecondsSinceStart() - own_s;
    cpu_start = ProcessCpuSeconds(daemon.pid());
    timed_start = Clock::now();
  };
  std::barrier sync(2, snapshot);
  auto loop = [&](int c) {
    const size_t offset = c == 0 ? 0 : cycle.size() / 2;
    for (size_t i = 0; i < cycle.size(); ++i) {
      connections[c].Call(cycle[(i + offset) % cycle.size()].line);
    }
    sync.arrive_and_wait();
    do {
      for (size_t i = 0; i < cycle.size(); ++i) {
        const Request& request = cycle[(i + offset) % cycle.size()];
        samples[c].push_back({&request, connections[c].Call(request.line)});
        queries_sent[c] += request.is_query ? 1 : 0;
      }
      if (MsSince(timed_start) >= args.seconds * 1000.0) stop = true;
    } while (!stop);
  };
  std::thread second([&] { loop(1); });
  loop(0);
  second.join();
  const double wall_s = MsSince(timed_start) / 1000.0;
  const double cpu_s = ProcessCpuSeconds(daemon.pid()) - cpu_start;
  const double rss = PeakRssMib(daemon.pid());
  Reply after = connections[0].Call(R"({"cmd":"METRICS"})");
  const double queries_delta =
      MetricSum(after.body, "vadalog_session_queries_total") - queries_before;
  checker.Expect(
      queries_delta == static_cast<double>(queries_sent[0] + queries_sent[1]),
      "METRICS counted " + std::to_string(queries_delta) +
          " QUERYs, the client sent " +
          std::to_string(queries_sent[0] + queries_sent[1]));

  // Checks and figures over every timed reply.
  std::vector<double> latencies;
  uint64_t attempted = 0, failed = 0;
  for (const std::vector<Sample>& list : samples) {
    for (const Sample& sample : list) {
      ++attempted;
      const Reply& reply = sample.reply;
      const Request& request = *sample.request;
      if (!reply.ok()) {
        checker.Fail("request failed: " + request.line.substr(0, 120) +
                     " " + reply.error);
        ++failed;
        continue;
      }
      latencies.push_back(reply.rtt_us / 1000.0);
      if (request.is_query) {
        checker.Expect(reply.has_rows && reply.rows == request.expected,
                       "answers " + RowsToString(reply.rows) + " != " +
                           RowsToString(request.expected) + " for " +
                           request.line.substr(0, 120));
        checker.Expect(reply.body.GetBool("complete", true),
                       "unbudgeted query reported incomplete");
      } else {
        checker.Expect(reply.body.GetBool("certain") &&
                           !reply.body.GetString("proof").empty(),
                       "EXPLAIN of a certain answer found no proof");
      }
      if (args.trace) {
        int span = tracer.AddMeasured("client.request", -1, reply.rtt_us);
        RecordServerSpans(reply, span, &tracer, &counters, &checker);
        if (request.sweep_domain > 0) {
          RecordSweep(request.sweep_domain, reply.rows.size(), &counters);
        }
      }
    }
  }

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
    RecordCacheFigures(&connections[0], &counters, &checker);
    RecordPings(&connections[0], 200, &counters, &checker);
    Reply added = connections[0].Call(
        AddFactsLine("owl0", "type(extra0, class0)."));
    checker.Expect(added.ok(), "ADD_FACTS failed");
    counters.Add("engine.cache.invalidated_entries",
                 static_cast<double>(
                     added.body.GetUint("cache_entries_invalidated")));
    // The in-process layers, on the sessions' own programs.
    for (int j = 0; j < kSessions; ++j) {
      const std::string owl = owl_texts[j] + "?(X) :- type(ind0, X).\n";
      Decide(owl, {"class0"}, Engine::kLinear, 0, &tracer, &counters);
      Decide(owl, {"class0"}, Engine::kAlternating, 0, &tracer, &counters);
      Decide(tc_texts[j] + "?(X) :- t(v0, X).\n", {Node(kDagNodes - 1)},
             Engine::kAlternating, 0, &tracer, &counters);
      ChaseProbe(owl_texts[j], &tracer, &counters);
      DatalogProbe(neg_texts[j], &tracer);
    }
    result.metrics = PerLayerMetrics(tracer, counters);
    tracer.WriteJson(args.out_dir + "/trace_warm_serve.json");
  }
  daemon.Stop();
  result.correct = checker.ok();
  return result;
}

}  // namespace perfbench
