#include "serve.h"

#include <memory>

#include "vadalog/reasoner.h"

namespace perfbench {

std::string HelloLine(bool binary) {
  return binary ? R"({"cmd":"HELLO","max_version":2,"encodings":["binary"]})"
                : R"({"cmd":"HELLO","max_version":1})";
}

std::string LoadLine(const std::string& session, const std::string& program,
                     bool replace) {
  return "{\"cmd\":\"LOAD_PROGRAM\",\"session\":" + Quote(session) +
         ",\"program\":" + Quote(program) +
         (replace ? ",\"replace\":true}" : "}");
}

std::string QueryLine(const std::string& session, const std::string& query,
                      const std::string& engine, bool trace) {
  return "{\"cmd\":\"QUERY\",\"session\":" + Quote(session) +
         ",\"query\":" + Quote(query) + ",\"engine\":" + Quote(engine) +
         (trace ? ",\"trace\":true}" : "}");
}

std::string ExplainLine(const std::string& session, const std::string& query,
                        const Row& answer, bool trace) {
  std::string cells;
  for (const std::string& cell : answer) {
    cells += (cells.empty() ? "" : ",") + Quote(cell);
  }
  return "{\"cmd\":\"EXPLAIN\",\"session\":" + Quote(session) +
         ",\"query\":" + Quote(query) + ",\"answer\":[" + cells + "]" +
         (trace ? ",\"trace\":true}" : "}");
}

std::string AddFactsLine(const std::string& session,
                         const std::string& facts) {
  return "{\"cmd\":\"ADD_FACTS\",\"session\":" + Quote(session) +
         ",\"facts\":" + Quote(facts) + "}";
}

void RecordServerSpans(const Reply& reply, int request_span, Tracer* tracer,
                       Counters* counters, Checker* checker) {
  const vadalog::JsonValue* trace = reply.body.Find("trace");
  if (trace == nullptr) {
    checker->Fail("traced request came back without a trace");
    return;
  }
  auto span = [&](const char* key) {
    return static_cast<double>(trace->GetUint(key));
  };
  double total = span("total_us");
  // The daemon reports whole microseconds; its total may round up past a
  // client round trip by less than one.
  checker->Expect(total <= reply.rtt_us + 1.0,
                  "server total_us " + std::to_string(total) +
                      " exceeds the client round trip " +
                      std::to_string(reply.rtt_us) + " us");
  counters->Add("server.queue_wait_us", span("queue_wait_us"));
  counters->Add("server.lock_wait_us", span("lock_wait_us"));
  counters->Add("server.search_us", span("search_us"));
  counters->Add("server.encode_us", span("encode_us"));
  counters->Add("server.total_us", total);
  counters->Add("server.transport_us", reply.rtt_us - total);
  tracer->AddMeasured("server.queue_wait", request_span,
                      span("queue_wait_us"));
  int total_span = tracer->AddMeasured("server.total", request_span, total);
  tracer->AddMeasured("server.parse", total_span, span("parse_us"));
  tracer->AddMeasured("server.lock_wait", total_span, span("lock_wait_us"));
  tracer->AddMeasured("server.search", total_span, span("search_us"));
  tracer->AddMeasured("server.encode", total_span, span("encode_us"));
}

void RecordSweep(uint64_t candidates, size_t answers, Counters* counters) {
  counters->Add("engine.sweep.candidates", static_cast<double>(candidates));
  counters->Add("engine.sweep.answers", static_cast<double>(answers));
}

void RecordCacheFigures(Connection* connection, Counters* counters,
                        Checker* checker) {
  Reply metrics = connection->Call(R"({"cmd":"METRICS"})");
  Reply stats = connection->Call(R"({"cmd":"STATS"})");
  if (!metrics.ok() || !stats.ok()) {
    checker->Fail("METRICS/STATS failed");
    return;
  }
  counters->Add("engine.cache.hits",
                MetricSum(metrics.body, "vadalog_session_cache_probe_hits"));
  counters->Add("engine.cache.lookups",
                MetricSum(metrics.body, "vadalog_session_cache_lookups"));
  double bytes = 0;
  if (const vadalog::JsonValue* sessions = stats.body.Find("sessions")) {
    for (const vadalog::JsonValue& session : sessions->Items()) {
      bytes += static_cast<double>(session.GetUint("cache_bytes"));
    }
  }
  counters->Add("engine.cache.bytes", bytes);
}

void RecordPings(Connection* connection, int count, Counters* counters,
                 Checker* checker) {
  for (int i = 0; i < count; ++i) {
    Reply pong = connection->Call(R"({"cmd":"PING"})");
    if (!pong.ok() || !pong.body.GetBool("pong")) {
      checker->Fail("PING failed");
      return;
    }
    counters->Add("server.ping_rtt_us", pong.rtt_us);
  }
}

uint64_t DomainSize(const std::string& program_text) {
  std::unique_ptr<vadalog::Reasoner> reasoner =
      vadalog::Reasoner::FromText(program_text);
  if (reasoner == nullptr) return 0;
  uint64_t constants = 0;
  for (vadalog::Term t : reasoner->database().ActiveDomain()) {
    constants += t.is_constant() ? 1 : 0;
  }
  return constants;
}

std::vector<Metric> PerLayerMetrics(const Tracer& tracer,
                                    const Counters& counters) {
  auto mean_ms = [&](const char* layer) {
    uint64_t spans = tracer.Count(layer);
    return spans == 0 ? 0.0 : tracer.SelfMs(layer) / static_cast<double>(spans);
  };
  auto ratio = [&](const char* part, const char* whole) {
    auto p = counters.sums.find(part);
    auto w = counters.sums.find(whole);
    if (p == counters.sums.end() || w == counters.sums.end() ||
        w->second == 0) {
      return 0.0;
    }
    return p->second / w->second;
  };
  return {
      {"ast.parse_ms", mean_ms("ast.parse"), "ms"},
      {"analysis.classify_ms", mean_ms("analysis.classify"), "ms"},
      {"storage.load_ms", mean_ms("storage.load"), "ms"},
      {"engine.index_build_ms", mean_ms("engine.index_build"), "ms"},
      {"engine.linear.search_ms", mean_ms("engine.linear.search"), "ms"},
      {"engine.linear.states_expanded",
       counters.Mean("engine.linear.states_expanded"), "count"},
      {"engine.linear.states_visited",
       counters.Mean("engine.linear.states_visited"), "count"},
      {"engine.linear.subsumption_checks",
       counters.Mean("engine.linear.subsumption_checks"), "count"},
      {"engine.linear.peak_state_bytes",
       counters.Mean("engine.linear.peak_state_bytes"), "bytes"},
      {"engine.linear.visited_bytes",
       counters.Mean("engine.linear.visited_bytes"), "bytes"},
      {"engine.alternating.search_ms", mean_ms("engine.alternating.search"),
       "ms"},
      {"engine.alternating.states_expanded",
       counters.Mean("engine.alternating.states_expanded"), "count"},
      {"engine.sweep.candidates", counters.Mean("engine.sweep.candidates"),
       "count"},
      {"engine.sweep.answer_ratio",
       ratio("engine.sweep.answers", "engine.sweep.candidates"), "ratio"},
      {"engine.cache.hit_ratio",
       ratio("engine.cache.hits", "engine.cache.lookups"), "ratio"},
      {"engine.cache.lookups", counters.Mean("engine.cache.lookups"),
       "count"},
      {"engine.cache.bytes", counters.Mean("engine.cache.bytes"), "bytes"},
      {"engine.cache.invalidated_entries",
       counters.Mean("engine.cache.invalidated_entries"), "count"},
      {"chase.run_ms", mean_ms("chase.run"), "ms"},
      {"chase.atoms", counters.Mean("chase.atoms"), "count"},
      {"datalog.eval_ms", mean_ms("datalog.eval"), "ms"},
      {"server.queue_wait_us", counters.Mean("server.queue_wait_us"), "us"},
      {"server.lock_wait_us", counters.Mean("server.lock_wait_us"), "us"},
      {"server.search_us", counters.Mean("server.search_us"), "us"},
      {"server.encode_us", counters.Mean("server.encode_us"), "us"},
      {"server.total_us", counters.Mean("server.total_us"), "us"},
      {"server.transport_us", counters.Mean("server.transport_us"), "us"},
      {"server.ping_rtt_us", counters.Mean("server.ping_rtt_us"), "us"},
  };
}

void DaemonLayerProbe(const std::string& vadalogd, const std::string& owl,
                      const std::string& owl_individual,
                      const std::string& tc, Tracer* tracer,
                      Counters* counters, Checker* checker) {
  Daemon daemon;
  std::string error;
  if (!daemon.Start(vadalogd, 2, &error)) {
    checker->Fail("daemon probe: " + error);
    return;
  }
  Connection connection;
  if (!connection.Connect(daemon.port()) ||
      !connection.Call(LoadLine("owl", owl, false)).ok() ||
      !connection.Call(LoadLine("tc", tc, false)).ok()) {
    checker->Fail("daemon probe: could not load the probe sessions");
    return;
  }
  const std::string owl_query = "?(X) :- type(" + owl_individual + ", X).";
  const std::string tc_query = "?(X) :- t(v0, X).";
  std::vector<Row> owl_answers = ChaseAnswers(owl, owl_query);
  const uint64_t owl_domain = DomainSize(owl);
  const uint64_t tc_domain = DomainSize(tc);
  for (int rep = 0; rep < 3; ++rep) {
    struct Probe {
      std::string line;
      uint64_t domain;  // > 0 for proof-search sweeps
    };
    std::vector<Probe> probes = {
        {QueryLine("owl", owl_query, "linear", true), owl_domain},
        {QueryLine("owl", owl_query, "auto", true), 0},
        {QueryLine("tc", tc_query, "alternating", true), tc_domain},
        {QueryLine("tc", tc_query, "auto", true), 0},
    };
    if (!owl_answers.empty()) {
      probes.push_back({ExplainLine("owl", owl_query, owl_answers[0], true), 0});
    }
    for (const Probe& probe : probes) {
      ScopedSpan request(tracer, "client.request");
      Reply reply = connection.Call(probe.line);
      if (!reply.ok()) {
        checker->Fail("daemon probe request failed: " + probe.line);
        continue;
      }
      RecordServerSpans(reply, request.id(), tracer, counters, checker);
      if (probe.domain > 0) RecordSweep(probe.domain, reply.rows.size(), counters);
    }
  }
  Reply added = connection.Call(
      AddFactsLine("owl", "type(" + owl_individual + ", class0)."));
  if (!added.ok()) {
    checker->Fail("daemon probe: ADD_FACTS failed");
  } else {
    counters->Add("engine.cache.invalidated_entries",
                  static_cast<double>(
                      added.body.GetUint("cache_entries_invalidated")));
  }
  RecordCacheFigures(&connection, counters, checker);
  RecordPings(&connection, 50, counters, checker);
}

}  // namespace perfbench
