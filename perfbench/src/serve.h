// Pieces shared by the daemon workloads: request lines, the daemon-side
// trace spans, cache figures from METRICS and STATS, and the per-layer
// metric table every traced run prints.

#ifndef PERFBENCH_SERVE_H_
#define PERFBENCH_SERVE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "client.h"
#include "common.h"

namespace perfbench {

std::string HelloLine(bool binary);
std::string LoadLine(const std::string& session, const std::string& program,
                     bool replace);
std::string QueryLine(const std::string& session, const std::string& query,
                      const std::string& engine, bool trace);
std::string ExplainLine(const std::string& session, const std::string& query,
                        const Row& answer, bool trace);
std::string AddFactsLine(const std::string& session, const std::string& facts);

/// Folds a traced QUERY/EXPLAIN reply into the server.* figures and the
/// span file (transport = client round trip - total_us), and checks that
/// the server's total is at most the client's round trip.
void RecordServerSpans(const Reply& reply, int request_span, Tracer* tracer,
                       Counters* counters, Checker* checker);

/// One proof-search enumeration: candidates verified and answers found.
void RecordSweep(uint64_t candidates, size_t answers, Counters* counters);

/// Proof-cache probe hits and lookups (METRICS gauges) and cache bytes
/// (STATS), summed over the daemon's sessions.
void RecordCacheFigures(Connection* connection, Counters* counters,
                        Checker* checker);

/// Times `count` PING round trips.
void RecordPings(Connection* connection, int count, Counters* counters,
                 Checker* checker);

/// Constants in the database of a program (the enumeration domain).
uint64_t DomainSize(const std::string& program_text);

/// Every per-layer metric, from the tracer's self times and the counters.
std::vector<Metric> PerLayerMetrics(const Tracer& tracer,
                                    const Counters& counters);

/// Cold-search traced runs: feeds one ontology and one graph through a
/// short-lived daemon to measure the server and cache layers on the
/// workload's own inputs.
void DaemonLayerProbe(const std::string& vadalogd, const std::string& owl,
                      const std::string& owl_individual,
                      const std::string& tc, Tracer* tracer,
                      Counters* counters, Checker* checker);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_H_
