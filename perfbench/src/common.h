// Shared pieces of the perfbench program: run arguments, timing and
// quantiles, the correctness ledger, the in-memory span tracer, readings
// of a process's CPU time and peak RSS, and the result line.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point a) { return MsBetween(a, Clock::now()); }

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string vadalogd;  // path of the daemon binary
  std::string out_dir;   // where the traced run writes its span file
  // Corrupts one of the benchmark's own comparison inputs, so a run can
  // show that its checks fail: "flip" (one expected verdict) or "drop"
  // (one expected answer row).
  std::string self_test;
};

/// Quantile with linear interpolation between closest ranks.
double Quantile(std::vector<double> values, double q);

/// Mixes a run seed with a stream tag into an independent Rng seed.
uint64_t SubSeed(uint64_t seed, uint64_t tag);

/// Records every failed correctness check; the run is correct only when
/// none failed. The first few messages go to stderr.
class Checker {
 public:
  void Fail(const std::string& what);
  void Expect(bool condition, const std::string& what) {
    if (!condition) Fail(what);
  }
  bool ok() const { return failures_ == 0; }

 private:
  uint64_t failures_ = 0;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Prints the result object as the last line of stdout.
void PrintResult(const Result& result);

/// Spans kept in memory, one per call into a layer (or per span a daemon
/// reported for a request). Self time of a layer is the sum of its spans'
/// durations minus the parts their child spans cover.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span under the innermost open span; returns its id (-1 when
  /// tracing is off).
  int Begin(const char* layer);
  void End(int id);
  /// Records a finished span measured elsewhere (a daemon-side span),
  /// placed under `parent` and covering `us` microseconds; returns its id.
  int AddMeasured(const char* layer, int parent, double us);

  double SelfMs(const std::string& layer) const;
  uint64_t Count(const std::string& layer) const;
  /// Writes every span plus the per-layer self-time table as JSON.
  bool WriteJson(const std::string& path) const;

 private:
  struct Span {
    const char* layer;
    int parent;
    int64_t start_ns;
    int64_t end_ns;
  };
  std::map<std::string, std::pair<double, uint64_t>> SelfTable() const;

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  Clock::time_point origin_ = Clock::now();
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* layer)
      : tracer_(tracer), id_(tracer->Begin(layer)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// user+sys CPU seconds of a process, from /proc/<pid>/stat.
double ProcessCpuSeconds(pid_t pid);
/// Resident high-water mark (VmHWM) of a process in MiB.
double PeakRssMib(pid_t pid);

/// Seconds since this process started (from the first call, made at the
/// top of main).
double SecondsSinceStart();

/// Per-layer accumulators: search counters, daemon span figures, cache
/// figures. Metrics are means over the samples, or ratios of sums.
struct Counters {
  std::map<std::string, double> sums;
  std::map<std::string, uint64_t> samples;
  void Add(const std::string& name, double value) {
    sums[name] += value;
    samples[name] += 1;
  }
  double Mean(const std::string& name) const;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
