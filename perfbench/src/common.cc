#include "common.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + tag * 0xbf58476d1ce4e5b9ULL +
               0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Checker::Fail(const std::string& what) {
  if (failures_ < 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  ++failures_;
}

void PrintResult(const Result& result) {
  std::ostringstream out;
  out.precision(10);
  out << "{\"correct\": " << (result.correct ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    out << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
        << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \""
        << m.unit << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

int Tracer::Begin(const char* layer) {
  if (!enabled_) return -1;
  int parent = open_.empty() ? -1 : open_.back();
  int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - origin_)
                    .count();
  spans_.push_back(Span{layer, parent, now, now});
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::End(int id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int Tracer::AddMeasured(const char* layer, int parent, double us) {
  if (!enabled_) return -1;
  int64_t start = parent >= 0 ? spans_[static_cast<size_t>(parent)].start_ns
                              : 0;
  spans_.push_back(
      Span{layer, parent, start, start + static_cast<int64_t>(us * 1000.0)});
  return static_cast<int>(spans_.size() - 1);
}

std::map<std::string, std::pair<double, uint64_t>> Tracer::SelfTable() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, std::pair<double, uint64_t>> table;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    int64_t self = span.end_ns - span.start_ns - child_ns[i];
    auto& entry = table[span.layer];
    entry.first += static_cast<double>(std::max<int64_t>(self, 0)) / 1e6;
    entry.second += 1;
  }
  return table;
}

double Tracer::SelfMs(const std::string& layer) const {
  auto table = SelfTable();
  auto it = table.find(layer);
  return it == table.end() ? 0 : it->second.first;
}

uint64_t Tracer::Count(const std::string& layer) const {
  uint64_t count = 0;
  for (const Span& span : spans_) count += layer == span.layer ? 1 : 0;
  return count;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"self_ms\": {";
  bool first = true;
  for (const auto& [layer, entry] : SelfTable()) {
    out << (first ? "" : ", ") << "\"" << layer << "\": {\"ms\": "
        << entry.first << ", \"spans\": " << entry.second << "}";
    first = false;
  }
  out << "},\n\"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"id\": " << i << ", \"layer\": \""
        << s.layer << "\", \"parent\": " << s.parent
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

double ProcessCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line.
  size_t close = text.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14 || i == 15) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double PeakRssMib(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0;
}

double SecondsSinceStart() {
  static const Clock::time_point start = Clock::now();
  return MsSince(start) / 1000.0;
}

double Counters::Mean(const std::string& name) const {
  auto it = sums.find(name);
  if (it == sums.end()) return 0;
  return it->second / static_cast<double>(samples.at(name));
}

}  // namespace perfbench
