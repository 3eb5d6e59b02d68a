// The load generator's side of vadalogd: starting and stopping the real
// daemon binary, and blocking loopback connections that speak the wire
// protocol (v1 JSON lines, or v2 with binary VDF2 answer frames, which
// are decoded here rather than by the program's own decoder).

#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"
#include "server/json.h"

namespace perfbench {

class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Starts `binary` on an ephemeral loopback port with a fixed worker
  /// count and one search thread per query; waits for its PORT line.
  bool Start(const std::string& binary, int workers, std::string* error);
  /// SIGTERM, then waits for the exit (SIGKILL after 10 s).
  void Stop();
  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

struct Reply {
  vadalog::JsonValue body;
  bool has_rows = false;
  std::vector<Row> rows;  // sorted
  double rtt_us = 0;
  std::string error;      // transport or framing failure
  bool ok() const { return error.empty() && body.GetBool("ok"); }
};

class Connection {
 public:
  Connection() = default;
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool Connect(uint16_t port);
  /// Sends one request line and reads its response (and answer frame).
  Reply Call(const std::string& line);

 private:
  bool ReadLine(std::string* line);
  bool ReadBytes(size_t count, std::string* out);
  bool Fill();

  int fd_ = -1;
  uint16_t port_ = 0;
  uint64_t nudges_ = 0;  // reported on stderr when the connection closes
  std::string buffer_;
  size_t offset_ = 0;
};

/// Decodes a VDF2 answer frame; false on a malformed frame.
bool DecodeFrame(const std::string& payload, std::vector<Row>* rows);

/// JSON string literal.
std::string Quote(const std::string& text);

/// The sum of a counter family's values in a METRICS response, over
/// every sample named `name`.
double MetricSum(const vadalog::JsonValue& metrics_reply,
                 const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
