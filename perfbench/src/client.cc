#include "client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

#include "common.h"

namespace perfbench {

namespace {
constexpr int kReplyTimeoutSeconds = 30;
constexpr int kNudgeMs = 50;
}  // namespace

bool Daemon::Start(const std::string& binary, int workers,
                   std::string* error) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    *error = "pipe failed";
    return false;
  }
  std::string workers_arg = "workers=" + std::to_string(workers);
  pid_t pid = ::fork();
  if (pid < 0) {
    *error = "fork failed";
    return false;
  }
  if (pid == 0) {
    // The daemon must not outlive a benchmark that is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    const char* argv[] = {binary.c_str(),     "--config", "tcp_port=0",
                          "--config",         workers_arg.c_str(),
                          "--config",         "search_threads=1",
                          "--config",         "log_level=error",
                          "--print-port",     nullptr};
    ::execv(binary.c_str(), const_cast<char* const*>(argv));
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  pid_ = pid;
  stdout_fd_ = pipe_fds[0];
  std::string line;
  Clock::time_point start = Clock::now();
  while (line.find('\n') == std::string::npos) {
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (MsSince(start) > 30000 || ::poll(&pfd, 1, 1000) < 0) break;
    if (pfd.revents == 0) continue;
    char chunk[256];
    ssize_t n = ::read(stdout_fd_, chunk, sizeof(chunk));
    if (n <= 0) break;
    line.append(chunk, static_cast<size_t>(n));
  }
  if (line.rfind("PORT ", 0) != 0) {
    *error = "vadalogd did not report its port";
    Stop();
    return false;
  }
  port_ = static_cast<uint16_t>(std::stoul(line.substr(5)));
  return true;
}

void Daemon::Stop() {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    int status = 0;
    Clock::time_point start = Clock::now();
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (MsSince(start) > 10000) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      ::usleep(2000);
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
  if (nudges_ > 0) {
    std::fprintf(stderr,
                 "perfbench: %llu waits of %d ms for a reply needed a wake-up "
                 "connection to the daemon\n",
                 static_cast<unsigned long long>(nudges_), kNudgeMs);
  }
}

bool Connection::Connect(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return false;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  port_ = port;
  return true;
}

bool Connection::Fill() {
  if (offset_ > 0 && offset_ == buffer_.size()) {
    buffer_.clear();
    offset_ = 0;
  }
  // vadalogd can leave a finished reply queued until its event loop sees
  // another event (see the FOUND line on Server::Run in CHANGES.md): when
  // no byte arrives for kNudgeMs, open and close one loopback connection
  // to the daemon, which wakes the loop. A reply that still does not
  // come within kReplyTimeoutSeconds fails the request.
  Clock::time_point start = Clock::now();
  for (;;) {
    pollfd pfd{fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, kNudgeMs);
    if (ready > 0) break;
    if (ready < 0 || MsSince(start) > kReplyTimeoutSeconds * 1000.0) {
      return false;
    }
    ++nudges_;
    int poke = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::connect(poke, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    ::close(poke);
  }
  char chunk[65536];
  ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
  if (n <= 0) return false;
  buffer_.append(chunk, static_cast<size_t>(n));
  return true;
}

bool Connection::ReadLine(std::string* line) {
  for (;;) {
    size_t newline = buffer_.find('\n', offset_);
    if (newline != std::string::npos) {
      line->assign(buffer_, offset_, newline - offset_);
      offset_ = newline + 1;
      return true;
    }
    if (!Fill()) return false;
  }
}

bool Connection::ReadBytes(size_t count, std::string* out) {
  while (buffer_.size() - offset_ < count) {
    if (!Fill()) return false;
  }
  out->assign(buffer_, offset_, count);
  offset_ += count;
  return true;
}

Reply Connection::Call(const std::string& line) {
  Reply reply;
  std::string wire = line + "\n";
  Clock::time_point start = Clock::now();
  size_t sent = 0;
  while (sent < wire.size()) {
    ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) {
      reply.error = "send failed";
      return reply;
    }
    sent += static_cast<size_t>(n);
  }
  std::string head;
  if (!ReadLine(&head)) {
    reply.error = "no reply: connection closed or " +
                  std::to_string(kReplyTimeoutSeconds) + " s timeout";
    return reply;
  }
  std::string parse_error;
  std::optional<vadalog::JsonValue> body =
      vadalog::JsonValue::Parse(head, &parse_error);
  if (!body.has_value()) {
    reply.error = "bad response line: " + parse_error;
    return reply;
  }
  reply.body = std::move(*body);
  if (const vadalog::JsonValue* frame = reply.body.Find("answers_frame")) {
    std::string payload;
    if (!ReadBytes(frame->GetUint("bytes"), &payload)) {
      reply.error = "short answer frame";
      return reply;
    }
    reply.rtt_us = MsSince(start) * 1000.0;
    if (!DecodeFrame(payload, &reply.rows) ||
        reply.rows.size() != frame->GetUint("rows")) {
      reply.error = "malformed answer frame";
      return reply;
    }
    reply.has_rows = true;
  } else {
    reply.rtt_us = MsSince(start) * 1000.0;
    if (const vadalog::JsonValue* answers = reply.body.Find("answers")) {
      reply.has_rows = true;
      for (const vadalog::JsonValue& item : answers->Items()) {
        Row row;
        for (const vadalog::JsonValue& cell : item.Items()) {
          row.push_back(cell.AsString());
        }
        reply.rows.push_back(std::move(row));
      }
    }
  }
  reply.rows = Sorted(std::move(reply.rows));
  return reply;
}

bool DecodeFrame(const std::string& payload, std::vector<Row>* rows) {
  size_t at = 0;
  auto read_u32 = [&](uint32_t* value) {
    if (payload.size() - at < 4) return false;
    const unsigned char* p =
        reinterpret_cast<const unsigned char*>(payload.data() + at);
    *value = static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
             static_cast<uint32_t>(p[2]) << 16 |
             static_cast<uint32_t>(p[3]) << 24;
    at += 4;
    return true;
  };
  if (payload.compare(0, 4, "VDF2") != 0) return false;
  at = 4;
  uint32_t row_count = 0, col_count = 0;
  if (!read_u32(&row_count) || !read_u32(&col_count)) return false;
  if (row_count > payload.size() || col_count > payload.size()) return false;
  rows->assign(row_count, Row(col_count));
  for (uint32_t c = 0; c < col_count; ++c) {
    std::vector<uint32_t> lengths(row_count);
    for (uint32_t& length : lengths) {
      if (!read_u32(&length)) return false;
    }
    for (uint32_t r = 0; r < row_count; ++r) {
      if (payload.size() - at < lengths[r]) return false;
      (*rows)[r][c] = payload.substr(at, lengths[r]);
      at += lengths[r];
    }
  }
  return at == payload.size();
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double MetricSum(const vadalog::JsonValue& metrics_reply,
                 const std::string& name) {
  double sum = 0;
  const vadalog::JsonValue* list = metrics_reply.Find("metrics");
  if (list == nullptr) return 0;
  for (const vadalog::JsonValue& item : list->Items()) {
    if (item.GetString("name") != name) continue;
    if (const vadalog::JsonValue* value = item.Find("value")) {
      sum += value->AsNumber();
    }
  }
  return sum;
}

}  // namespace perfbench
