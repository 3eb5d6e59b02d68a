#include "server/server.h"

#ifndef _WIN32
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

namespace vadalog {

#ifdef _WIN32

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      pool_(std::make_unique<WorkerPool>(config_.workers)),
      registry_(SessionOptions{}) {}
Server::~Server() = default;
bool Server::Start(std::string* error) {
  if (error != nullptr) *error = "vadalogd requires POSIX sockets";
  return false;
}
void Server::Stop() {}
Server::Stats Server::stats() const { return {}; }
void Server::EventLoop() {}
void Server::AcceptReady(int) {}
void Server::ReadReady(const std::shared_ptr<Connection>&) {}
void Server::WriteReady(const std::shared_ptr<Connection>&) {}
void Server::FrameAndDispatch(const std::shared_ptr<Connection>&) {}
void Server::DispatchPending(const std::shared_ptr<Connection>&) {}
void Server::ServeLine(const std::shared_ptr<Connection>&,
                       const std::string&) {}
void Server::QueueResponse(const std::shared_ptr<Connection>&, std::string) {}
void Server::FlushOut(const std::shared_ptr<Connection>&) {}
void Server::UpdateInterest(const std::shared_ptr<Connection>&) {}
void Server::CloseConnection(int) {}
void Server::DrainCompletions() {}
bool Server::EvictIdleConnection() { return false; }
bool Server::AnyExecuting() const { return false; }
void Server::ReleaseAdmission(const std::string&) {}

#else  // POSIX

namespace server_internal {

RecvStatus RecvChunk(int fd, char* buffer, size_t capacity,
                     size_t* received) {
  *received = 0;
  while (true) {
    ssize_t n = ::recv(fd, buffer, capacity, 0);
    if (n > 0) {
      *received = static_cast<size_t>(n);
      return RecvStatus::kData;
    }
    if (n == 0) return RecvStatus::kClosed;  // orderly peer shutdown
    if (errno == EINTR) continue;            // signal: just re-issue
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // On the loop's non-blocking sockets this means "drained for
      // now" — NOT a closed peer: the loop parks the connection until
      // the next readiness event. Conflating this with n <= 0 used to
      // drop idle connections mid-request.
      return RecvStatus::kRetry;
    }
    return RecvStatus::kError;
  }
}

}  // namespace server_internal

namespace {

bool SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

uint64_t ElapsedUs(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

JsonValue BusyResponse(const JsonValue& id, const char* scope) {
  JsonValue response = protocol::ErrorResponse(
      protocol::Error{"EBUSY",
                      std::string("admission control: too many in-flight "
                                  "requests (") +
                          scope + "); retry"},
      id);
  response.Set("retry", JsonValue::Bool(true));
  return response;
}

}  // namespace

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      pool_(std::make_unique<WorkerPool>(
          config_.workers == 0 ? 1 : config_.workers)),
      registry_([this] {
        SessionOptions session;
        session.cache_byte_limit = config_.cache_byte_limit;
        session.search_threads = config_.search_threads;
        session.pool = pool_.get();
        session.metrics = &metrics_;
        session.slow_log = &slow_log_;
        session.slow_query_micros = config_.slow_query_ms * 1000;
        return session;
      }()) {
  counters_.connections = metrics_.GetCounter(
      "vadalogd_connections_total", {}, "client connections accepted");
  counters_.connections_open = metrics_.GetGauge(
      "vadalogd_connections_open", {}, "client connections currently open");
  counters_.requests = metrics_.GetCounter(
      "vadalogd_requests_total", {},
      "request lines served (including inline and rejected ones)");
  counters_.rejected_global = metrics_.GetCounter(
      "vadalogd_rejected_total", {{"scope", "global"}},
      "requests rejected EBUSY by the global in-flight cap");
  counters_.rejected_session = metrics_.GetCounter(
      "vadalogd_rejected_total", {{"scope", "session"}},
      "requests rejected EBUSY by the per-session in-flight cap");
  counters_.idle_evicted = metrics_.GetCounter(
      "vadalogd_idle_evicted_total", {},
      "idle connections evicted to free a descriptor under EMFILE");
  counters_.emfile_shed = metrics_.GetCounter(
      "vadalogd_emfile_shed_total", {},
      "pending connections shed through the reserve descriptor");
  counters_.connlimit_closed = metrics_.GetCounter(
      "vadalogd_connlimit_closed_total", {},
      "arrivals closed at the max_connections cap");
  counters_.overflow_closed = metrics_.GetCounter(
      "vadalogd_overflow_closed_total", {},
      "connections dropped for an out-buffer past max_outbuf_bytes");
  counters_.inflight = metrics_.GetGauge(
      "vadalogd_inflight", {},
      "requests admitted and not yet completed (queued + executing)");
  counters_.loop_iterations = metrics_.GetCounter(
      "vadalogd_loop_iterations_total", {}, "event-loop iterations");
  counters_.loop_iteration_us = metrics_.GetHistogram(
      "vadalogd_loop_iteration_us", {},
      "time handling one event-loop batch (excluding the poll wait), us");
  counters_.wakeups = metrics_.GetCounter(
      "vadalogd_wakeups_total", {},
      "self-pipe wakeups delivered to the event loop");
  counters_.queue_wait_us = metrics_.GetHistogram(
      "vadalogd_queue_wait_us", {},
      "time admitted requests waited in the worker-pool queue, us");
  pool_->set_queue_depth_gauge(metrics_.GetGauge(
      "vadalogd_queue_depth", {}, "worker-pool queue depth"));
}

Server::~Server() { Stop(); }

bool Server::Start(std::string* error) {
  auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message + ": " + std::strerror(errno);
    for (int fd : listen_fds_) ::close(fd);
    listen_fds_.clear();
    if (wakeup_read_ >= 0) ::close(wakeup_read_);
    if (wakeup_write_ >= 0) ::close(wakeup_write_);
    wakeup_read_ = wakeup_write_ = -1;
    poller_.reset();
    return false;
  };

  std::string config_error = config_.Validate();
  if (!config_error.empty()) {
    if (error != nullptr) *error = "invalid config: " + config_error;
    return false;
  }

  obs::LogLevel level = obs::LogLevel::kInfo;
  obs::LogLevelFromName(config_.log_level, &level);  // validated above
  obs::SetLogLevel(level);
  if (config_.slow_query_ms > 0) {
    std::string open_error;
    if (!slow_log_.Open(config_.slow_query_log, &open_error)) {
      if (error != nullptr) *error = "slow_query_log: " + open_error;
      return false;
    }
  }

  if (config_.tcp) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return fail("socket(tcp)");
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only
    addr.sin_port = htons(config_.tcp_port);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(fd, 128) != 0) {
      int saved = errno;
      ::close(fd);
      errno = saved;
      return fail("bind/listen(tcp)");
    }
    socklen_t len = sizeof addr;
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    bound_tcp_port_ = ntohs(addr.sin_port);
    listen_fds_.push_back(fd);
  }

  if (!config_.unix_path.empty()) {
    sockaddr_un addr{};
    if (config_.unix_path.size() >= sizeof addr.sun_path) {
      if (error != nullptr) *error = "unix socket path too long";
      for (int fd : listen_fds_) ::close(fd);
      listen_fds_.clear();
      return false;
    }
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return fail("socket(unix)");
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, config_.unix_path.c_str(),
                 sizeof addr.sun_path - 1);
    ::unlink(config_.unix_path.c_str());  // stale socket from a crash
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(fd, 128) != 0) {
      int saved = errno;
      ::close(fd);
      errno = saved;
      return fail("bind/listen(unix)");
    }
    listen_fds_.push_back(fd);
  }

  if (listen_fds_.empty()) {
    if (error != nullptr) *error = "no listening endpoint configured";
    return false;
  }

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return fail("pipe(wakeup)");
  wakeup_read_ = pipe_fds[0];
  wakeup_write_ = pipe_fds[1];
  for (int fd : listen_fds_) {
    if (!SetNonBlocking(fd)) return fail("fcntl(listen)");
  }
  if (!SetNonBlocking(wakeup_read_) || !SetNonBlocking(wakeup_write_)) {
    return fail("fcntl(wakeup)");
  }
  // No loop thread exists until the launch below, so the starting
  // thread owns the loop role for this setup phase (the claim the
  // ASSERT states; nothing else can hold it yet).
  loop_role_.AssertHeld();
  // Held open purely so AcceptReady can close it to survive EMFILE with
  // nothing evictable; failure to open it is not fatal (the shed path
  // just degrades away).
  reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);

  poller_ = std::make_unique<Poller>(config_.poller == "poll"
                                         ? Poller::Backend::kPoll
                                         : Poller::Backend::kEpoll);
  if (!poller_->ok()) return fail("poller init");
  for (int fd : listen_fds_) poller_->Add(fd, /*read=*/true, /*write=*/false);
  poller_->Add(wakeup_read_, /*read=*/true, /*write=*/false);

  running_.store(true);
  loop_thread_ = std::thread([this] { EventLoop(); });
  return true;
}

void Server::EventLoop() {
  // Claim the loop role for the thread's whole lifetime: every helper
  // this loop calls REQUIRES(loop_role_), and Stop joins this thread
  // before touching anything the role guards.
  base::ThreadRoleGuard loop(&loop_role_);
  std::vector<Poller::Event> events;
  bool draining = false;
  bool flush_deadline_set = false;
  std::chrono::steady_clock::time_point flush_deadline;

  while (true) {
    if (!running_.load() && !draining) {
      draining = true;
      // Stop accepting; stop reading; requests not yet dispatched are
      // dropped (the client never got a response promise for them —
      // exactly the old behavior where shutdown cut the read side).
      for (int fd : listen_fds_) {
        poller_->Del(fd);
        ::close(fd);
      }
      listen_fds_.clear();
      for (auto& [fd, connection] : connections_) {
        connection->pending_lines.clear();
        connection->closing = true;
        UpdateInterest(connection);
      }
    }

    if (draining) {
      if (inflight_ > 0) {
        // Executing requests always finish and get flushed; the bounded
        // timer below only covers the final out-buffer drain.
        flush_deadline_set = false;
      } else {
        bool any_unsent = false;
        for (auto& [fd, connection] : connections_) {
          if (connection->out_sent < connection->out.size()) {
            any_unsent = true;
            break;
          }
        }
        if (!any_unsent) break;
        auto now = std::chrono::steady_clock::now();
        if (!flush_deadline_set) {
          flush_deadline_set = true;
          flush_deadline = now + std::chrono::seconds(2);
        } else if (now >= flush_deadline) {
          break;  // a stalled reader does not hold shutdown hostage
        }
      }
    }

    int wait_ms = draining ? 20 : -1;
    int ready = poller_->Wait(&events, wait_ms);
    if (ready < 0) break;  // unrecoverable backend error
    // Iteration latency covers the handling of this batch only — the
    // (unbounded, idle) poll wait above is deliberately excluded.
    auto batch_start = std::chrono::steady_clock::now();
    closed_in_batch_.clear();
    // Drain the self-pipe *before* the completion queue. A worker queues
    // its completion and then writes a wake byte; draining the pipe after
    // the queue would swallow the byte of a completion queued in between,
    // leaving its reply parked until some unrelated event. In this order
    // such a byte stays in the pipe and wakes the next Wait.
    for (const Poller::Event& event : events) {
      if (event.fd != wakeup_read_) continue;
      counters_.wakeups->Add(1);
      char drain[256];
      while (::read(wakeup_read_, drain, sizeof drain) > 0) {
      }
    }
    DrainCompletions();
    for (const Poller::Event& event : events) {
      if (closed_in_batch_.count(event.fd) != 0) continue;  // stale event
      if (event.fd == wakeup_read_) continue;  // drained above
      bool is_listener = false;
      for (int fd : listen_fds_) {
        if (fd == event.fd) {
          is_listener = true;
          break;
        }
      }
      if (is_listener) {
        if (!draining) AcceptReady(event.fd);
        continue;
      }
      auto it = connections_.find(event.fd);
      if (it == connections_.end()) continue;  // closed earlier this batch
      std::shared_ptr<Connection> connection = it->second;
      if (event.error && !connection->executing) {
        // Hangup/error with nothing in flight: nothing left to deliver.
        CloseConnection(connection->fd);
        continue;
      }
      if (event.writable) WriteReady(connection);
      if (connection->fd >= 0 && event.readable && !connection->closing) {
        ReadReady(connection);
      }
    }
    counters_.loop_iterations->Add(1);
    counters_.loop_iteration_us->Observe(ElapsedUs(batch_start));
  }

  for (auto& [fd, connection] : connections_) {
    connection->fd = -1;
    ::close(fd);
  }
  connections_.clear();
  for (int fd : listen_fds_) ::close(fd);
  listen_fds_.clear();
}

void Server::AcceptReady(int listen_fd) {
  while (true) {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // Descriptor pressure: evicting our idlest request-free
        // connection frees exactly one fd — retry the accept with it
        // rather than leaving the backlog to starve.
        if (EvictIdleConnection()) continue;
        // Nothing evictable — every connection has work in flight, or
        // the table is full of descriptors that are not ours to close.
        // Shed the pending connection through the reserve descriptor:
        // close it, accept, close the accepted socket, reopen. Turning
        // one client away is the price of draining the backlog — a
        // level-triggered listener that can never accept would
        // otherwise keep the loop spinning at full CPU.
        if (reserve_fd_ >= 0) {
          ::close(reserve_fd_);
          reserve_fd_ = -1;
          int shed = ::accept(listen_fd, nullptr, nullptr);
          if (shed >= 0) ::close(shed);
          reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
          if (shed >= 0) {
            counters_.emfile_shed->Add(1);
            obs::LogWarn(
                "descriptor pressure: shed one pending connection "
                "(every open connection has work in flight)");
            continue;
          }
        }
        return;
      }
      return;  // EAGAIN (drained) or a transient like ECONNABORTED
    }
    if (connections_.size() >= config_.max_connections) {
      ::close(fd);
      counters_.connlimit_closed->Add(1);
      obs::LogWarn("max_connections=%zu reached; closed a new arrival",
                   config_.max_connections);
      continue;
    }
    if (!SetNonBlocking(fd)) {
      ::close(fd);
      continue;
    }
    // Replies are small, self-contained writes: without TCP_NODELAY the
    // second of two back-to-back replies on one connection waits for the
    // client's delayed ACK (~40 ms). Fails harmlessly on Unix sockets.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto connection = std::make_shared<Connection>();
    connection->fd = fd;
    connection->last_active = ++activity_clock_;
    connections_[fd] = connection;
    poller_->Add(fd, /*read=*/true, /*write=*/false);
    counters_.connections->Add(1);
    counters_.connections_open->Set(
        static_cast<int64_t>(connections_.size()));
  }
}

void Server::ReadReady(const std::shared_ptr<Connection>& connection) {
  char chunk[65536];
  // Bounded per readiness event so one flooding client cannot hog the
  // loop; level-triggered polling re-wakes us for the remainder.
  for (int i = 0; i < 16; ++i) {
    size_t n = 0;
    server_internal::RecvStatus status = server_internal::RecvChunk(
        connection->fd, chunk, sizeof chunk, &n);
    if (status == server_internal::RecvStatus::kData) {
      connection->in.append(chunk, n);
      connection->last_active = ++activity_clock_;
      continue;
    }
    if (status == server_internal::RecvStatus::kRetry) break;
    // kClosed / kError: no more requests will arrive; finish what is
    // already framed or in flight, flush, then close.
    connection->closing = true;
    break;
  }
  FrameAndDispatch(connection);
}

void Server::FrameAndDispatch(const std::shared_ptr<Connection>& connection) {
  std::string& in = connection->in;
  size_t start = 0;
  size_t newline;
  while ((newline = in.find('\n', start)) != std::string::npos) {
    std::string line = in.substr(start, newline - start);
    start = newline + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    connection->pending_lines.push_back(std::move(line));
  }
  in.erase(0, start);
  if (in.size() > config_.max_line_bytes) {
    // Framing can't be trusted past an overrun: answer and hang up.
    connection->pending_lines.clear();
    connection->closing = true;
    in.clear();
    in.shrink_to_fit();
    QueueResponse(
        connection,
        protocol::EncodeResponse(
            protocol::Response(protocol::ErrorResponse(
                protocol::Error{"EPROTO", "request line too long"},
                JsonValue())),
            connection->wire.encoding));
    if (connection->fd < 0) return;
  }
  DispatchPending(connection);
}

void Server::DispatchPending(const std::shared_ptr<Connection>& connection) {
  // Serial order per connection: at most one request from this
  // connection executes at a time, so responses come back in arrival
  // order — the v1 contract — while other connections run concurrently.
  while (connection->fd >= 0 && !connection->executing &&
         !connection->pending_lines.empty()) {
    std::string line = std::move(connection->pending_lines.front());
    connection->pending_lines.pop_front();
    ServeLine(connection, line);
  }
  if (connection->fd < 0) return;
  if (connection->closing && !connection->executing &&
      connection->pending_lines.empty() &&
      connection->out_sent >= connection->out.size()) {
    CloseConnection(connection->fd);
    return;
  }
  UpdateInterest(connection);
}

void Server::ServeLine(const std::shared_ptr<Connection>& connection,
                       const std::string& line) {
  counters_.requests->Add(1);
  protocol::Encoding encoding = connection->wire.encoding;
  protocol::Error parse_error;
  JsonValue id;
  std::optional<protocol::Request> request =
      protocol::ParseRequest(line, &parse_error, &id);
  if (!request.has_value()) {
    QueueResponse(connection,
                  protocol::EncodeResponse(
                      protocol::Response(
                          protocol::ErrorResponse(parse_error, id)),
                      encoding));
    return;
  }

  // HELLO mutates this connection's negotiated wire state, which only
  // the loop thread may touch — inline by necessity.
  if (request->cmd == protocol::Command::kHello) {
    protocol::Response response = protocol::NegotiateHello(
        *request, config_.encodings, &connection->wire);
    registry_.CountNegotiatedEncoding(connection->wire.encoding);
    QueueResponse(connection, protocol::EncodeResponse(
                                  response, connection->wire.encoding));
    return;
  }

  // PING, STATS, and METRICS are the monitoring path: inline on the
  // loop — no admission, no pool queue — so they stay responsive even
  // when the pool is saturated with a request backlog (all three only
  // touch counters and briefly-held registry/session locks).
  if (request->cmd == protocol::Command::kPing ||
      request->cmd == protocol::Command::kStats ||
      request->cmd == protocol::Command::kMetrics) {
    QueueResponse(connection, protocol::EncodeResponse(
                                  registry_.Handle(*request), encoding));
    return;
  }

  // Admission control; the admission state is loop-owned, no locking
  // (the metrics handles themselves are lock-free from any thread).
  if (inflight_ >= config_.max_inflight) {
    counters_.rejected_global->Add(1);
    QueueResponse(connection,
                  protocol::EncodeResponse(
                      protocol::Response(BusyResponse(id, "server")),
                      encoding));
    return;
  }
  size_t& session_inflight = inflight_by_session_[request->session];
  if (session_inflight >= config_.max_inflight_per_session) {
    counters_.rejected_session->Add(1);
    QueueResponse(connection,
                  protocol::EncodeResponse(
                      protocol::Response(BusyResponse(id, "session")),
                      encoding));
    return;
  }
  ++inflight_;
  ++session_inflight;
  counters_.inflight->Set(static_cast<int64_t>(inflight_));

  // Fork execution onto the pool. The response is encoded on the worker
  // (under the encoding negotiated at dispatch time) so the loop only
  // ever shuttles ready-made bytes.
  connection->executing = true;
  connection->last_active = ++activity_clock_;
  auto request_ptr = std::make_shared<protocol::Request>(std::move(*request));
  std::weak_ptr<Connection> weak = connection;
  std::string session = request_ptr->session;
  auto dispatched = std::chrono::steady_clock::now();
  pool_->Submit([this, request_ptr, weak, encoding, dispatched,
                 session = std::move(session)]() mutable {
    // Queue wait = dispatch accepted -> a worker picked the request up;
    // stamped into the request so the session layer renders it in the
    // trace spans and the slow-query records.
    request_ptr->queue_wait_us = ElapsedUs(dispatched);
    counters_.queue_wait_us->Observe(request_ptr->queue_wait_us);
    protocol::Response response = registry_.Handle(*request_ptr);
    std::string bytes = protocol::EncodeResponse(response, encoding);
    {
      base::MutexLock lock(&completions_mutex_);
      completions_.push_back(
          Completion{std::move(weak), std::move(bytes), std::move(session)});
    }
    char one = 1;
    // EAGAIN (pipe full) is fine: a wakeup is already pending.
    ssize_t ignored = ::write(wakeup_write_, &one, 1);
    (void)ignored;
  });
}

void Server::DrainCompletions() {
  std::vector<Completion> batch;
  {
    base::MutexLock lock(&completions_mutex_);
    batch.swap(completions_);
  }
  for (Completion& completion : batch) {
    // The admission slot is released even when the connection died mid-
    // request; `session` rode along for exactly this.
    ReleaseAdmission(completion.session);
    std::shared_ptr<Connection> connection = completion.connection.lock();
    if (connection == nullptr || connection->fd < 0) continue;
    connection->executing = false;
    QueueResponse(connection, std::move(completion.bytes));
    if (connection->fd >= 0) DispatchPending(connection);
  }
}

void Server::ReleaseAdmission(const std::string& session) {
  if (inflight_ > 0) --inflight_;
  counters_.inflight->Set(static_cast<int64_t>(inflight_));
  auto it = inflight_by_session_.find(session);
  if (it != inflight_by_session_.end() && --it->second == 0) {
    inflight_by_session_.erase(it);
  }
}

void Server::QueueResponse(const std::shared_ptr<Connection>& connection,
                           std::string bytes) {
  if (connection->fd < 0) return;
  connection->out += bytes;
  FlushOut(connection);
}

void Server::FlushOut(const std::shared_ptr<Connection>& connection) {
  std::string& out = connection->out;
  while (connection->out_sent < out.size()) {
    ssize_t n = ::send(connection->fd, out.data() + connection->out_sent,
                       out.size() - connection->out_sent, MSG_NOSIGNAL);
    if (n > 0) {
      connection->out_sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    CloseConnection(connection->fd);  // peer is gone
    return;
  }
  if (connection->out_sent >= out.size()) {
    out.clear();
    connection->out_sent = 0;
  } else if (connection->out_sent > (1u << 20)) {
    // Compact occasionally so a long-lived slow reader doesn't pin the
    // already-sent prefix forever.
    out.erase(0, connection->out_sent);
    connection->out_sent = 0;
  }
  size_t unsent = out.size() - connection->out_sent;
  if (unsent > config_.max_outbuf_bytes) {
    // The client stopped reading; its backlog must not grow the
    // daemon's memory without bound.
    counters_.overflow_closed->Add(1);
    obs::LogWarn(
        "client fd=%d stopped reading (%zu unsent bytes); closing",
        connection->fd, unsent);
    CloseConnection(connection->fd);
    return;
  }
  if (connection->closing && !connection->executing &&
      connection->pending_lines.empty() && unsent == 0) {
    CloseConnection(connection->fd);
    return;
  }
  UpdateInterest(connection);
}

void Server::WriteReady(const std::shared_ptr<Connection>& connection) {
  FlushOut(connection);
}

void Server::UpdateInterest(const std::shared_ptr<Connection>& connection) {
  if (connection->fd < 0) return;
  bool want_read = !connection->closing;
  bool want_write = connection->out_sent < connection->out.size();
  if (want_read == connection->want_read &&
      want_write == connection->want_write) {
    return;
  }
  connection->want_read = want_read;
  connection->want_write = want_write;
  poller_->Mod(connection->fd, want_read, want_write);
}

void Server::CloseConnection(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  it->second->fd = -1;  // marks the shared_ptr holders: this one is dead
  poller_->Del(fd);
  ::close(fd);
  connections_.erase(it);
  closed_in_batch_.insert(fd);
  counters_.connections_open->Set(static_cast<int64_t>(connections_.size()));
}

bool Server::EvictIdleConnection() {
  std::shared_ptr<Connection> idlest;
  for (auto& [fd, connection] : connections_) {
    if (connection->executing || !connection->pending_lines.empty() ||
        connection->out_sent < connection->out.size()) {
      continue;  // has a request or response in flight: not evictable
    }
    if (idlest == nullptr || connection->last_active < idlest->last_active) {
      idlest = connection;
    }
  }
  if (idlest == nullptr) return false;
  obs::LogDebug("descriptor pressure: evicting idle connection fd=%d",
                idlest->fd);
  CloseConnection(idlest->fd);
  counters_.idle_evicted->Add(1);
  return true;
}

bool Server::AnyExecuting() const { return inflight_ > 0; }

void Server::Stop() {
  bool was_running = running_.exchange(false);
  if (was_running) {
    char one = 1;
    ssize_t ignored = ::write(wakeup_write_, &one, 1);
    (void)ignored;
  }
  if (loop_thread_.joinable()) loop_thread_.join();
  pool_->Shutdown();
  // The loop thread is joined (or never launched): ownership of the
  // loop role reverts to the stopping thread for the teardown phase.
  loop_role_.AssertHeld();
  if (wakeup_read_ >= 0) ::close(wakeup_read_);
  if (wakeup_write_ >= 0) ::close(wakeup_write_);
  wakeup_read_ = wakeup_write_ = -1;
  if (reserve_fd_ >= 0) ::close(reserve_fd_);
  reserve_fd_ = -1;
  poller_.reset();
  for (int fd : listen_fds_) ::close(fd);
  listen_fds_.clear();
  if (was_running && !config_.unix_path.empty()) {
    ::unlink(config_.unix_path.c_str());
  }
}

Server::Stats Server::stats() const {
  Stats stats;
  stats.connections = counters_.connections->Value();
  stats.requests = counters_.requests->Value();
  stats.rejected_global = counters_.rejected_global->Value();
  stats.rejected_session = counters_.rejected_session->Value();
  stats.idle_closed = counters_.idle_evicted->Value() +
                      counters_.emfile_shed->Value() +
                      counters_.connlimit_closed->Value();
  stats.overflow_closed = counters_.overflow_closed->Value();
  return stats;
}

#endif  // _WIN32

}  // namespace vadalog

