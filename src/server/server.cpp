#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "engine/database.h"
#include "obs/metrics.h"

namespace holix::net {

namespace {

/// epoll user-data tags. Real connections carry their pointer, which can
/// never collide with these small integers.
constexpr uint64_t kWakeTag = 0;
constexpr uint64_t kListenTag = 1;
constexpr uint64_t kMetricsListenTag = 2;

/// Creates, binds and listens a nonblocking TCP socket; returns the fd and
/// writes the resolved port (ephemeral binds) to \p out_port. Throws on
/// failure.
int BindListener(const std::string& address, uint16_t port, int backlog,
                 uint16_t* out_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
  if (fd < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("bad bind address: " + address);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, backlog) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("bind/listen: " + err);
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  *out_port = ntohs(addr.sin_port);
  return fd;
}

}  // namespace

HolixServer::HolixServer(Database& db, ServerOptions options)
    : db_(db), options_(std::move(options)) {
  if (options_.io_threads == 0) options_.io_threads = 1;
}

HolixServer::~HolixServer() { Stop(); }

void HolixServer::Start() {
  if (running_.load(std::memory_order_acquire)) return;
  listen_fd_ = BindListener(options_.bind_address, options_.port,
                            options_.backlog, &port_);
  if (options_.metrics_http || options_.metrics_port != 0) {
    try {
      metrics_listen_fd_ = BindListener(options_.bind_address,
                                        options_.metrics_port,
                                        options_.backlog, &metrics_port_);
    } catch (...) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw;
    }
  }

  loops_.clear();
  for (size_t i = 0; i < options_.io_threads; ++i) {
    auto loop = std::make_unique<IoLoop>();
    loop->index = i;
    loop->epfd = ::epoll_create1(EPOLL_CLOEXEC);
    loop->wakefd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (loop->epfd < 0 || loop->wakefd < 0) {
      throw std::runtime_error("epoll/eventfd setup failed");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeTag;
    ::epoll_ctl(loop->epfd, EPOLL_CTL_ADD, loop->wakefd, &ev);
    loops_.push_back(std::move(loop));
  }
  // The listener lives in loop 0's epoll set; accepted fds fan out
  // round-robin across all loops.
  {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kListenTag;
    ::epoll_ctl(loops_[0]->epfd, EPOLL_CTL_ADD, listen_fd_, &ev);
    if (metrics_listen_fd_ >= 0) {
      epoll_event mev{};
      mev.events = EPOLLIN;
      mev.data.u64 = kMetricsListenTag;
      ::epoll_ctl(loops_[0]->epfd, EPOLL_CTL_ADD, metrics_listen_fd_, &mev);
    }
  }
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  for (auto& loop : loops_) {
    IoLoop* lp = loop.get();
    lp->th = std::thread([this, lp] { LoopRun(*lp); });
  }
}

void HolixServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);

  // 1. Stop accepting. The listener belongs to loop 0's epoll set and
  //    accept() only ever runs on loop 0, so remove + close it there.
  {
    std::promise<void> done;
    auto fut = done.get_future();
    Post(*loops_[0], [this, &done] {
      if (listen_fd_ >= 0) {
        ::epoll_ctl(loops_[0]->epfd, EPOLL_CTL_DEL, listen_fd_, nullptr);
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      if (metrics_listen_fd_ >= 0) {
        ::epoll_ctl(loops_[0]->epfd, EPOLL_CTL_DEL, metrics_listen_fd_,
                    nullptr);
        ::close(metrics_listen_fd_);
        metrics_listen_fd_ = -1;
      }
      done.set_value();
    });
    fut.wait();
  }

  // 2. Stop decoding everywhere: already-dispatched queries keep running,
  //    new frames are no longer admitted.
  for (auto& loop : loops_) {
    IoLoop* lp = loop.get();
    std::promise<void> done;
    auto fut = done.get_future();
    Post(*lp, [this, lp, &done] {
      for (auto& [ptr, conn] : lp->conns) {
        conn->draining = true;
        UpdateInterest(*lp, *conn);
      }
      done.set_value();
    });
    fut.wait();
  }

  // 3. Drain in-flight queries. Pool closures never block on sockets (they
  //    only park bytes in outboxes), so this always terminates.
  while (global_in_flight_.load(std::memory_order_acquire) != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // 4. Flush write queues: responses to drained queries still go out. A
  //    peer that stopped reading is abandoned after the flush deadline.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(options_.drain_flush_seconds));
  for (;;) {
    bool all_flushed = true;
    for (auto& loop : loops_) {
      IoLoop* lp = loop.get();
      std::promise<bool> flushed;
      auto fut = flushed.get_future();
      Post(*lp, [lp, &flushed] {
        bool empty = true;
        for (auto& [ptr, conn] : lp->conns) {
          std::lock_guard<std::mutex> lk(conn->out_mu);
          if (!conn->wq.empty() || !conn->outbox.empty()) {
            empty = false;
            break;
          }
        }
        flushed.set_value(empty);
      });
      if (!fut.get()) all_flushed = false;
    }
    if (all_flushed || std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // 5. Stop and join the loops, then close everything on this thread.
  for (auto& loop : loops_) {
    loop->stop.store(true, std::memory_order_release);
    Wake(*loop);
  }
  for (auto& loop : loops_) {
    if (loop->th.joinable()) loop->th.join();
  }
  for (auto& loop : loops_) {
    for (auto& [ptr, conn] : loop->conns) {
      {
        std::lock_guard<std::mutex> lk(conn->out_mu);
        conn->closed = true;
      }
      if (conn->fd >= 0) {
        ::close(conn->fd);
        conn->fd = -1;
      }
    }
    loop->conns.clear();
    if (loop->epfd >= 0) ::close(loop->epfd);
    if (loop->wakefd >= 0) ::close(loop->wakefd);
  }
  loops_.clear();
  open_connections_.store(0, std::memory_order_relaxed);
  obs::MetricsRegistry::Global()
      .GetGauge("holix_server_open_connections")
      .Set(0.0);
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

void HolixServer::Post(IoLoop& loop, std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lk(loop.mu);
    loop.tasks.push_back(std::move(fn));
  }
  Wake(loop);
}

void HolixServer::Wake(IoLoop& loop) {
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(loop.wakefd, &one, sizeof(one));  // eventfd writes can't short
}

void HolixServer::NotifyDirty(const std::shared_ptr<Connection>& conn) {
  IoLoop* loop = conn->loop;
  {
    std::lock_guard<std::mutex> lk(loop->mu);
    loop->dirty.push_back(conn);
  }
  Wake(*loop);
}

void HolixServer::LoopRun(IoLoop& loop) {
  std::vector<epoll_event> events(128);
  while (!loop.stop.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(loop.epfd, events.data(),
                               static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epfd gone — only possible during teardown
    }
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events[i];
      if (ev.data.u64 == kWakeTag) {
        uint64_t drained;
        while (::read(loop.wakefd, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      if (ev.data.u64 == kListenTag) {
        AcceptReady(loop, listen_fd_, /*http=*/false);
        continue;
      }
      if (ev.data.u64 == kMetricsListenTag) {
        AcceptReady(loop, metrics_listen_fd_, /*http=*/true);
        continue;
      }
      auto* ptr = reinterpret_cast<Connection*>(ev.data.u64);
      auto it = loop.conns.find(ptr);
      if (it == loop.conns.end()) continue;  // destroyed earlier this round
      std::shared_ptr<Connection> conn = it->second;
      if (ev.events & (EPOLLERR | EPOLLHUP)) {
        DestroyConn(loop, conn);
        continue;
      }
      if (ev.events & (EPOLLIN | EPOLLRDHUP)) {
        ReadReady(loop, conn);
        if (loop.conns.find(ptr) == loop.conns.end()) continue;
      }
      if (ev.events & EPOLLOUT) {
        FlushWrites(loop, conn);
      }
    }
    // Cross-thread work: posted tasks, then completions parked by pool
    // threads (move outbox -> write queue, write, maybe resume decoding).
    std::vector<std::function<void()>> tasks;
    std::vector<std::shared_ptr<Connection>> dirty;
    {
      std::lock_guard<std::mutex> lk(loop.mu);
      tasks.swap(loop.tasks);
      dirty.swap(loop.dirty);
    }
    for (auto& t : tasks) t();
    for (auto& conn : dirty) {
      if (loop.conns.find(conn.get()) == loop.conns.end()) continue;
      FlushWrites(loop, conn);
    }
  }
}

void HolixServer::AcceptReady(IoLoop& loop, int listen_fd, bool http) {
  for (;;) {
    const int fd =
        ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // EAGAIN: burst drained (or listener closing)
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (!http) {
      // Scrapes don't count as protocol connections: the stats plane
      // should not perturb what it measures.
      total_connections_.fetch_add(1, std::memory_order_relaxed);
      static obs::Counter& accepted = obs::MetricsRegistry::Global().GetCounter(
          "holix_server_connections_total");
      static obs::Gauge& open_g = obs::MetricsRegistry::Global().GetGauge(
          "holix_server_open_connections");
      static obs::Gauge& peak_g = obs::MetricsRegistry::Global().GetGauge(
          "holix_server_peak_connections");
      accepted.Inc();
      const uint64_t open =
          open_connections_.fetch_add(1, std::memory_order_relaxed) + 1;
      uint64_t peak = peak_connections_.load(std::memory_order_relaxed);
      while (open > peak && !peak_connections_.compare_exchange_weak(
                                peak, open, std::memory_order_relaxed)) {
      }
      open_g.Set(static_cast<double>(open));
      peak_g.Max(static_cast<double>(open));
    }
    IoLoop& target =
        *loops_[next_loop_.fetch_add(1, std::memory_order_relaxed) %
                loops_.size()];
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->loop = &target;
    conn->http = http;
    if (&target == &loop) {
      RegisterConn(target, conn);
    } else {
      Post(target, [this, &target, conn] { RegisterConn(target, conn); });
    }
  }
}

void HolixServer::RegisterConn(IoLoop& loop,
                               const std::shared_ptr<Connection>& conn) {
  conn->events = EPOLLIN | EPOLLRDHUP;
  epoll_event ev{};
  ev.events = conn->events;
  ev.data.u64 = reinterpret_cast<uint64_t>(conn.get());
  if (::epoll_ctl(loop.epfd, EPOLL_CTL_ADD, conn->fd, &ev) < 0) {
    ::close(conn->fd);
    conn->fd = -1;
    return;
  }
  loop.conns.emplace(conn.get(), conn);
}

void HolixServer::ReadReady(IoLoop& loop,
                            const std::shared_ptr<Connection>& conn) {
  uint8_t chunk[64 * 1024];
  // Bounded rounds per event: level-triggered epoll re-fires when the
  // kernel buffer still holds data, so one connection cannot starve the
  // loop.
  for (int round = 0; round < 4; ++round) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn->rbuf.insert(conn->rbuf.end(), chunk, chunk + n);
      if (static_cast<size_t>(n) < sizeof(chunk)) break;
      continue;
    }
    if (n == 0) {
      conn->read_eof = true;  // close once in-flight answers are flushed
      break;
    }
    if (errno == EINTR) {
      --round;
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    DestroyConn(loop, conn);  // ECONNRESET and friends
    return;
  }
  if (conn->http) {
    HandleHttp(loop, conn);
  } else {
    DecodeFrames(loop, conn);
  }
  if (loop.conns.find(conn.get()) == loop.conns.end()) return;
  FlushWrites(loop, conn);
}

void HolixServer::HandleHttp(IoLoop& loop,
                             const std::shared_ptr<Connection>& conn) {
  // Minimal one-shot HTTP: wait for the end of the request head, answer,
  // close. No keep-alive, no chunking — exactly what a Prometheus scrape
  // or `curl` needs, served without leaving the event loop.
  const std::string_view buf(reinterpret_cast<const char*>(conn->rbuf.data()),
                             conn->rbuf.size());
  const size_t head_end = buf.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    if (conn->rbuf.size() > 16 * 1024 || conn->read_eof) {
      DestroyConn(loop, conn);  // oversized or truncated request head
    }
    return;
  }
  const std::string_view head = buf.substr(0, head_end);
  const std::string_view request_line = head.substr(0, head.find("\r\n"));
  std::string status = "404 Not Found";
  std::string body = "try GET /metrics\n";
  std::string content_type = "text/plain; charset=utf-8";
  if (request_line.rfind("GET /metrics", 0) == 0) {
    status = "200 OK";
    body = obs::PrometheusText(db_.MetricsSnapshot());
    content_type = "text/plain; version=0.0.4; charset=utf-8";
  }
  std::string response = "HTTP/1.0 " + status +
                         "\r\nContent-Type: " + content_type +
                         "\r\nContent-Length: " + std::to_string(body.size()) +
                         "\r\nConnection: close\r\n\r\n" +
                         body;
  conn->rbuf.clear();
  EnqueueLoop(loop, conn,
              std::vector<uint8_t>(response.begin(), response.end()));
  conn->close_after_flush = true;
  UpdateInterest(loop, *conn);
}

void HolixServer::DecodeFrames(IoLoop& loop,
                               const std::shared_ptr<Connection>& conn) {
  auto& reg = obs::MetricsRegistry::Global();
  static obs::Counter& decode_errors =
      reg.GetCounter("holix_server_decode_errors_total");
  static obs::Counter& backpressure =
      reg.GetCounter("holix_server_backpressure_toggles_total");
  size_t off = 0;
  while (!conn->draining && !conn->close_after_flush) {
    if (ShouldPause(*conn)) {
      conn->paused = true;
      backpressure.Inc();
      break;
    }
    Frame f;
    size_t consumed = 0;
    std::string error;
    const DecodeStatus st =
        TryDecodeFrame(conn->rbuf.data() + off, conn->rbuf.size() - off, &f,
                       &consumed, &error);
    if (st == DecodeStatus::kNeedMore) break;
    if (st == DecodeStatus::kMalformed) {
      decode_errors.Inc();
      EnqueueError(loop, conn, 0, ErrorCode::kMalformedFrame, error);
      conn->close_after_flush = true;
      break;
    }
    off += consumed;
    if (!conn->handshaken) {
      Hello hello;
      if (f.type != MsgType::kHello || !DecodeMessage(f, &hello)) {
        decode_errors.Inc();
        EnqueueError(loop, conn, f.request_id, ErrorCode::kMalformedFrame,
                     "expected Hello");
        conn->close_after_flush = true;
        break;
      }
      if (hello.magic != kMagic || hello.version != kProtocolVersion) {
        decode_errors.Inc();
        EnqueueError(loop, conn, f.request_id, ErrorCode::kVersionMismatch,
                     "server speaks protocol version " +
                         std::to_string(kProtocolVersion));
        conn->close_after_flush = true;
        break;
      }
      EnqueueLoop(loop, conn, EncodeMessage(f.request_id, HelloAck{}));
      conn->handshaken = true;
      continue;
    }
    if (!HandleFrame(loop, conn, f)) {
      conn->close_after_flush = true;
      break;
    }
  }
  if (off > 0) {
    conn->rbuf.erase(conn->rbuf.begin(),
                     conn->rbuf.begin() + static_cast<ptrdiff_t>(off));
  }
  UpdateInterest(loop, *conn);
}

bool HolixServer::ShouldPause(Connection& conn) const {
  size_t in_flight, outbox_bytes;
  {
    std::lock_guard<std::mutex> lk(conn.out_mu);
    in_flight = conn.in_flight;
    outbox_bytes = conn.outbox_bytes;
  }
  return in_flight >= options_.max_in_flight_per_connection ||
         conn.wq_bytes + outbox_bytes >=
             options_.max_queued_bytes_per_connection;
}

void HolixServer::FlushWrites(IoLoop& loop,
                              const std::shared_ptr<Connection>& conn) {
  size_t in_flight;
  {
    std::lock_guard<std::mutex> lk(conn->out_mu);
    for (auto& frame : conn->outbox) {
      conn->wq_bytes += frame.size();
      conn->wq.push_back(std::move(frame));
    }
    conn->outbox.clear();
    conn->outbox_bytes = 0;
    in_flight = conn->in_flight;
  }
  while (!conn->wq.empty()) {
    const std::vector<uint8_t>& front = conn->wq.front();
    const ssize_t n = ::send(conn->fd, front.data() + conn->wq_off,
                             front.size() - conn->wq_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      DestroyConn(loop, conn);  // peer gone; pending responses are moot
      return;
    }
    conn->wq_off += static_cast<size_t>(n);
    if (conn->wq_off == front.size()) {
      conn->wq_bytes -= front.size();
      conn->wq.pop_front();
      conn->wq_off = 0;
    }
  }
  if (conn->wq.empty() && in_flight == 0 &&
      (conn->close_after_flush || conn->read_eof)) {
    DestroyConn(loop, conn);
    return;
  }
  // The window may have reopened (responses delivered / in-flight down):
  // resume decoding whatever already sits in the read buffer.
  if (conn->paused && !ShouldPause(*conn)) {
    conn->paused = false;
    static obs::Counter& backpressure = obs::MetricsRegistry::Global()
        .GetCounter("holix_server_backpressure_toggles_total");
    backpressure.Inc();
    DecodeFrames(loop, conn);
    if (loop.conns.find(conn.get()) == loop.conns.end()) return;
  }
  UpdateInterest(loop, *conn);
}

void HolixServer::UpdateInterest(IoLoop& loop, Connection& conn) {
  if (conn.fd < 0) return;
  uint32_t desired = EPOLLRDHUP;
  if (!conn.paused && !conn.draining && !conn.read_eof &&
      !conn.close_after_flush) {
    desired |= EPOLLIN;
  }
  if (!conn.wq.empty()) desired |= EPOLLOUT;
  if (desired == conn.events) return;
  epoll_event ev{};
  ev.events = desired;
  ev.data.u64 = reinterpret_cast<uint64_t>(&conn);
  if (::epoll_ctl(loop.epfd, EPOLL_CTL_MOD, conn.fd, &ev) == 0) {
    conn.events = desired;
  }
}

void HolixServer::DestroyConn(IoLoop& loop,
                              const std::shared_ptr<Connection>& conn) {
  {
    std::lock_guard<std::mutex> lk(conn->out_mu);
    conn->closed = true;
  }
  if (conn->fd >= 0) {
    ::epoll_ctl(loop.epfd, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::close(conn->fd);
    conn->fd = -1;
  }
  if (loop.conns.erase(conn.get()) > 0 && !conn->http) {
    const uint64_t open =
        open_connections_.fetch_sub(1, std::memory_order_relaxed) - 1;
    obs::MetricsRegistry::Global()
        .GetGauge("holix_server_open_connections")
        .Set(static_cast<double>(open));
  }
  // In-flight queries against this connection finish on the pool and see
  // `closed`; their completions are dropped. The shared_ptr in their
  // closures keeps the Connection (and its sessions) alive until then.
}

// ---------------------------------------------------------------------------
// Frame handling and dispatch
// ---------------------------------------------------------------------------

std::vector<uint8_t> HolixServer::EncodeError(uint64_t request_id,
                                              ErrorCode code,
                                              const std::string& message) {
  ErrorMsg err;
  err.code = code;
  err.message = message.size() > kMaxStringBytes
                    ? message.substr(0, kMaxStringBytes)
                    : message;
  return EncodeMessage(request_id, err);
}

void HolixServer::EnqueueLoop(IoLoop& loop,
                              const std::shared_ptr<Connection>& conn,
                              std::vector<uint8_t> bytes) {
  (void)loop;
  conn->wq_bytes += bytes.size();
  conn->wq.push_back(std::move(bytes));
  // No immediate write: DecodeFrames' caller flushes once per readable
  // event, batching small acks into one send.
}

void HolixServer::EnqueueError(IoLoop& loop,
                               const std::shared_ptr<Connection>& conn,
                               uint64_t request_id, ErrorCode code,
                               const std::string& message) {
  EnqueueLoop(loop, conn, EncodeError(request_id, code, message));
}

void HolixServer::BeginRequest(Connection& conn) {
  {
    std::lock_guard<std::mutex> lk(conn.out_mu);
    ++conn.in_flight;
  }
  global_in_flight_.fetch_add(1, std::memory_order_relaxed);
  total_requests_.fetch_add(1, std::memory_order_relaxed);
  auto& reg = obs::MetricsRegistry::Global();
  static obs::Counter& requests = reg.GetCounter("holix_server_requests_total");
  static obs::Gauge& in_flight = reg.GetGauge("holix_server_in_flight");
  requests.Inc();
  in_flight.Add(1.0);
}

void HolixServer::CompleteRequest(const std::shared_ptr<Connection>& conn,
                                  std::vector<uint8_t> frame) {
  auto& reg = obs::MetricsRegistry::Global();
  static obs::Counter& outbox_bytes =
      reg.GetCounter("holix_server_outbox_bytes_total");
  static obs::Gauge& in_flight = reg.GetGauge("holix_server_in_flight");
  {
    std::lock_guard<std::mutex> lk(conn->out_mu);
    --conn->in_flight;
    if (!conn->closed) {
      outbox_bytes.Inc(frame.size());
      conn->outbox_bytes += frame.size();
      conn->outbox.push_back(std::move(frame));
    }
  }
  in_flight.Add(-1.0);
  NotifyDirty(conn);
  // Decrement strictly after NotifyDirty: Stop() takes global == 0 to mean
  // every completion is visible to its loop.
  global_in_flight_.fetch_sub(1, std::memory_order_release);
}

template <typename Req, typename Fn>
bool HolixServer::DispatchQuery(IoLoop& loop,
                                const std::shared_ptr<Connection>& conn,
                                const Frame& f, Fn&& run) {
  Req req;
  if (!DecodeMessage(f, &req)) {
    EnqueueError(loop, conn, f.request_id, ErrorCode::kMalformedFrame,
                 std::string("malformed ") + MsgTypeName(f.type));
    return false;
  }
  auto it = conn->sessions.find(req.session_id);
  if (it == conn->sessions.end()) {
    EnqueueError(loop, conn, f.request_id, ErrorCode::kNoSuchSession,
                 "unknown session " + std::to_string(req.session_id));
    return true;
  }
  Session& sess = it->second;
  // Resolve handles on the loop thread (the session's handle cache is
  // single-threaded by contract); build the pool closure, or report a
  // resolution error without closing the connection.
  std::function<std::vector<uint8_t>()> work;
  try {
    work = run(sess, req, f.request_id);
  } catch (const std::out_of_range& e) {
    EnqueueError(loop, conn, f.request_id, ErrorCode::kNoSuchColumn, e.what());
    return true;
  }
  BeginRequest(*conn);
  const uint64_t request_id = f.request_id;
  sess.SubmitRaw([this, conn, request_id, work = std::move(work)] {
    std::vector<uint8_t> frame;
    try {
      frame = work();
    } catch (const std::exception& e) {
      frame = EncodeError(request_id, ErrorCode::kQueryFailed, e.what());
    } catch (...) {
      frame = EncodeError(request_id, ErrorCode::kQueryFailed, "unknown error");
    }
    CompleteRequest(conn, std::move(frame));
  });
  return true;
}

bool HolixServer::HandleFrame(IoLoop& loop,
                              const std::shared_ptr<Connection>& conn,
                              const Frame& f) {
  Database* db = &db_;
  switch (f.type) {
    case MsgType::kOpenSession: {
      OpenSessionReq req;
      if (!DecodeMessage(f, &req)) {
        EnqueueError(loop, conn, f.request_id, ErrorCode::kMalformedFrame,
                     "malformed OpenSession");
        return false;
      }
      if (conn->sessions.size() >= options_.max_sessions_per_connection) {
        EnqueueError(loop, conn, f.request_id, ErrorCode::kQueryFailed,
                     "session cap reached: " +
                         std::to_string(options_.max_sessions_per_connection));
        return true;
      }
      Session session = db_.OpenSession();
      OpenSessionAck ack;
      ack.session_id = session.id();
      conn->sessions.emplace(ack.session_id, std::move(session));
      EnqueueLoop(loop, conn, EncodeMessage(f.request_id, ack));
      return true;
    }
    case MsgType::kCloseSession: {
      CloseSessionReq req;
      if (!DecodeMessage(f, &req)) {
        EnqueueError(loop, conn, f.request_id, ErrorCode::kMalformedFrame,
                     "malformed CloseSession");
        return false;
      }
      if (conn->sessions.erase(req.session_id) == 0) {
        EnqueueError(loop, conn, f.request_id, ErrorCode::kNoSuchSession,
                     "unknown session " + std::to_string(req.session_id));
        return true;
      }
      EnqueueLoop(loop, conn, EncodeMessage(f.request_id, CloseSessionAck{}));
      return true;
    }
    case MsgType::kExecuteQuery:
      return DispatchQuery<ExecuteQueryReq>(
          loop, conn, f,
          [db](Session& s, const ExecuteQueryReq& r, uint64_t id) {
            // Resolve every named column on the loop thread (session
            // handle cache); the engine validates conjunction shape and
            // same-table membership when the closure runs.
            QuerySpec spec;
            spec.predicates.reserve(r.predicates.size());
            for (const QueryPredicateWire& p : r.predicates) {
              spec.predicates.push_back(
                  {s.Handle(r.table, p.column), p.low, p.high});
            }
            spec.results.reserve(r.results.size());
            for (const QueryResultSpecWire& res : r.results) {
              ResultSpec rs;
              rs.kind = static_cast<ResultRequest>(res.kind);
              if (rs.kind == ResultRequest::kSum ||
                  rs.kind == ResultRequest::kProjectSum) {
                rs.column = s.Handle(r.table, res.column);
              }
              spec.results.push_back(std::move(rs));
            }
            return [db, id, spec = std::move(spec)]() -> std::vector<uint8_t> {
              QueryResult qr = db->Execute(spec, QueryContext{});
              ExecuteQueryResult res;
              res.values = std::move(qr.values);
              res.rowids = std::move(qr.rowids);  // PositionList is the
                                                  // same vector type
              if (res.rowids.size() * sizeof(uint64_t) +
                      res.values.size() * 9 + 32 >
                  kMaxPayloadBytes) {
                return EncodeError(id, ErrorCode::kQueryFailed,
                                   "result exceeds frame cap: " +
                                       std::to_string(res.rowids.size()) +
                                       " rowids");
              }
              return EncodeMessage(id, res);
            };
          });
    case MsgType::kInsert:
      return DispatchQuery<InsertReq>(
          loop, conn, f, [db](Session& s, const InsertReq& r, uint64_t id) {
            ColumnHandle h = s.Handle(r.table, r.column);
            const KeyScalar value = r.value;
            return [db, id, h, value] {
              InsertResult res;
              res.rowid = db->Insert(h, value, QueryContext{});
              return EncodeMessage(id, res);
            };
          });
    case MsgType::kDelete:
      return DispatchQuery<DeleteReq>(
          loop, conn, f, [db](Session& s, const DeleteReq& r, uint64_t id) {
            ColumnHandle h = s.Handle(r.table, r.column);
            const KeyScalar value = r.value;
            return [db, id, h, value] {
              DeleteResult res;
              res.found = db->Delete(h, value, QueryContext{});
              return EncodeMessage(id, res);
            };
          });
    case MsgType::kGetStats: {
      GetStatsReq req;
      if (!DecodeMessage(f, &req)) {
        EnqueueError(loop, conn, f.request_id, ErrorCode::kMalformedFrame,
                     "malformed GetStats");
        return false;
      }
      // Served inline on the loop thread, with no BeginRequest: the stats
      // plane must not count itself into the request totals or the
      // in-flight window it reports. Both this path and the in-process
      // Database::MetricsSnapshot() go through the same function, so a
      // quiesced engine answers bit-identically over the wire and in
      // process.
      GetStatsResult res;
      res.snapshot = db_.MetricsSnapshot();
      EnqueueLoop(loop, conn, EncodeMessage(f.request_id, res));
      return true;
    }
    default:
      EnqueueError(loop, conn, f.request_id, ErrorCode::kUnknownMessage,
                   std::string("unexpected ") + MsgTypeName(f.type));
      return true;
  }
}

}  // namespace holix::net
