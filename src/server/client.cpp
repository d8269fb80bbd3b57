#include "server/client.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

namespace holix::net {

namespace {

[[noreturn]] void ThrowErrno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Builds an ExecuteQuery request (session id left for the caller),
/// rejecting counts the frame cannot carry before anything is sent.
ExecuteQueryReq MakeQueryReq(const std::string& table,
                             const std::vector<QueryPredicateWire>& predicates,
                             const std::vector<QueryResultSpecWire>& results) {
  if (predicates.empty() || predicates.size() > kMaxQueryPredicates ||
      results.empty() || results.size() > kMaxQueryResults) {
    throw std::invalid_argument(
        "ExecuteQuery: predicate/result count out of protocol bounds");
  }
  ExecuteQueryReq req;
  req.table = table;
  req.predicates = predicates;
  req.results = results;
  return req;
}

}  // namespace

HolixClient::~HolixClient() { Close(); }

HolixClient::HolixClient(HolixClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      next_request_id_(other.next_request_id_),
      acc_(std::move(other.acc_)),
      stash_(std::move(other.stash_)),
      host_(std::move(other.host_)),
      port_(other.port_),
      opts_(other.opts_),
      next_session_handle_(other.next_session_handle_),
      sessions_(std::move(other.sessions_)) {}

HolixClient& HolixClient::operator=(HolixClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    next_request_id_ = other.next_request_id_;
    acc_ = std::move(other.acc_);
    stash_ = std::move(other.stash_);
    host_ = std::move(other.host_);
    port_ = other.port_;
    opts_ = other.opts_;
    next_session_handle_ = other.next_session_handle_;
    sessions_ = std::move(other.sessions_);
  }
  return *this;
}

void HolixClient::Close() {
  // Session handles survive: they are re-bound by the next reconnect.
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  acc_.clear();
  stash_.clear();
}

void HolixClient::Connect(const std::string& host, uint16_t port,
                          ClientOptions options) {
  Close();
  host_ = host;
  port_ = port;
  opts_ = options;
  sessions_.clear();
  next_session_handle_ = 1;
  Dial();
}

void HolixClient::Dial() {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) ThrowErrno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    Close();
    throw std::runtime_error("bad host address: " + host_);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    // A signal can interrupt connect() mid-handshake; the connection then
    // completes (or fails) asynchronously. Retrying connect() would return
    // EALREADY/EISCONN, so wait for writability and read the real outcome
    // from SO_ERROR instead.
    bool recovered = false;
    if (errno == EINTR) {
      pollfd pfd{fd_, POLLOUT, 0};
      while (::poll(&pfd, 1, -1) < 0 && errno == EINTR) {
      }
      int soerr = 0;
      socklen_t slen = sizeof(soerr);
      if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &soerr, &slen) == 0 &&
          soerr == 0) {
        recovered = true;
      } else {
        errno = soerr != 0 ? soerr : errno;
      }
    }
    if (!recovered) {
      const std::string err = std::strerror(errno);
      Close();
      throw ConnectionLost("connect " + host_ + ":" + std::to_string(port_) +
                           ": " + err);
    }
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Version handshake before anything else.
  const uint64_t id = SendMessage(Hello{});
  (void)Expect<HelloAck>(AwaitFrame(id));
}

void HolixClient::SendBytes(const std::vector<uint8_t>& bytes) {
  if (fd_ < 0) throw ConnectionLost("client not connected");
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string err = std::strerror(errno);
      Close();
      throw ConnectionLost("send: " + err);
    }
    off += static_cast<size_t>(n);
  }
}

Frame HolixClient::AwaitFrame(uint64_t request_id) {
  // Already stashed by an earlier out-of-order read?
  if (auto it = stash_.find(request_id); it != stash_.end()) {
    Frame f = std::move(it->second);
    stash_.erase(it);
    return f;
  }
  uint8_t chunk[64 * 1024];
  for (;;) {
    // Drain complete frames out of the accumulator first.
    size_t off = 0;
    for (;;) {
      Frame f;
      size_t consumed = 0;
      std::string error;
      const DecodeStatus st = TryDecodeFrame(
          acc_.data() + off, acc_.size() - off, &f, &consumed, &error);
      if (st == DecodeStatus::kMalformed) {
        Close();
        throw std::runtime_error("malformed frame from server: " + error);
      }
      if (st == DecodeStatus::kNeedMore) break;
      off += consumed;
      if (f.request_id == request_id) {
        acc_.erase(acc_.begin(), acc_.begin() + static_cast<ptrdiff_t>(off));
        return f;
      }
      stash_.emplace(f.request_id, std::move(f));
    }
    acc_.erase(acc_.begin(), acc_.begin() + static_cast<ptrdiff_t>(off));
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) {
      Close();
      throw ConnectionLost("server closed the connection");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string err = std::strerror(errno);
      Close();
      throw ConnectionLost("recv: " + err);
    }
    acc_.insert(acc_.end(), chunk, chunk + n);
  }
}

template <typename M>
M HolixClient::Expect(const Frame& f) {
  if (f.type == MsgType::kError) {
    ErrorMsg err;
    if (DecodeMessage(f, &err)) {
      throw std::runtime_error("server error " +
                               std::to_string(static_cast<int>(err.code)) +
                               ": " + err.message);
    }
    throw std::runtime_error("undecodable server error frame");
  }
  M out;
  if (!DecodeMessage(f, &out)) {
    throw std::runtime_error(std::string("unexpected response frame ") +
                             MsgTypeName(f.type) + " (wanted " +
                             MsgTypeName(M::kType) + ")");
  }
  return out;
}

void HolixClient::EnsureConnected() {
  if (fd_ >= 0) return;
  if (host_.empty() || !opts_.reconnect) {
    throw ConnectionLost("client not connected");
  }
  Dial();
  // Server sessions are per-connection — the old ones died with the old
  // socket. Re-bind every live handle to a fresh server session so handles
  // held by the caller keep working.
  for (auto& [handle, server_id] : sessions_) {
    const uint64_t id = SendMessage(OpenSessionReq{});
    server_id = Expect<OpenSessionAck>(AwaitFrame(id)).session_id;
  }
}

uint64_t HolixClient::ServerSession(uint64_t handle) const {
  const auto it = sessions_.find(handle);
  return it != sessions_.end() ? it->second : handle;
}

template <typename Resp, typename Req>
Resp HolixClient::Transact(Req req, uint64_t session_handle, bool idempotent) {
  int attempt = 0;
  double delay = opts_.backoff_initial_seconds;
  for (;;) {
    // Whether this attempt's request bytes may have reached the server. A
    // loss before the send is always safe to retry (even for updates); one
    // after it leaves the ack ambiguous, so only idempotent requests go out
    // again.
    bool sent = false;
    try {
      EnsureConnected();
      if constexpr (requires { req.session_id; }) {
        if (session_handle != 0) req.session_id = ServerSession(session_handle);
      }
      sent = true;
      const uint64_t id = SendMessage(req);
      return Expect<Resp>(AwaitFrame(id));
    } catch (const ConnectionLost&) {
      if (!opts_.reconnect || host_.empty()) throw;
      if (sent && !idempotent) throw;
      if (++attempt >= opts_.max_attempts) throw;
      std::this_thread::sleep_for(std::chrono::duration<double>(delay));
      delay = std::min(delay * 2.0, opts_.backoff_max_seconds);
    }
  }
}

uint64_t HolixClient::OpenSession() {
  const uint64_t server_id =
      Transact<OpenSessionAck>(OpenSessionReq{}, 0, /*idempotent=*/true)
          .session_id;
  const uint64_t handle = next_session_handle_++;
  sessions_[handle] = server_id;
  return handle;
}

void HolixClient::CloseSession(uint64_t session_id) {
  (void)Transact<CloseSessionAck>(CloseSessionReq{}, session_id,
                                  /*idempotent=*/true);
  sessions_.erase(session_id);
}

obs::MetricsSnapshot HolixClient::GetStats() {
  return Transact<GetStatsResult>(GetStatsReq{}, 0, /*idempotent=*/true)
      .snapshot;
}

ExecuteQueryResult HolixClient::ExecuteQuery(
    uint64_t session_id, const std::string& table,
    const std::vector<QueryPredicateWire>& predicates,
    const std::vector<QueryResultSpecWire>& results) {
  return Transact<ExecuteQueryResult>(
      MakeQueryReq(table, predicates, results), session_id,
      /*idempotent=*/true);
}

uint64_t HolixClient::SendExecuteQuery(
    uint64_t session_id, const std::string& table,
    const std::vector<QueryPredicateWire>& predicates,
    const std::vector<QueryResultSpecWire>& results) {
  ExecuteQueryReq req = MakeQueryReq(table, predicates, results);
  req.session_id = ServerSession(session_id);
  return SendMessage(req);
}

ExecuteQueryResult HolixClient::AwaitExecuteQuery(uint64_t request_id) {
  return Expect<ExecuteQueryResult>(AwaitFrame(request_id));
}

uint64_t HolixClient::Insert(uint64_t session_id, const std::string& table,
                             const std::string& column, KeyScalar value) {
  InsertReq req;
  req.table = table;
  req.column = column;
  req.value = value;
  return Transact<InsertResult>(std::move(req), session_id,
                                /*idempotent=*/false)
      .rowid;
}

bool HolixClient::Delete(uint64_t session_id, const std::string& table,
                         const std::string& column, KeyScalar value) {
  DeleteReq req;
  req.table = table;
  req.column = column;
  req.value = value;
  return Transact<DeleteResult>(std::move(req), session_id,
                                /*idempotent=*/false)
      .found;
}

}  // namespace holix::net
