/// Soak test of the event-loop server (label: slow): a 1k-connection
/// sweep holding every socket open at once, connect/close churn with
/// abrupt RST disconnects mid-frame, and pipelined queries racing
/// inserts — all while asserting the process leaks neither file
/// descriptors nor server threads across Start/Stop.
///
/// HOLIX_SOAK_CONNECTIONS scales the sweep down for slow configurations
/// (the TSan CI job sets it); the default exercises the fig17_socket
/// regime of 1024 concurrent connections on a handful of IO threads.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "server/client.h"
#include "server/server.h"
#include "test_support.h"

namespace holix::net {
namespace {

constexpr int64_t kDomain = 1 << 20;

size_t SoakConnections() {
  size_t n = 1024;
  if (const char* env = std::getenv("HOLIX_SOAK_CONNECTIONS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) n = static_cast<size_t>(v);
  }
  // Client and server fds both live in this process, so each connection
  // costs two; clamp to the soft RLIMIT_NOFILE with headroom for the
  // database, gtest and the loops' epoll/event fds.
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) == 0 && rl.rlim_cur != RLIM_INFINITY &&
      rl.rlim_cur > 256) {
    n = std::min(n, (static_cast<size_t>(rl.rlim_cur) - 128) / 2);
  }
  return n;
}

/// Open fds of this process, via /proc/self/fd (Linux-only, like epoll).
size_t OpenFdCount() {
  size_t count = 0;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count >= 3 ? count - 3 : 0;  // ".", "..", the dirfd itself
}

/// Raw socket that can half-send a frame and reset (RST) the connection.
class AbruptConn {
 public:
  explicit AbruptConn(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~AbruptConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }
  void Send(const uint8_t* data, size_t n) {
    while (n > 0 && fd_ >= 0) {
      const ssize_t w = ::send(fd_, data, n, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        return;
      }
      data += w;
      n -= static_cast<size_t>(w);
    }
  }
  void Reset() {
    if (fd_ < 0) return;
    linger lg{1, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
};

TEST(ServerSoak, ThousandConnectionsChurnRstAndRacesWithoutLeaks) {
  const size_t kConns = SoakConnections();
  const size_t kWorkers = 8;

  Database db([] {
    DatabaseOptions opts;
    opts.mode = ExecMode::kAdaptive;
    opts.user_threads = 2;
    opts.total_cores = 4;
    return opts;
  }());
  const auto data = test::MakeUniform(100000, kDomain, 41);
  db.LoadColumn("r", "a", data);
  const uint64_t base_count = data.size();

  // Warm the database's lazily-created pools BEFORE the fd baseline:
  // Start/Stop must account for every fd and thread it creates, while the
  // engine's pools legitimately persist.
  {
    Session warm = db.OpenSession();
    (void)test::Count(warm, warm.Handle("r", "a"), 0, kDomain);
  }
  {
    HolixServer warm_srv(db);
    warm_srv.Start();
    HolixClient warm_cli;
    warm_cli.Connect("127.0.0.1", warm_srv.port());
    const uint64_t sid = warm_cli.OpenSession();
    (void)test::WireCount(warm_cli, sid, "r", "a", 0, kDomain);
    warm_cli.Close();
    warm_srv.Stop();
  }

  const size_t fds_before = OpenFdCount();

  HolixServer server(db);
  server.Start();
  const uint16_t port = server.port();

  // --- Phase 1: every connection open at once --------------------------
  // kConns sockets held concurrently across kWorkers threads; each runs
  // one query so the server proves it can *serve*, not just accept, at
  // this width.
  {
    std::atomic<uint64_t> checksum{0};
    std::atomic<size_t> failures{0};
    std::vector<std::thread> workers;
    for (size_t w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        const size_t lo = w * kConns / kWorkers;
        const size_t hi = (w + 1) * kConns / kWorkers;
        std::vector<HolixClient> clients(hi - lo);
        std::vector<uint64_t> sids(hi - lo);
        uint64_t local = 0;
        try {
          for (size_t i = 0; i < clients.size(); ++i) {
            clients[i].Connect("127.0.0.1", port);
            sids[i] = clients[i].OpenSession();
          }
          for (size_t i = 0; i < clients.size(); ++i) {
            const int64_t q = static_cast<int64_t>((lo + i) % 97) *
                              (kDomain / 97);
            local += test::WireCount(clients[i], sids[i], "r", "a", q,
                                     q + kDomain / 8);
          }
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
        checksum.fetch_add(local);
      });
    }
    for (auto& t : workers) t.join();
    EXPECT_EQ(failures.load(), 0u);

    // Oracle from one in-process session.
    Session oracle = db.OpenSession();
    const ColumnHandle h = oracle.Handle("r", "a");
    uint64_t expect = 0;
    for (size_t i = 0; i < kConns; ++i) {
      const int64_t q = static_cast<int64_t>(i % 97) * (kDomain / 97);
      expect += test::Count(oracle, h, q, q + kDomain / 8);
    }
    EXPECT_EQ(checksum.load(), expect);
    EXPECT_GE(server.TotalConnections(), kConns);
  }

  // --- Phase 2: connect/close churn with abrupt RSTs --------------------
  // Rapid short-lived connections; every 5th dies by RST halfway through
  // a frame (half a valid ExecuteQuery header+payload on the wire).
  {
    ExecuteQueryReq half;
    half.session_id = 1;
    half.table = "r";
    half.predicates = {{"a", KeyScalar::I64(0), KeyScalar::I64(kDomain)}};
    half.results = {{0, ""}};
    const std::vector<uint8_t> hello_frame = EncodeMessage(1, Hello{});
    const std::vector<uint8_t> half_frame = EncodeMessage(2, half);

    std::atomic<size_t> failures{0};
    std::vector<std::thread> workers;
    for (size_t w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        const size_t n = kConns / kWorkers;
        for (size_t i = 0; i < n; ++i) {
          if ((w + i) % 5 == 0) {
            AbruptConn raw(port);
            if (!raw.ok()) {
              failures.fetch_add(1);
              continue;
            }
            raw.Send(hello_frame.data(), hello_frame.size());
            raw.Send(half_frame.data(), half_frame.size() / 2);
            raw.Reset();
            continue;
          }
          try {
            HolixClient c;
            c.Connect("127.0.0.1", port);
            const uint64_t sid = c.OpenSession();
            (void)test::WireCount(c, sid, "r", "a", 0, kDomain / 4);
          } catch (const std::exception&) {
            failures.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : workers) t.join();
    EXPECT_EQ(failures.load(), 0u);
  }

  // --- Phase 3: pipelined queries racing inserts ------------------------
  // Readers pipeline full-domain counts while writers insert; every
  // response must be a valid count in [base, base + total_inserts].
  const size_t kInsertsPerWriter = 50;
  const size_t kWriters = 2;
  {
    std::atomic<size_t> failures{0};
    std::vector<std::thread> threads;
    for (size_t w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        try {
          HolixClient c;
          c.Connect("127.0.0.1", port);
          const uint64_t sid = c.OpenSession();
          for (size_t i = 0; i < kInsertsPerWriter; ++i) {
            c.Insert(sid, "r", "a",
                     static_cast<int64_t>((w * kInsertsPerWriter + i) %
                                          kDomain));
          }
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
      });
    }
    const uint64_t max_count = base_count + kWriters * kInsertsPerWriter;
    for (size_t rdr = 0; rdr < 4; ++rdr) {
      threads.emplace_back([&] {
        try {
          HolixClient c;
          c.Connect("127.0.0.1", port);
          const uint64_t sid = c.OpenSession();
          std::vector<uint64_t> ids;
          for (int i = 0; i < 40; ++i) {
            ids.push_back(test::SendWireCount(c, sid, "r", "a", 0, kDomain));
          }
          for (uint64_t id : ids) {
            const uint64_t n = test::AwaitWireCount(c, id);
            if (n < base_count || n > max_count) failures.fetch_add(1);
          }
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(failures.load(), 0u);

    Session oracle = db.OpenSession();
    EXPECT_EQ(test::Count(oracle, oracle.Handle("r", "a"), 0, kDomain),
              max_count);
  }

  server.Stop();

  // --- No leaks ----------------------------------------------------------
  // Every socket, epoll fd and eventfd Start() created is closed; client
  // fds released as the clients above went out of scope. TIME_WAIT etc.
  // hold no fds, so the count returns to the baseline exactly.
  const size_t fds_after = OpenFdCount();
  EXPECT_EQ(fds_after, fds_before);
}

}  // namespace
}  // namespace holix::net
