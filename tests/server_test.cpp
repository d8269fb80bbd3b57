/// Loopback tests of the network service layer: lifecycle, handshake
/// version enforcement, malformed-stream handling, error frames that keep
/// the connection alive, concurrent socket clients whose mixed
/// read/insert results checksum-match an in-process session run, pipelined
/// out-of-order completion, and clean shutdown draining in-flight queries.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "server/client.h"
#include "server/server.h"
#include "test_support.h"
#include "workload/workload.h"

namespace holix::net {
namespace {

constexpr int64_t kDomain = 1 << 20;

DatabaseOptions SmallDbOptions() {
  DatabaseOptions opts;
  opts.mode = ExecMode::kAdaptive;
  opts.user_threads = 2;
  opts.total_cores = 4;
  return opts;
}

/// A raw loopback socket for protocol-violation tests (HolixClient refuses
/// to misbehave, so these speak bytes directly).
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  void Send(const std::vector<uint8_t>& bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Reads frames until one arrives (EXPECT-fails on close/garbage).
  Frame ReadFrame() {
    std::vector<uint8_t> acc;
    uint8_t chunk[4096];
    for (;;) {
      Frame f;
      size_t consumed = 0;
      std::string error;
      if (TryDecodeFrame(acc.data(), acc.size(), &f, &consumed, &error) ==
          DecodeStatus::kFrame) {
        return f;
      }
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      EXPECT_GT(n, 0) << "connection closed before a frame arrived";
      if (n <= 0) return {};
      acc.insert(acc.end(), chunk, chunk + n);
    }
  }

  /// True when the server closed the connection (EOF) within ~2s.
  bool WaitForClose() {
    uint8_t buf[256];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return true;
      if (n < 0) return false;
    }
  }

  int fd() const { return fd_; }

  /// Abruptly resets the connection: SO_LINGER 0 turns close() into RST,
  /// the rudest disconnect a peer can deliver.
  void Reset() {
    linger lg{1, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
};

TEST(Server, StartStopLifecycle) {
  Database db(SmallDbOptions());
  db.LoadColumn("r", "a", test::MakeUniform(1000, kDomain, 1));
  HolixServer server(db);
  EXPECT_FALSE(server.running());
  server.Start();
  EXPECT_TRUE(server.running());
  EXPECT_GT(server.port(), 0);  // ephemeral bind resolved
  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent
  // Restartable after a stop.
  server.Start();
  EXPECT_TRUE(server.running());
  server.Stop();
}

TEST(Server, SyncQueriesMatchInProcessSession) {
  Database db(SmallDbOptions());
  const auto data = test::MakeUniform(50000, kDomain, 2);
  db.LoadColumn("r", "a", data);
  HolixServer server(db);
  server.Start();

  HolixClient client;
  client.Connect("127.0.0.1", server.port());
  const uint64_t sid = client.OpenSession();

  Session inproc = db.OpenSession();
  Rng rng(3);
  for (int i = 0; i < 32; ++i) {
    const int64_t lo = static_cast<int64_t>(rng.Below(kDomain));
    const int64_t hi = lo + 1 + static_cast<int64_t>(rng.Below(kDomain / 4));
    ASSERT_EQ(test::WireCount(client, sid, "r", "a", lo, hi),
              test::Count(inproc, inproc.Handle("r", "a"), lo, hi))
        << "query " << i;
  }
  EXPECT_EQ(test::WireSum(client, sid, "r", "a", 100, 90000).i,
            test::Sum(inproc, inproc.Handle("r", "a"), 100, 90000).i);
  const auto rowids =
      test::WireQuery(client, sid, "r", "a", 100, 9000, /*rowids*/ 2).rowids;
  EXPECT_EQ(rowids.size(),
            test::RowIds(inproc, inproc.Handle("r", "a"), 100, 9000).size());
  client.CloseSession(sid);
  client.Close();
  server.Stop();
}

TEST(Server, ProjectSumAndUpdatesOverTheWire) {
  Database db(SmallDbOptions());
  const auto a = test::MakeUniform(20000, kDomain, 4);
  const auto b = test::MakeUniform(20000, kDomain, 5);
  db.LoadColumn("r", "a", a);
  db.LoadColumn("r", "b", b);
  HolixServer server(db);
  server.Start();
  HolixClient client;
  client.Connect("127.0.0.1", server.port());
  const uint64_t sid = client.OpenSession();

  int64_t naive = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] >= 100 && a[i] < 90000) naive += b[i];
  }
  // Result kind 3: project-sum of b over the select on a.
  EXPECT_EQ(
      test::WireQuery(client, sid, "r", "a", 100, 90000, 3, "b").values[0].i,
      naive);

  // Insert outside the base domain, read it back, delete it.
  const int64_t band = int64_t{1} << 21;
  EXPECT_EQ(test::WireCount(client, sid, "r", "a", band, band + 10), 0u);
  client.Insert(sid, "r", "a", band + 5);
  EXPECT_EQ(test::WireCount(client, sid, "r", "a", band, band + 10), 1u);
  EXPECT_TRUE(client.Delete(sid, "r", "a", band + 5));
  EXPECT_FALSE(client.Delete(sid, "r", "a", band + 5));
  EXPECT_EQ(test::WireCount(client, sid, "r", "a", band, band + 10), 0u);
  server.Stop();
}

TEST(Server, DoubleColumnTypedScalarsOverTheWire) {
  // A double attribute served over loopback: f64 bounds select exactly,
  // the sum comes back as a genuine double scalar, and the NaN/-0.0/+inf
  // keys behave like the in-process facade.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Database db(SmallDbOptions());
  const std::vector<double> prices =
      GenerateUniformDoubleColumn(20000, kDomain, 6);
  db.LoadColumn<double>("r", "price", prices);
  HolixServer server(db);
  server.Start();
  HolixClient client;
  client.Connect("127.0.0.1", server.port());
  const uint64_t sid = client.OpenSession();

  Session inproc = db.OpenSession();
  Rng rng(7);
  for (int i = 0; i < 16; ++i) {
    const double lo = static_cast<double>(rng.Below(kDomain)) + 0.25;
    const double hi = lo + 1.0 + static_cast<double>(rng.Below(kDomain / 4));
    ASSERT_EQ(test::WireCount(client, sid, "r", "price", lo, hi),
              test::Count(inproc, inproc.Handle("r", "price"), lo, hi))
        << "query " << i;
  }
  // The sum travels as an f64 scalar and matches in-process bit-for-bit
  // (same engine, same physical order).
  const KeyScalar wire_sum =
      test::WireSum(client, sid, "r", "price", 100.5, 90000.5);
  ASSERT_TRUE(wire_sum.is_f64());
  EXPECT_EQ(wire_sum.d,
            test::Sum(inproc, inproc.Handle("r", "price"), 100.5, 90000.5).d);

  // Special keys over the wire: insert NaN and +inf, count them through
  // the closed upgrade at the NaN key, then delete them.
  client.Insert(sid, "r", "price", nan);
  client.Insert(sid, "r", "price", kInf);
  EXPECT_EQ(test::WireCount(client, sid, "r", "price", kInf, nan), 2u);
  EXPECT_EQ(test::WireCount(client, sid, "r", "price", nan, nan), 1u);
  EXPECT_TRUE(client.Delete(sid, "r", "price", nan));
  EXPECT_TRUE(client.Delete(sid, "r", "price", kInf));
  EXPECT_EQ(test::WireCount(client, sid, "r", "price", kInf, nan), 0u);

  // int64 bounds against the double column clamp exactly too.
  EXPECT_EQ(test::WireCount(client, sid, "r", "price", 100, 90000),
            test::Count(inproc, inproc.Handle("r", "price"), 100, 90000));
  server.Stop();
}

TEST(Server, VersionMismatchRejectedWithErrorFrame) {
  Database db(SmallDbOptions());
  db.LoadColumn("r", "a", test::MakeUniform(1000, kDomain, 6));
  HolixServer server(db);
  server.Start();

  // A newer peer, and the previous version (v4, which still spoke the
  // retired per-primitive query frames): both are refused at Hello.
  for (const uint16_t version :
       {static_cast<uint16_t>(kProtocolVersion + 1),
        static_cast<uint16_t>(kProtocolVersion - 1)}) {
    RawConn raw(server.port());
    Hello hello;
    hello.version = version;
    raw.Send(EncodeMessage(1, hello));
    const Frame f = raw.ReadFrame();
    ASSERT_EQ(f.type, MsgType::kError) << "version " << version;
    ErrorMsg err;
    ASSERT_TRUE(DecodeMessage(f, &err));
    EXPECT_EQ(err.code, ErrorCode::kVersionMismatch) << "version " << version;
    EXPECT_TRUE(raw.WaitForClose());
  }
  server.Stop();
}

TEST(Server, BadMagicRejected) {
  Database db(SmallDbOptions());
  db.LoadColumn("r", "a", test::MakeUniform(1000, kDomain, 7));
  HolixServer server(db);
  server.Start();
  RawConn raw(server.port());
  Hello hello;
  hello.magic = 0x12345678;
  raw.Send(EncodeMessage(1, hello));
  const Frame f = raw.ReadFrame();
  ASSERT_EQ(f.type, MsgType::kError);
  EXPECT_TRUE(raw.WaitForClose());
  server.Stop();
}

TEST(Server, GarbageStreamClosesConnection) {
  Database db(SmallDbOptions());
  db.LoadColumn("r", "a", test::MakeUniform(1000, kDomain, 8));
  HolixServer server(db);
  server.Start();
  RawConn raw(server.port());
  // An impossible payload length followed by noise.
  std::vector<uint8_t> garbage(64, 0xFF);
  raw.Send(garbage);
  const Frame f = raw.ReadFrame();
  ASSERT_EQ(f.type, MsgType::kError);
  ErrorMsg err;
  ASSERT_TRUE(DecodeMessage(f, &err));
  EXPECT_EQ(err.code, ErrorCode::kMalformedFrame);
  EXPECT_TRUE(raw.WaitForClose());
  server.Stop();
}

TEST(Server, QueryErrorsKeepTheConnectionAlive) {
  Database db(SmallDbOptions());
  db.LoadColumn("r", "a", test::MakeUniform(10000, kDomain, 9));
  HolixServer server(db);
  server.Start();
  HolixClient client;
  client.Connect("127.0.0.1", server.port());
  const uint64_t sid = client.OpenSession();
  // Unknown column -> error frame, connection stays usable.
  EXPECT_THROW(test::WireCount(client, sid, "r", "nope", 0, 10),
               std::runtime_error);
  // Unknown session -> error frame, connection stays usable.
  EXPECT_THROW(test::WireCount(client, sid + 999, "r", "a", 0, 10),
               std::runtime_error);
  EXPECT_EQ(test::WireCount(client, sid, "r", "a", 0, kDomain), 10000u);
  server.Stop();
}

TEST(Server, SessionCapRejectsExcessOpens) {
  Database db(SmallDbOptions());
  db.LoadColumn("r", "a", test::MakeUniform(1000, kDomain, 15));
  ServerOptions opts;
  opts.max_sessions_per_connection = 2;
  HolixServer server(db, opts);
  server.Start();
  HolixClient client;
  client.Connect("127.0.0.1", server.port());
  const uint64_t s1 = client.OpenSession();
  client.OpenSession();
  EXPECT_THROW(client.OpenSession(), std::runtime_error);  // cap reached
  // Closing one frees a slot; the connection stays healthy throughout.
  client.CloseSession(s1);
  const uint64_t s3 = client.OpenSession();
  EXPECT_EQ(test::WireCount(client, s3, "r", "a", 0, kDomain), 1000u);
  server.Stop();
}

TEST(Server, PipelinedRequestsCompleteOutOfOrderById) {
  Database db(SmallDbOptions());
  const auto data = test::MakeUniform(30000, kDomain, 10);
  db.LoadColumn("r", "a", data);
  HolixServer server(db);
  server.Start();
  HolixClient client;
  client.Connect("127.0.0.1", server.port());
  const uint64_t sid = client.OpenSession();

  Session inproc = db.OpenSession();
  std::vector<uint64_t> ids;
  std::vector<std::pair<int64_t, int64_t>> ranges;
  Rng rng(11);
  for (int i = 0; i < 16; ++i) {
    const int64_t lo = static_cast<int64_t>(rng.Below(kDomain));
    const int64_t hi = lo + 1 + static_cast<int64_t>(rng.Below(kDomain / 4));
    ranges.emplace_back(lo, hi);
    ids.push_back(test::SendWireCount(client, sid, "r", "a", lo, hi));
  }
  // Await in reverse order: responses must match by id, not arrival.
  for (size_t i = ids.size(); i-- > 0;) {
    EXPECT_EQ(test::AwaitWireCount(client, ids[i]),
              test::Count(inproc, inproc.Handle("r", "a"), ranges[i].first,
                          ranges[i].second))
        << "request " << i;
  }
  EXPECT_EQ(client.StashedResponses(), 0u);
  server.Stop();
}

/// A multi-predicate Q6-shaped ExecuteQuery over loopback must be
/// bit-equal to the same QuerySpec executed in-process: counts, the f64
/// sum carrier, and the sorted rowid set.
TEST(Server, MultiPredicateExecuteQueryBitEqualToInProcess) {
  Database db(SmallDbOptions());
  const auto a = test::MakeUniform(40000, kDomain, 20);
  const auto b = test::MakeUniform(40000, kDomain, 21);
  std::vector<double> d(40000);
  {
    Rng rng(22);
    for (auto& x : d) x = static_cast<double>(rng.Below(kDomain)) * 0.5;
  }
  db.LoadColumn("r", "a", a);
  db.LoadColumn("r", "b", b);
  db.LoadColumn<double>("r", "d", d);
  HolixServer server(db);
  server.Start();
  HolixClient client;
  client.Connect("127.0.0.1", server.port());
  const uint64_t sid = client.OpenSession();

  Session inproc = db.OpenSession();
  Rng rng(23);
  for (int i = 0; i < 12; ++i) {
    const int64_t a_lo = static_cast<int64_t>(rng.Below(kDomain));
    const int64_t a_hi = a_lo + 1 + static_cast<int64_t>(rng.Below(kDomain));
    const int64_t b_hi = 1 + static_cast<int64_t>(rng.Below(kDomain));
    const double d_lo = static_cast<double>(rng.Below(kDomain)) * 0.25;
    const double d_hi = d_lo + static_cast<double>(rng.Below(kDomain));

    const ExecuteQueryResult wire = client.ExecuteQuery(
        sid, "r",
        {{"a", KeyScalar::I64(a_lo), KeyScalar::I64(a_hi)},
         {"b", KeyScalar::I64(0), KeyScalar::I64(b_hi)},
         {"d", KeyScalar::F64(d_lo), KeyScalar::F64(d_hi)}},
        {{0, ""}, {1, "d"}, {2, ""}});

    QuerySpec spec;
    spec.Where(inproc.Handle("r", "a"), a_lo, a_hi)
        .Where(inproc.Handle("r", "b"), int64_t{0}, b_hi)
        .Where(inproc.Handle("r", "d"), d_lo, d_hi)
        .Count()
        .Sum(inproc.Handle("r", "d"))
        .RowIds();
    const QueryResult local = inproc.Execute(spec);

    ASSERT_EQ(wire.values.size(), 3u);
    EXPECT_TRUE(wire.values[0] == local.values[0]) << "query " << i;
    // KeyScalar equality is bit-exact on the f64 carrier.
    EXPECT_TRUE(wire.values[1] == local.values[1]) << "query " << i;
    ASSERT_EQ(wire.rowids.size(), local.rowids.size());
    for (size_t j = 0; j < wire.rowids.size(); ++j) {
      ASSERT_EQ(wire.rowids[j], local.rowids[j]) << "query " << i;
    }
  }
  client.CloseSession(sid);
  client.Close();
  server.Stop();
}

/// Pipelined ExecuteQuery frames: several multi-predicate queries on the
/// wire at once, awaited out of order, each bit-equal to in-process.
TEST(Server, PipelinedExecuteQueryCompletesOutOfOrder) {
  Database db(SmallDbOptions());
  const auto a = test::MakeUniform(30000, kDomain, 24);
  const auto b = test::MakeUniform(30000, kDomain, 25);
  db.LoadColumn("r", "a", a);
  db.LoadColumn("r", "b", b);
  HolixServer server(db);
  server.Start();
  HolixClient client;
  client.Connect("127.0.0.1", server.port());
  const uint64_t sid = client.OpenSession();

  Session inproc = db.OpenSession();
  std::vector<uint64_t> ids;
  std::vector<std::pair<int64_t, int64_t>> ranges;
  Rng rng(26);
  for (int i = 0; i < 12; ++i) {
    const int64_t lo = static_cast<int64_t>(rng.Below(kDomain));
    const int64_t hi = lo + 1 + static_cast<int64_t>(rng.Below(kDomain / 2));
    ranges.emplace_back(lo, hi);
    ids.push_back(client.SendExecuteQuery(
        sid, "r",
        {{"a", KeyScalar::I64(lo), KeyScalar::I64(hi)},
         {"b", KeyScalar::I64(100), KeyScalar::I64(kDomain)}},
        {{0, ""}, {1, "b"}}));
  }
  for (size_t i = ids.size(); i-- > 0;) {
    const ExecuteQueryResult wire = client.AwaitExecuteQuery(ids[i]);
    QuerySpec spec;
    spec.Where(inproc.Handle("r", "a"), ranges[i].first, ranges[i].second)
        .Where(inproc.Handle("r", "b"), int64_t{100}, int64_t{kDomain})
        .Count()
        .Sum(inproc.Handle("r", "b"));
    const QueryResult local = inproc.Execute(spec);
    ASSERT_EQ(wire.values.size(), 2u);
    EXPECT_TRUE(wire.values[0] == local.values[0]) << "request " << i;
    EXPECT_TRUE(wire.values[1] == local.values[1]) << "request " << i;
  }
  EXPECT_EQ(client.StashedResponses(), 0u);
  client.CloseSession(sid);
  client.Close();
  server.Stop();
}

/// The §5.8 experiment shape over sockets: concurrent clients running
/// mixed reads and inserts; every count must match an in-process session
/// oracle computed on the same base data, and the insert bands must be
/// fully visible afterwards.
TEST(Server, ConcurrentClientsMixedReadsAndInsertsChecksumMatch) {
  Database db(SmallDbOptions());
  const auto data = test::MakeUniform(50000, kDomain, 12);
  db.LoadColumn("r", "a", data);
  HolixServer server(db);
  server.Start();
  const uint16_t port = server.port();

  constexpr int kClients = 4;
  constexpr int kOpsPerClient = 40;
  constexpr int64_t kBandBase = int64_t{1} << 21;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      HolixClient client;
      client.Connect("127.0.0.1", port);
      const uint64_t sid = client.OpenSession();
      Rng rng(100 + c);
      for (int i = 0; i < kOpsPerClient; ++i) {
        client.Insert(sid, "r", "a", kBandBase + c * 1000 + i);
        const int64_t lo = static_cast<int64_t>(rng.Below(kDomain));
        const int64_t hi =
            lo + 1 + static_cast<int64_t>(rng.Below(kDomain / 8));
        // Base-domain reads are unaffected by the out-of-band inserts.
        if (test::WireCount(client, sid, "r", "a", lo, hi) !=
            test::NaiveCount(data, lo, hi)) {
          failures.fetch_add(1);
        }
      }
      client.CloseSession(sid);
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Every socket insert is visible both over the wire and in-process.
  HolixClient verify;
  verify.Connect("127.0.0.1", port);
  const uint64_t vsid = verify.OpenSession();
  Session inproc = db.OpenSession();
  for (int c = 0; c < kClients; ++c) {
    const int64_t lo = kBandBase + c * 1000;
    EXPECT_EQ(test::WireCount(verify, vsid, "r", "a", lo, lo + kOpsPerClient),
              static_cast<size_t>(kOpsPerClient))
        << "client " << c;
    EXPECT_EQ(
        test::Count(inproc, inproc.Handle("r", "a"), lo, lo + kOpsPerClient),
              static_cast<size_t>(kOpsPerClient));
  }
  EXPECT_GE(server.TotalConnections(), static_cast<uint64_t>(kClients + 1));
  EXPECT_GE(server.TotalRequests(),
            static_cast<uint64_t>(kClients * kOpsPerClient * 2));
  server.Stop();
}

TEST(Server, StopDrainsInFlightPipelinedQueries) {
  Database db(SmallDbOptions());
  const auto data = test::MakeUniform(200000, kDomain, 13);
  db.LoadColumn("r", "a", data);
  HolixServer server(db);
  server.Start();
  HolixClient client;
  client.Connect("127.0.0.1", server.port());
  const uint64_t sid = client.OpenSession();

  // Fill the wire with pipelined queries, then stop the server while they
  // are in flight: every dispatched query must still answer (drain), and
  // the checksum must match the oracle.
  std::vector<uint64_t> ids;
  std::vector<std::pair<int64_t, int64_t>> ranges;
  Rng rng(14);
  for (int i = 0; i < 24; ++i) {
    const int64_t lo = static_cast<int64_t>(rng.Below(kDomain));
    const int64_t hi = lo + 1 + static_cast<int64_t>(rng.Below(kDomain));
    ranges.emplace_back(lo, hi);
    ids.push_back(test::SendWireCount(client, sid, "r", "a", lo, hi));
  }
  // Anchor: the first response proves the server is mid-stream before the
  // concurrent Stop() begins.
  EXPECT_EQ(test::AwaitWireCount(client, ids[0]),
            test::NaiveCount(data, ranges[0].first, ranges[0].second));
  std::thread stopper([&] { server.Stop(); });
  size_t answered = 1;
  for (size_t i = 1; i < ids.size(); ++i) {
    try {
      EXPECT_EQ(test::AwaitWireCount(client, ids[i]),
                test::NaiveCount(data, ranges[i].first, ranges[i].second))
          << "request " << i;
      ++answered;
    } catch (const std::runtime_error&) {
      // The connection may close between two responses once the server
      // finished draining; everything dispatched before that answered.
      break;
    }
  }
  stopper.join();
  EXPECT_FALSE(server.running());
  EXPECT_GT(answered, 0u);
}

/// The decoder must reassemble frames from arbitrarily fragmented reads:
/// dribble an entire handshake + query exchange one byte per send().
TEST(Server, OneBytePerSendReassemblesFrames) {
  Database db(SmallDbOptions());
  const auto data = test::MakeUniform(5000, kDomain, 31);
  db.LoadColumn("r", "a", data);
  HolixServer server(db);
  server.Start();
  RawConn raw(server.port());

  auto dribble = [&](const std::vector<uint8_t>& bytes) {
    for (uint8_t b : bytes) raw.Send({b});
  };

  dribble(EncodeMessage(1, Hello{}));
  EXPECT_EQ(raw.ReadFrame().type, MsgType::kHelloAck);

  dribble(EncodeMessage(2, OpenSessionReq{}));
  const Frame ack = raw.ReadFrame();
  ASSERT_EQ(ack.type, MsgType::kOpenSessionAck);
  OpenSessionAck open;
  ASSERT_TRUE(DecodeMessage(ack, &open));

  ExecuteQueryReq req;
  req.session_id = open.session_id;
  req.table = "r";
  req.predicates = {{"a", KeyScalar::I64(0), KeyScalar::I64(kDomain)}};
  req.results = {{0, ""}};
  dribble(EncodeMessage(3, req));
  const Frame f = raw.ReadFrame();
  ASSERT_EQ(f.type, MsgType::kExecuteQueryResult);
  ExecuteQueryResult res;
  ASSERT_TRUE(DecodeMessage(f, &res));
  EXPECT_EQ(res.values[0], KeyScalar::I64(static_cast<int64_t>(data.size())));
  server.Stop();
}

/// A peer that resets (RST) mid-frame — header sent, payload never
/// arriving — must not wedge the server or leak its connection slot.
TEST(Server, ResetMidFrameLeavesServerHealthy) {
  Database db(SmallDbOptions());
  const auto data = test::MakeUniform(5000, kDomain, 32);
  db.LoadColumn("r", "a", data);
  HolixServer server(db);
  server.Start();

  {
    RawConn raw(server.port());
    raw.Send(EncodeMessage(1, Hello{}));
    EXPECT_EQ(raw.ReadFrame().type, MsgType::kHelloAck);
    // First half of a valid ExecuteQuery frame, then RST.
    ExecuteQueryReq req;
    req.session_id = 1;
    req.table = "r";
    req.predicates = {{"a", KeyScalar::I64(0), KeyScalar::I64(kDomain)}};
    req.results = {{0, ""}};
    const std::vector<uint8_t> frame = EncodeMessage(2, req);
    raw.Send({frame.begin(), frame.begin() + frame.size() / 2});
    raw.Reset();
  }
  {
    // RST before the handshake even starts.
    RawConn raw(server.port());
    const std::vector<uint8_t> hello = EncodeMessage(1, Hello{});
    raw.Send({hello.begin(), hello.begin() + 3});
    raw.Reset();
  }

  // The server keeps serving new clients correctly afterwards.
  HolixClient client;
  client.Connect("127.0.0.1", server.port());
  const uint64_t sid = client.OpenSession();
  EXPECT_EQ(test::WireCount(client, sid, "r", "a", 0, kDomain), data.size());
  server.Stop();
}

/// The wire stats plane is the in-process stats plane: on a quiesced
/// engine, GetStats over loopback decodes to exactly the snapshot
/// Database::MetricsSnapshot() returns — every counter, gauge, histogram
/// bucket and trace-ring entry.
TEST(Server, GetStatsMatchesInProcessSnapshot) {
  Database db(SmallDbOptions());
  const auto data = test::MakeUniform(50000, kDomain, 35);
  db.LoadColumn("r", "a", data);
  HolixServer server(db);
  server.Start();
  HolixClient client;
  client.Connect("127.0.0.1", server.port());
  const uint64_t sid = client.OpenSession();

  // Generate telemetry: synchronous queries, fully drained before the
  // snapshot (each call returns only after its response frame arrived).
  uint64_t total = 0;
  for (int i = 0; i < 16; ++i) {
    total += test::WireCount(client, sid, "r", "a", i * 1000, i * 1000 + 50000);
  }
  EXPECT_GT(total, 0u);

  const obs::MetricsSnapshot wire = client.GetStats();
  const obs::MetricsSnapshot local = db.MetricsSnapshot();
  EXPECT_EQ(wire, local);

  // The snapshot is live telemetry, not zeros.
  EXPECT_GT(wire.CounterValue("holix_queries_total{mode=\"adaptive\"}"), 0u);
  EXPECT_GT(wire.CounterValue("holix_scan_bytes_total"), 0u);
  EXPECT_GT(wire.CounterValue("holix_server_requests_total"), 0u);
  EXPECT_GT(wire.GaugeValue("holix_index_pieces"), 0.0);
  EXPECT_FALSE(wire.traces.empty());
  // GetStats itself is not a counted request: back-to-back snapshots with
  // no queries in between agree on the request total.
  const obs::MetricsSnapshot again = client.GetStats();
  EXPECT_EQ(again.CounterValue("holix_server_requests_total"),
            wire.CounterValue("holix_server_requests_total"));
  server.Stop();
}

/// The plain-HTTP metrics endpoint serves Prometheus text on the same
/// event loop, and non-/metrics paths get a 404.
TEST(Server, HttpMetricsEndpointServesPrometheusText) {
  Database db(SmallDbOptions());
  const auto data = test::MakeUniform(20000, kDomain, 36);
  db.LoadColumn("r", "a", data);
  ServerOptions opts;
  opts.metrics_http = true;  // ephemeral metrics port
  HolixServer server(db, opts);
  server.Start();
  ASSERT_NE(server.metrics_port(), 0);

  HolixClient client;
  client.Connect("127.0.0.1", server.port());
  const uint64_t sid = client.OpenSession();
  test::WireCount(client, sid, "r", "a", 0, kDomain / 2);

  auto http_get = [&](const std::string& path) {
    RawConn raw(server.metrics_port());
    const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
    raw.Send({req.begin(), req.end()});
    std::string resp;
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(raw.fd(), buf, sizeof(buf), 0);
      if (n <= 0) break;  // server closes after the response
      resp.append(buf, static_cast<size_t>(n));
    }
    return resp;
  };

  const std::string resp = http_get("/metrics");
  EXPECT_NE(resp.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(resp.find("holix_queries_total"), std::string::npos);
  EXPECT_NE(resp.find("holix_scan_bytes_total"), std::string::npos);
  // The query just served fed its mode's latency histogram.
  EXPECT_NE(resp.find("holix_query_seconds_bucket{mode=\"adaptive\",le="),
            std::string::npos);
  EXPECT_NE(http_get("/nope").find("HTTP/1.0 404"), std::string::npos);

  // Scrapes are not protocol connections or requests.
  EXPECT_EQ(server.TotalConnections(), 1u);
  server.Stop();
}

}  // namespace
}  // namespace holix::net
