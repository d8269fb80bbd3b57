/// \file client_reconnect_test.cpp
/// \brief HolixClient reconnect-with-backoff (ClientOptions::reconnect):
/// the server is stopped and restarted on the same port mid-workload and
/// the client must (a) transparently retry idempotent reads with no lost
/// or duplicated acknowledged results, (b) keep session handles valid by
/// re-binding them to fresh server sessions, and (c) refuse to resend
/// updates whose ack is ambiguous.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "server/client.h"
#include "server/server.h"
#include "test_support.h"

namespace holix::net {
namespace {

constexpr size_t kRows = 20000;
constexpr int64_t kDomain = 1 << 20;

DatabaseOptions SmallDbOptions() {
  DatabaseOptions opts;
  opts.mode = ExecMode::kAdaptive;
  opts.user_threads = 2;
  opts.total_cores = 4;
  return opts;
}

ClientOptions FastReconnect() {
  ClientOptions c;
  c.reconnect = true;
  c.max_attempts = 10;
  c.backoff_initial_seconds = 0.02;
  c.backoff_max_seconds = 0.2;
  return c;
}

/// A database, a server bound to a *fixed* port (discovered via a throwaway
/// ephemeral bind), and a way to kill + resurrect the server on that port so
/// a reconnecting client can find it again.
class ReconnectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>(SmallDbOptions());
    data_ = test::MakeUniform(kRows, kDomain, /*seed=*/7);
    db_->LoadColumn("r", "a", data_);
    // Discover a free port, then re-bind it explicitly so a restarted
    // server lands on the same address the client remembers.
    {
      HolixServer probe(*db_);
      probe.Start();
      port_ = probe.port();
      probe.Stop();
    }
    StartServer();
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  void StartServer() {
    ServerOptions so;
    so.port = port_;
    server_ = std::make_unique<HolixServer>(*db_, so);
    server_->Start();
  }

  void StopServer() { server_->Stop(); }

  uint64_t Oracle(int64_t lo, int64_t hi) const {
    return test::NaiveCount(data_, lo, hi);
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<HolixServer> server_;
  std::vector<int64_t> data_;
  uint16_t port_ = 0;
};

TEST_F(ReconnectTest, ReadRetriesAcrossRestartWithSameSessionHandle) {
  HolixClient client;
  client.Connect("127.0.0.1", port_, FastReconnect());
  const uint64_t sid = client.OpenSession();

  EXPECT_EQ(test::WireCount(client, sid, "r", "a", 100, 5000),
            Oracle(100, 5000));

  StopServer();
  StartServer();

  // The client's socket is stale; the next read must reconnect, re-open
  // the session behind the handle, and return the exact oracle count.
  EXPECT_EQ(test::WireCount(client, sid, "r", "a", 100, 5000),
            Oracle(100, 5000));
  EXPECT_EQ(test::WireCount(client, sid, "r", "a", 0, kDomain), kRows);
  client.CloseSession(sid);
}

TEST_F(ReconnectTest, ReadBacksOffWhileServerIsDown) {
  HolixClient client;
  client.Connect("127.0.0.1", port_, FastReconnect());
  const uint64_t sid = client.OpenSession();
  ASSERT_EQ(test::WireCount(client, sid, "r", "a", 0, 1000), Oracle(0, 1000));

  StopServer();

  // Issue the read while the port is closed; bring the server back while
  // the client is sleeping between attempts. The call must block through
  // the outage and still return the right answer.
  std::atomic<uint64_t> got{~uint64_t{0}};
  std::thread reader([&] {
    got.store(test::WireCount(client, sid, "r", "a", 0, 1000),
              std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  StartServer();
  reader.join();
  EXPECT_EQ(got.load(std::memory_order_acquire), Oracle(0, 1000));
}

TEST_F(ReconnectTest, MultipleSessionHandlesRebind) {
  HolixClient client;
  client.Connect("127.0.0.1", port_, FastReconnect());
  const uint64_t s1 = client.OpenSession();
  const uint64_t s2 = client.OpenSession();
  EXPECT_NE(s1, s2);

  StopServer();
  StartServer();

  EXPECT_EQ(test::WireCount(client, s1, "r", "a", 0, kDomain), kRows);
  EXPECT_EQ(test::WireCount(client, s2, "r", "a", 500, 700), Oracle(500, 700));
  client.CloseSession(s1);
  EXPECT_EQ(test::WireCount(client, s2, "r", "a", 0, 64), Oracle(0, 64));
  client.CloseSession(s2);
}

TEST_F(ReconnectTest, AcknowledgedUpdatesSurviveAndAreNeverDuplicated) {
  HolixClient client;
  client.Connect("127.0.0.1", port_, FastReconnect());
  const uint64_t sid = client.OpenSession();

  // kDomain itself never occurs in the loaded data, so its count isolates
  // exactly the updates this test applies.
  ASSERT_EQ(test::WireCount(client, sid, "r", "a", kDomain, kDomain + 10), 0u);
  (void)client.Insert(sid, "r", "a", kDomain);
  ASSERT_EQ(test::WireCount(client, sid, "r", "a", kDomain, kDomain + 10), 1u);

  StopServer();

  // A non-idempotent call over a dead transport must surface the loss, not
  // silently resend: its ack would be ambiguous.
  EXPECT_THROW((void)client.Insert(sid, "r", "a", kDomain), ConnectionLost);

  StartServer();

  // The acknowledged insert is still there exactly once, and the failed
  // one was not replayed behind the caller's back.
  EXPECT_EQ(test::WireCount(client, sid, "r", "a", kDomain, kDomain + 10), 1u);
  // An update issued after the reconnect applies normally.
  (void)client.Insert(sid, "r", "a", kDomain);
  EXPECT_EQ(test::WireCount(client, sid, "r", "a", kDomain, kDomain + 10), 2u);
  EXPECT_TRUE(client.Delete(sid, "r", "a", kDomain));
  EXPECT_EQ(test::WireCount(client, sid, "r", "a", kDomain, kDomain + 10), 1u);
}

TEST_F(ReconnectTest, PipelinedWindowStraddlingRestartLosesNoAcknowledgedResult) {
  HolixClient client;
  client.Connect("127.0.0.1", port_, FastReconnect());
  const uint64_t sid = client.OpenSession();

  // Awaited (acknowledged) pipelined results before the restart...
  std::vector<uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(
        test::SendWireCount(client, sid, "r", "a", i * 100, i * 100 + 1000));
  }
  std::vector<uint64_t> before;
  for (uint64_t id : ids) before.push_back(test::AwaitWireCount(client, id));
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(before[static_cast<size_t>(i)], Oracle(i * 100, i * 100 + 1000));
  }

  StopServer();
  StartServer();

  // ...must agree with the same queries re-issued after it (nothing lost,
  // nothing double-counted), and the pipelined path itself recovers once
  // the synchronous path has re-dialed.
  EXPECT_EQ(test::WireCount(client, sid, "r", "a", 0, 1000), Oracle(0, 1000));
  const uint64_t id2 =
      test::SendWireCount(client, sid, "r", "a", 0, 1000);
  EXPECT_EQ(test::AwaitWireCount(client, id2), Oracle(0, 1000));
}

TEST_F(ReconnectTest, WithoutReconnectOptionTheLossSurfaces) {
  HolixClient client;
  client.Connect("127.0.0.1", port_);  // reconnect off (default)
  const uint64_t sid = client.OpenSession();
  ASSERT_EQ(test::WireCount(client, sid, "r", "a", 0, 64), Oracle(0, 64));

  StopServer();
  StartServer();

  EXPECT_THROW((void)test::WireCount(client, sid, "r", "a", 0, 64),
               ConnectionLost);
  EXPECT_FALSE(client.connected());
  // ConnectionLost derives std::runtime_error, so legacy catch sites work.
  client.Connect("127.0.0.1", port_);
  const uint64_t sid2 = client.OpenSession();
  EXPECT_EQ(test::WireCount(client, sid2, "r", "a", 0, 64), Oracle(0, 64));
}

}  // namespace
}  // namespace holix::net
