/// Tests for the observability substrate: striped counters under racing
/// writers, le-inclusive histogram bin edges, gauge semantics, snapshot
/// monotonicity while writers race, trace-ring wraparound, the text /
/// JSON formatters, and the per-stage timing of a conjunction.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "obs/metrics.h"
#include "test_support.h"

namespace holix::obs {
namespace {

TEST(Counter, SingleThreadExact) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(Counter, RacingWritersLoseNothing) {
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 200000;
  Counter c;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Inc();
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(Counter, RacingBulkIncrementsExact) {
  constexpr int kThreads = 6;
  constexpr uint64_t kPerThread = 50000;
  Counter c;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Inc(3);
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.Value(), 3 * kThreads * kPerThread);
}

TEST(Gauge, SetAddMax) {
  Gauge g;
  EXPECT_EQ(g.Value(), 0.0);
  g.Set(2.5);
  EXPECT_EQ(g.Value(), 2.5);
  g.Add(1.25);
  EXPECT_EQ(g.Value(), 3.75);
  g.Add(-3.75);
  EXPECT_EQ(g.Value(), 0.0);
  g.Max(7.0);
  EXPECT_EQ(g.Value(), 7.0);
  g.Max(3.0);  // lower: no-op
  EXPECT_EQ(g.Value(), 7.0);
  g.Set(-1.0);  // Set always wins
  EXPECT_EQ(g.Value(), -1.0);
}

TEST(Gauge, RacingAddsBalanceToZero) {
  Gauge g;
  constexpr int kThreads = 8;
  constexpr int kRounds = 20000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&g] {
      for (int i = 0; i < kRounds; ++i) {
        g.Add(1.0);
        g.Add(-1.0);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(g.Value(), 0.0);
}

TEST(Histogram, BinEdgesAreLeInclusive) {
  Histogram h({1.0, 2.0, 4.0});
  // Prometheus `le` semantics: a value equal to a bound lands in that
  // bound's bucket, strictly above it in the next.
  h.Observe(1.0);   // bin 0
  h.Observe(0.5);   // bin 0
  h.Observe(1.5);   // bin 1
  h.Observe(2.0);   // bin 1
  h.Observe(4.0);   // bin 2
  h.Observe(4.001); // overflow
  h.Observe(100.0); // overflow
  EXPECT_EQ(h.BinCount(0), 2u);
  EXPECT_EQ(h.BinCount(1), 2u);
  EXPECT_EQ(h.BinCount(2), 1u);
  EXPECT_EQ(h.BinCount(3), 2u);
  EXPECT_DOUBLE_EQ(h.Sum(), 1.0 + 0.5 + 1.5 + 2.0 + 4.0 + 4.001 + 100.0);
}

TEST(Histogram, RacingObservationsLoseNothing) {
  Histogram h({10.0, 20.0});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Observe(static_cast<double>(t * 10));  // 0, 10, 20, 30
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(h.BinCount(0), 2u * kPerThread);  // 0 and 10
  EXPECT_EQ(h.BinCount(1), 1u * kPerThread);  // 20
  EXPECT_EQ(h.BinCount(2), 1u * kPerThread);  // 30 overflows
}

TEST(Registry, SameNameSameSeries) {
  auto& reg = MetricsRegistry::Global();
  Counter& a = reg.GetCounter("test_registry_same_series");
  Counter& b = reg.GetCounter("test_registry_same_series");
  EXPECT_EQ(&a, &b);
  Gauge& g1 = reg.GetGauge("test_registry_same_gauge");
  Gauge& g2 = reg.GetGauge("test_registry_same_gauge");
  EXPECT_EQ(&g1, &g2);
  Histogram& h1 = reg.GetHistogram("test_registry_same_hist", {1, 2});
  // A different bounds shape on re-registration returns the original.
  Histogram& h2 = reg.GetHistogram("test_registry_same_hist", {5, 6, 7});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds().size(), 2u);
}

TEST(Registry, SnapshotWhileRacingIsMonotone) {
  auto& reg = MetricsRegistry::Global();
  Counter& c = reg.GetCounter("test_snapshot_monotone_total");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) c.Inc();
    });
  }
  uint64_t prev = 0;
  for (int i = 0; i < 200; ++i) {
    const MetricsSnapshot snap = reg.Snapshot();
    const uint64_t v = snap.CounterValue("test_snapshot_monotone_total");
    EXPECT_GE(v, prev);
    prev = v;
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : writers) t.join();
  EXPECT_EQ(reg.Snapshot().CounterValue("test_snapshot_monotone_total"),
            c.Value());
}

TEST(TraceRing, KeepsEverythingBelowCapacity) {
  TraceRing ring(8);
  for (uint64_t i = 0; i < 5; ++i) {
    QueryTrace t;
    t.bytes_scanned = i;
    ring.Push(t);
  }
  std::vector<QueryTrace> out;
  ring.SnapshotInto(&out);
  ASSERT_EQ(out.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(out[i].seq, i);
    EXPECT_EQ(out[i].bytes_scanned, i);
  }
}

TEST(TraceRing, WraparoundKeepsNewestOldestFirst) {
  constexpr size_t kCap = 8;
  TraceRing ring(kCap);
  for (uint64_t i = 0; i < 20; ++i) {
    QueryTrace t;
    t.bytes_scanned = i;
    ring.Push(t);
  }
  std::vector<QueryTrace> out;
  ring.SnapshotInto(&out);
  ASSERT_EQ(out.size(), kCap);
  // The 8 newest entries (12..19), oldest first, with ring-assigned seqs.
  for (size_t i = 0; i < kCap; ++i) {
    EXPECT_EQ(out[i].seq, 20 - kCap + i);
    EXPECT_EQ(out[i].bytes_scanned, 20 - kCap + i);
  }
}

TEST(RecordQueryDone, CountsModeAndSlowQueries) {
  auto& reg = MetricsRegistry::Global();
  const uint64_t slow_before = reg.Snapshot().CounterValue(
      "holix_slow_queries_total");
  const double saved = reg.slow_query_seconds();
  reg.set_slow_query_seconds(0.050);

  QueryTrace fast;
  fast.latency_seconds = 0.001;
  RecordQueryDone(fast, "scan");
  EXPECT_FALSE(fast.slow);

  QueryTrace slow;
  slow.latency_seconds = 0.200;
  RecordQueryDone(slow, "scan");
  EXPECT_TRUE(slow.slow);

  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("holix_slow_queries_total"), slow_before + 1);
  EXPECT_GE(snap.CounterValue("holix_queries_total{mode=\"scan\"}"), 2u);
  // The ring holds both completions, newest last.
  ASSERT_GE(snap.traces.size(), 2u);
  EXPECT_TRUE(snap.traces.back().slow);
  reg.set_slow_query_seconds(saved);
}

uint64_t StageSamples(const MetricsSnapshot& snap, const std::string& stage) {
  const std::string name = "holix_stage_seconds{stage=\"" + stage + "\"}";
  for (const HistogramSnapshot& h : snap.histograms) {
    if (h.name == name) return h.Total();
  }
  return 0;
}

TEST(StageSeconds, ThreePredicateQueryStampsEachStageOnce) {
  DatabaseOptions opts;
  opts.mode = ExecMode::kAdaptive;
  Database db(opts);
  constexpr int64_t kDomain = 1 << 20;
  db.LoadColumn("t", "a", test::MakeUniform(20000, kDomain, 1));
  db.LoadColumn("t", "b", test::MakeUniform(20000, kDomain, 2));
  db.LoadColumn("t", "c", test::MakeUniform(20000, kDomain, 3));
  QuerySpec spec;
  spec.Where(db.Resolve("t", "a"), 0, kDomain / 4)
      .Where(db.Resolve("t", "b"), 0, kDomain / 2)
      .Where(db.Resolve("t", "c"), kDomain / 4, kDomain);
  spec.Count().Sum(db.Resolve("t", "c"));

  auto& reg = MetricsRegistry::Global();
  const MetricsSnapshot before = reg.Snapshot();
  const QueryResult r = db.Execute(spec);
  const MetricsSnapshot after = reg.Snapshot();
  ASSERT_GT(r.values[0].i, 0);
  for (const char* stage : {"plan", "drive", "sort", "materialize"}) {
    EXPECT_EQ(StageSamples(after, stage) - StageSamples(before, stage), 1u)
        << stage;
  }
  // Two non-driving conjuncts, each probed once.
  EXPECT_EQ(StageSamples(after, "probe") - StageSamples(before, "probe"), 2u);
}

TEST(Formatters, PrometheusTextHasSeriesAndBuckets) {
  auto& reg = MetricsRegistry::Global();
  reg.GetCounter("test_prom_counter_total").Inc(7);
  reg.GetGauge("test_prom_gauge").Set(1.5);
  Histogram& h = reg.GetHistogram("test_prom_hist", {1.0, 2.0});
  h.Observe(0.5);
  h.Observe(1.5);
  h.Observe(9.0);
  const std::string text = PrometheusText(reg.Snapshot());
  EXPECT_NE(text.find("test_prom_counter_total 7"), std::string::npos);
  EXPECT_NE(text.find("test_prom_gauge 1.5"), std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_bucket{le=\"2\"} 2"), std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_count 3"), std::string::npos);
}

TEST(Formatters, JsonAndHumanTextAreNonEmpty) {
  auto& reg = MetricsRegistry::Global();
  reg.GetCounter("test_json_counter_total").Inc();
  const MetricsSnapshot snap = reg.Snapshot();
  const std::string json = MetricsJson(snap);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json[json.find_last_not_of('\n')], '}');
  EXPECT_NE(json.find("\"test_json_counter_total\""), std::string::npos);
  EXPECT_FALSE(HumanText(snap).empty());
}

TEST(TraceScope, NestsAndRestores) {
  EXPECT_EQ(CurrentQueryTrace(), nullptr);
  QueryTrace outer, inner;
  {
    TraceScope a(&outer);
    TraceAddBytesScanned(10);
    {
      TraceScope b(&inner);
      TraceAddBytesScanned(5);
      TraceAddPiecesCreated(2);
    }
    TraceAddBytesScanned(1);
  }
  EXPECT_EQ(CurrentQueryTrace(), nullptr);
  EXPECT_EQ(outer.bytes_scanned, 11u);
  EXPECT_EQ(inner.bytes_scanned, 5u);
  EXPECT_EQ(inner.pieces_created, 2u);
  TraceAddBytesScanned(99);  // no active trace: a no-op, not a crash
}

}  // namespace
}  // namespace holix::obs
