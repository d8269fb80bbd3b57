/// \file serve.cpp
/// \brief `serve`: steady serving over loopback TCP with writes beside
/// reads. A 5-column table of 40 MiB (fits the 105 MiB LLC of the
/// reference machine) in adaptive mode behind a HolixServer with default
/// ServerOptions, so the shared-scan coalescer is on as deployed. Indexes
/// converge during set-up; two HolixClient connections then each keep one
/// request in flight. The server (protocol, event loop, shared scans) and
/// the storage pending-update / Ripple layer do the work; cracking does
/// little, holistic and persistence do none. At the engine's current state
/// concurrent deletes on one column can livelock the server; a round that
/// stops making progress is reported as failed (holixbench/README.md).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>

#include "data.h"
#include "server/client.h"
#include "server/server.h"
#include "workloads.h"

namespace hb {
namespace {

constexpr int kClients = 2;
constexpr int kIntCols = 4;

/// Both clients write every integer column, each in its own band, so a
/// client's reads over its band see exactly its own acknowledged writes.
int64_t ClientBand(int client, int col) {
  return Band(col) + (int64_t{client} << 30);
}

struct ServeOp {
  enum Kind : uint8_t { kRead, kInsert, kDelete } kind = kRead;
  Query q;  ///< kRead.
  std::vector<holix::net::QueryPredicateWire> preds;
  std::vector<holix::net::QueryResultSpecWire> results;
  int col = 0;        ///< Writes.
  int64_t value = 0;  ///< Writes.
};

/// ~50% single-predicate count, 15% sum, 15% 3-predicate conjunction with
/// a count and a sum, 10% insert, 10% delete of a value this client
/// inserted. A quarter of the single-predicate reads on an integer column
/// cover the client's band, so pending inserts and deletes get merged
/// (Ripple). Conjunctions are centred on the values of one random row, so
/// each matches at least that row, and are narrower than explore's: once a
/// column has seen a delete the planner stops probing it and materializes
/// every predicate, and wide ranges would make this a planner benchmark.
std::vector<ServeOp> MakeOps(const BenchTable& t, uint64_t seed, int client,
                             size_t n) {
  Rng rng(seed * 0xA0761D6478BD642Full + 101 + client);
  const int cols = static_cast<int>(t.cols.size());
  std::vector<std::vector<int64_t>> live(kIntCols);
  std::vector<int64_t> inserted(kIntCols, 0);
  size_t live_total = 0;
  std::vector<ServeOp> ops(n);
  for (ServeOp& op : ops) {
    const double u = rng.Unit();
    if (u >= 0.9 && live_total > 0) {
      op.kind = ServeOp::kDelete;
      int col = static_cast<int>(rng.Below(kIntCols));
      while (live[col].empty()) col = (col + 1) % kIntCols;
      const size_t idx = rng.Below(live[col].size());
      op.col = col;
      op.value = live[col][idx];
      live[col][idx] = live[col].back();
      live[col].pop_back();
      --live_total;
    } else if (u >= 0.8) {
      op.kind = ServeOp::kInsert;
      op.col = static_cast<int>(rng.Below(kIntCols));
      op.value = ClientBand(client, op.col) + 7 * inserted[op.col]++;
      live[op.col].push_back(op.value);
      ++live_total;
    } else if (u >= 0.65) {
      std::vector<int> picked;
      while (picked.size() < 3) {
        const int c = static_cast<int>(rng.Below(cols));
        if (std::find(picked.begin(), picked.end(), c) == picked.end()) {
          picked.push_back(c);
        }
      }
      const size_t row = rng.Below(t.rows);
      for (size_t i = 0; i < picked.size(); ++i) {
        const BenchColumn& c = t.cols[picked[i]];
        const double sel =
            i == 0 ? rng.LogUniform(1e-3, 1e-2) : rng.LogUniform(1e-2, 5e-2);
        const double at = c.is_double ? c.dbls[row] : static_cast<double>(c.ints[row]);
        Pred p = MakeRange(t, picked[i], sel, at);
        op.q.preds.push_back(p);
      }
      op.q.count = true;
      op.q.sum_col = static_cast<int>(rng.Below(cols));
      op.q.expect = Evaluate(t, op.q);
    } else {
      const int c = static_cast<int>(rng.Below(cols));
      if (u < 0.5) {
        op.q.count = true;
      } else {
        op.q.sum_col = c;
      }
      if (c < kIntCols && inserted[c] > 0 && rng.Unit() < 0.25) {
        const auto span = static_cast<uint64_t>(7 * inserted[c]);
        const int64_t lo =
            ClientBand(client, c) + static_cast<int64_t>(rng.Below(span));
        const int64_t hi = lo + 1 + static_cast<int64_t>(rng.Below(span));
        op.q.preds.push_back({c, holix::KeyScalar::I64(lo),
                              holix::KeyScalar::I64(hi)});
        int64_t sum = 0;
        for (int64_t v : live[c]) {
          if (v >= lo && v < hi) {
            ++op.q.expect.count;
            sum += v;
          }
        }
        op.q.expect.sum = holix::KeyScalar::I64(sum);
      } else {
        op.q.preds.push_back(MakeRange(t, c, rng.LogUniform(1e-4, 1e-2),
                                       rng.Unit() * t.cols[c].domain()));
        op.q.expect = Evaluate(t, op.q);
      }
    }
    if (op.kind == ServeOp::kRead) {
      op.preds = ToWirePreds(t, op.q);
      op.results = ToWireResults(t, op.q);
    }
  }
  return ops;
}

/// Converging reads run in process during set-up: count queries per column.
std::vector<Query> MakeConvergeQueries(const BenchTable& t, uint64_t seed,
                                       size_t per_column) {
  Rng rng(seed * 0xE7037ED1A0B428DBull + 5);
  std::vector<Query> qs;
  for (size_t i = 0; i < per_column; ++i) {
    for (int c = 0; c < static_cast<int>(t.cols.size()); ++c) {
      Query q;
      q.preds.push_back(MakeRange(t, c, rng.LogUniform(1e-4, 1e-2),
                                  rng.Unit() * t.cols[c].domain()));
      q.count = true;
      qs.push_back(std::move(q));
    }
  }
  EvaluateAll(t, qs);
  return qs;
}

/// One round normally takes a few seconds. A round still running after
/// this long has an operation the server never answers.
constexpr double kStuckSeconds = 60;

struct ClientResult {
  std::vector<double> read_us;
  std::vector<double> write_us;
  uint64_t failed = 0;
  double finished_at = 0;
  std::atomic<size_t> completed{0};  ///< Operations answered so far.
  std::atomic<bool> done{false};     ///< The fields above are final.
};

void RunClient(uint16_t port, const BenchTable& t,
               const std::vector<ServeOp>& ops, SpanLog& log,
               const std::atomic<bool>& go, ClientResult& out) {
  holix::net::HolixClient client;
  client.Connect("127.0.0.1", port);
  const uint64_t sid = client.OpenSession();
  while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
  for (size_t i = 0; i < ops.size(); ++i) {
    const ServeOp& op = ops[i];
    bool ok = false;
    const double t0 = Now();
    try {
      if (op.kind == ServeOp::kRead) {
        ScopedSpan s(log, "HolixClient::ExecuteQuery", i);
        ok = Matches(op.q,
                     client.ExecuteQuery(sid, "t", op.preds, op.results).values);
      } else if (op.kind == ServeOp::kInsert) {
        ScopedSpan s(log, "HolixClient::Insert", i);
        InsertValue(client, sid, std::string("t"), t.cols[op.col].name,
                    holix::KeyScalar::I64(op.value));
        ok = true;
      } else {
        ScopedSpan s(log, "HolixClient::Delete", i);
        ok = DeleteValue(client, sid, std::string("t"), t.cols[op.col].name,
                         holix::KeyScalar::I64(op.value));
      }
    } catch (const std::exception&) {
      ok = false;
    }
    const double us = (Now() - t0) * 1e6;
    (op.kind == ServeOp::kRead ? out.read_us : out.write_us).push_back(us);
    if (!ok) ++out.failed;
    out.completed.fetch_add(1, std::memory_order_relaxed);
  }
  out.finished_at = Now();
  client.Close();
}

}  // namespace

Report RunServe(const Args& args) {
  const size_t rows = args.tiny ? 1u << 14 : 1u << 20;
  const size_t ops_per_client = args.tiny ? 500 : 2500;
  const BenchTable table = MakeTable(args.seed, rows, kIntCols, 1);
  const std::vector<Query> converge =
      MakeConvergeQueries(table, args.seed, args.tiny ? 32 : 512);
  std::vector<std::vector<ServeOp>> ops(kClients);
  {
    std::vector<std::thread> gen;
    for (int c = 0; c < kClients; ++c) {
      gen.emplace_back([&, c] {
        ops[c] = MakeOps(table, args.seed, c, ops_per_client);
      });
    }
    for (std::thread& th : gen) th.join();
  }

  Report report;
  std::vector<double> setup_s, run_s, traced_run_s, ops_per_s, peak_mb;
  std::vector<double> read_us, write_us;
  std::vector<LayerValues> layers;
  std::vector<TraceRecord> traces;

  Repeat(args, 3, [&](int rep, bool traced) {
    TraceRecord rec;
    rec.label = "serve round " + std::to_string(rep);
    rec.logs.emplace_back(traced, 0);
    for (int c = 0; c < kClients; ++c) rec.logs.emplace_back(traced, c + 1);
    SpanLog& log = rec.logs[0];

    ResetPeakRss();
    const uint64_t rss0 = CurrentRssBytes();
    const double t0 = Now();
    std::unique_ptr<holix::Database> db;
    std::unique_ptr<holix::net::HolixServer> server;
    {
      ScopedSpan s(log, "setup");
      {
        ScopedSpan c(log, "Database::Database");
        db = std::make_unique<holix::Database>(holix::DatabaseOptions{});
      }
      {
        ScopedSpan l(log, "Database::LoadColumn");
        LoadTable(*db, table);
      }
      const auto handles = ResolveAll(*db, table);
      for (size_t i = 0; i < converge.size(); ++i) {
        ExecuteChecked(*db, ToSpec(converge[i], handles), converge[i], log, i,
                       report);
      }
      ScopedSpan st(log, "HolixServer::Start");
      server = std::make_unique<holix::net::HolixServer>(*db);
      server->Start();
    }
    setup_s.push_back(Now() - t0);

    if (traced) rec.marks.push_back({"setup", Now(), db->MetricsSnapshot()});
    std::atomic<bool> go{false};
    std::vector<ClientResult> results(kClients);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        try {
          RunClient(server->port(), table, ops[c], rec.logs[c + 1], go,
                    results[c]);
        } catch (const std::exception&) {
          // Connect failed: every op of this client counts as failed.
          results[c].failed = ops[c].size() - results[c].read_us.size() -
                              results[c].write_us.size() + results[c].failed;
          results[c].finished_at = Now();
        }
        results[c].done.store(true, std::memory_order_release);
      });
    }
    // Clients connect before the clock starts.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const double wall0 = Now();
    go.store(true, std::memory_order_release);
    for (const ClientResult& r : results) {
      while (!r.done.load(std::memory_order_acquire)) {
        if (Now() - wall0 > kStuckSeconds) {
          // The blocked client and the server thread it waits on can be
          // neither joined nor stopped: report the failure and leave.
          size_t unanswered = 0;
          for (int c = 0; c < kClients; ++c) {
            unanswered += ops[c].size() - results[c].completed.load();
          }
          std::fprintf(stderr,
                       "holixbench: serve round %d: %zu operations "
                       "unanswered after %.0f s\n",
                       rep, unanswered, kStuckSeconds);
          report.attempted += kClients * ops_per_client;
          report.failed += unanswered;
          PrintReport(report, args.trace);
          std::_Exit(1);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    for (std::thread& th : threads) th.join();
    double wall = 0;
    for (const ClientResult& r : results) wall = std::max(wall, r.finished_at - wall0);
    const auto total_ops = static_cast<double>(kClients * ops_per_client);
    (traced ? traced_run_s : run_s).push_back(wall);
    ops_per_s.push_back(total_ops / wall);
    size_t reads = 0;
    report.attempted += kClients * ops_per_client;
    for (const ClientResult& r : results) {
      report.failed += r.failed;
      reads += r.read_us.size();
      read_us.insert(read_us.end(), r.read_us.begin(), r.read_us.end());
      write_us.insert(write_us.end(), r.write_us.begin(), r.write_us.end());
    }
    peak_mb.push_back(static_cast<double>(PeakRssBytes() - rss0) / 1e6);

    if (traced) {
      rec.marks.push_back({"run", Now(), db->MetricsSnapshot()});
      const auto& a = rec.marks[0].snap;
      const auto& b = rec.marks[1].snap;
      LayerValues L;
      RegistryLayers(L, a, b, static_cast<double>(reads));
      const auto qh = HistogramDelta(a, b, "holix_query_seconds");
      L["engine.execute_us_p50"] = HistogramQuantile(qh, 0.5) * 1e6;
      L["engine.execute_us_p99"] = HistogramQuantile(qh, 0.99) * 1e6;
      double rtt = 0;
      for (int c = 0; c < kClients; ++c) {
        for (double d : rec.logs[c + 1].Durations("HolixClient::ExecuteQuery")) {
          rtt += d;
        }
      }
      L["server.rtt_us_sum"] = rtt * 1e6;
      L["server.non_engine_share"] =
          rtt > 0 ? (rtt - L["engine.query_s_sum"]) / rtt : 0;
      layers.push_back(std::move(L));
      traces.push_back(std::move(rec));
    }
    server->Stop();
    server.reset();
    db.reset();
  });

  const std::string reps = std::to_string(setup_s.size());
  const std::string seq = std::to_string(kClients * ops_per_client);
  auto n = [](const std::vector<double>& v) {
    return "n=" + std::to_string(v.size());
  };
  report.end_to_end = {
      {"setup_s", Median(setup_s), "s", "median of " + reps + " set-ups"},
      {"run_s", Median(run_s), "s",
       "median of " + std::to_string(run_s.size()) + " rounds of " + seq +
           " ops on 2 connections"},
      {"ops_per_s", Median(ops_per_s), "1/s", seq + " ops / round wall time"},
      {"query_p50_us", Quantile(read_us, 0.5), "us", n(read_us)},
      {"query_p99_us", Quantile(read_us, 0.99), "us", n(read_us)},
      {"peak_rss_mb", Median(peak_mb), "MB", "median over rounds"},
  };
  report.info = {
      {"write_p50_us", Quantile(write_us, 0.5), "us",
       n(write_us) + ", in-memory pending queue"},
      {"write_p99_us", Quantile(write_us, 0.99), "us", n(write_us)},
  };
  if (args.trace) {
    FinishTraced(report, args, layers, traced_run_s, run_s, traces);
  }
  return report;
}

}  // namespace hb
