/// \file restart.cpp
/// \brief `restart`: durability and warm start. Two int64 columns of 2^22
/// rows (a 64 MiB image) in adaptive mode with FsyncPolicy::kAlways, the
/// default. Set-up loads the table, makes it durable, converges it with
/// ~512 single-predicate queries, checkpoints and appends ~1000 durable
/// writes. The database is then dropped without a checkpoint; the measured
/// part recovers into a fresh database and replays the query sequence
/// (restart-to-answer). The persistence layer (snapshot, WAL, recovery) and
/// the recovery re-crack do the work; server, holistic and the conjunction
/// planner do none. For comparison each cycle also times the cold path:
/// reload the raw data, re-apply the live inserts in memory, replay.

#include <algorithm>
#include <filesystem>
#include <memory>

#include "data.h"
#include "persist/persistence.h"
#include "workloads.h"

namespace hb {
namespace {

struct Write {
  bool insert = true;
  int col = 0;
  int64_t value = 0;
};

/// 70% inserts of fresh values above the base domain, 30% deletes of a
/// value inserted earlier, so every write's effect is known exactly.
std::vector<Write> MakeWrites(uint64_t seed, size_t n,
                              std::vector<std::vector<int64_t>>& live) {
  Rng rng(seed * 0x8BB84B93962EACC9ull + 3);
  live.assign(2, {});
  std::vector<int64_t> inserted(2, 0);
  std::vector<Write> out(n);
  for (Write& w : out) {
    w.col = static_cast<int>(rng.Below(2));
    if (rng.Unit() < 0.3 && !live[w.col].empty()) {
      const size_t idx = rng.Below(live[w.col].size());
      w.insert = false;
      w.value = live[w.col][idx];
      live[w.col][idx] = live[w.col].back();
      live[w.col].pop_back();
    } else {
      w.value = Band(w.col) + 7 * inserted[w.col]++;
      live[w.col].push_back(w.value);
    }
  }
  return out;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) bytes += e.file_size(ec);
  }
  return bytes;
}

/// Runs the query sequence through Execute, checking every answer.
/// Returns the summed latency; appends per-query latencies to \p lat_us.
double Replay(holix::Database& db, const BenchTable& t,
              const std::vector<Query>& queries, SpanLog& log, Report& report,
              std::vector<double>* lat_us) {
  const auto handles = ResolveAll(db, t);
  double total = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const double lat = ExecuteChecked(db, ToSpec(queries[i], handles),
                                      queries[i], log, i, report);
    total += lat;
    if (lat_us != nullptr) lat_us->push_back(lat * 1e6);
  }
  return total;
}

}  // namespace

Report RunRestart(const Args& args) {
  const size_t rows = args.tiny ? 1u << 16 : 1u << 22;
  const size_t nq = args.tiny ? 64 : 512;
  const size_t nw = args.tiny ? 100 : 1000;
  const BenchTable table = MakeTable(args.seed, rows, 2, 0);
  std::vector<Query> queries(nq);
  {
    Rng rng(args.seed * 0xC2B2AE3D27D4EB4Full + 9);
    for (Query& q : queries) {
      const int c = static_cast<int>(rng.Below(2));
      q.preds.push_back(MakeRange(table, c, rng.LogUniform(1e-4, 1e-2),
                                  rng.Unit() * table.cols[c].domain()));
      // Mostly sums: a count on a converged index is a boundary lookup and
      // a sum a scan, and an even mix would put the median in the gap.
      if (rng.Unit() < 0.25) {
        q.count = true;
      } else {
        q.sum_col = c;
      }
    }
    EvaluateAll(table, queries);
  }
  std::vector<std::vector<int64_t>> live;
  const std::vector<Write> writes = MakeWrites(args.seed, nw, live);
  // After recovery every value ever inserted is counted once if still live
  // and not at all if deleted.
  std::vector<Query> presence;
  for (const Write& w : writes) {
    if (!w.insert) continue;
    Query q;
    q.preds.push_back({w.col, holix::KeyScalar::I64(w.value),
                       holix::KeyScalar::I64(w.value + 1)});
    q.count = true;
    const auto& l = live[w.col];
    q.expect.count = std::find(l.begin(), l.end(), w.value) != l.end() ? 1 : 0;
    presence.push_back(std::move(q));
  }
  const double user_bytes =
      static_cast<double>(rows * table.cols.size() * sizeof(int64_t) +
                          presence.size() * sizeof(int64_t));
  const std::string dir = args.out_dir + "/restart-data";

  Report report;
  std::vector<double> setup_s, run_s, traced_run_s, ops_per_s, peak_mb;
  std::vector<double> lat_us, write_us, checkpoint_s, recovery_s, cold_s,
      disk_ratio;
  std::vector<LayerValues> layers;
  std::vector<TraceRecord> traces;
  holix::persist::PersistOptions popts;
  popts.data_dir = dir;

  Repeat(args, 2, [&](int rep, bool traced) {
    TraceRecord rec;
    rec.label = "restart cycle " + std::to_string(rep);
    rec.logs.emplace_back(traced, 0);
    SpanLog& log = rec.logs[0];
    auto mark = [&](const char* phase, const holix::Database* db) {
      if (!traced) return;
      rec.marks.push_back({phase, Now(),
                           db != nullptr
                               ? db->MetricsSnapshot()
                               : holix::obs::MetricsRegistry::Global().Snapshot()});
    };
    std::filesystem::remove_all(dir);

    // --- Set-up: durable, converged state with a WAL tail. ---
    ResetPeakRss();
    const uint64_t rss0 = CurrentRssBytes();
    const double t0 = Now();
    auto db = std::make_unique<holix::Database>(holix::DatabaseOptions{});
    std::unique_ptr<holix::persist::PersistenceManager> pm;
    {
      ScopedSpan s(log, "setup");
      {
        ScopedSpan l(log, "Database::LoadColumn");
        LoadTable(*db, table);
      }
      {
        ScopedSpan p(log, "PersistenceManager::PersistenceManager");
        pm = std::make_unique<holix::persist::PersistenceManager>(*db, popts);
      }
      ScopedSpan c(log, "Database::Checkpoint");
      db->Checkpoint();
    }
    mark("load", db.get());
    Replay(*db, table, queries, log, report, nullptr);
    mark("converge", db.get());
    {
      const double c0 = Now();
      ScopedSpan c(log, "Database::Checkpoint");
      db->Checkpoint();
      checkpoint_s.push_back(Now() - c0);
    }
    mark("checkpoint", db.get());
    const auto handles = ResolveAll(*db, table);
    for (size_t i = 0; i < writes.size(); ++i) {
      const Write& w = writes[i];
      ++report.attempted;
      bool ok = false;
      const double w0 = Now();
      try {
        const holix::KeyScalar v = holix::KeyScalar::I64(w.value);
        if (w.insert) {
          ScopedSpan s(log, "Database::Insert", i);
          InsertValue(*db, handles[w.col], v);
          ok = true;
        } else {
          ScopedSpan s(log, "Database::Delete", i);
          ok = DeleteValue(*db, handles[w.col], v);
        }
      } catch (const std::exception&) {
        ok = false;
      }
      write_us.push_back((Now() - w0) * 1e6);
      if (!ok) ++report.failed;
    }
    mark("writes", db.get());
    const double disk_bytes = static_cast<double>(DirectoryBytes(dir));
    disk_ratio.push_back(disk_bytes / user_bytes);
    // Drop without a checkpoint: recovery must replay the WAL tail.
    pm.reset();
    db.reset();
    setup_s.push_back(Now() - t0);
    mark("drop", nullptr);

    // --- Measured: recover, then answer the query sequence. ---
    const double r0 = Now();
    {
      ScopedSpan p(log, "PersistenceManager::PersistenceManager");
      db = std::make_unique<holix::Database>(holix::DatabaseOptions{});
      pm = std::make_unique<holix::persist::PersistenceManager>(*db, popts);
    }
    const double recovery = Now() - r0;
    recovery_s.push_back(recovery);
    mark("recovery", db.get());
    const size_t replay_span0 = log.spans().size();
    const double answer = Replay(*db, table, queries, log, report, &lat_us);
    const double total = recovery + answer;
    (traced ? traced_run_s : run_s).push_back(total);
    ops_per_s.push_back(static_cast<double>(nq) / total);
    mark("replay", db.get());

    // Every acknowledged durable write is present exactly once.
    const auto recovered = ResolveAll(*db, table);
    SpanLog untraced(false, 0);
    for (size_t i = 0; i < presence.size(); ++i) {
      ExecuteChecked(*db, ToSpec(presence[i], recovered), presence[i], untraced,
                     i, report);
    }
    peak_mb.push_back(static_cast<double>(PeakRssBytes() - rss0) / 1e6);

    if (traced) {
      const auto& m = rec.marks;  // load converge checkpoint writes drop recovery replay
      LayerValues L;
      RegistryLayers(L, m[4].snap, m[6].snap, static_cast<double>(nq));
      const auto exec = log.Durations("Database::Execute", replay_span0);
      L["engine.execute_us_p50"] = Quantile(exec, 0.5) * 1e6;
      L["engine.execute_us_p99"] = Quantile(exec, 0.99) * 1e6;
      L["cracking.recovery_bytes_moved"] = static_cast<double>(
          CounterDelta(m[4].snap, m[5].snap, "holix_crack_bytes_moved_total"));
      L["persist.checkpoint_s"] = checkpoint_s.back();
      L["persist.checkpoint_bytes"] = static_cast<double>(
          CounterDelta(m[1].snap, m[2].snap, "holix_checkpoint_bytes_total"));
      L["persist.checkpoint_mb_per_s"] =
          L["persist.checkpoint_bytes"] / 1e6 / checkpoint_s.back();
      const double records = static_cast<double>(
          CounterDelta(m[2].snap, m[3].snap, "holix_wal_records_total"));
      L["persist.wal_records"] = records;
      L["persist.wal_fsyncs"] = static_cast<double>(
          CounterDelta(m[2].snap, m[3].snap, "holix_wal_fsyncs_total"));
      L["base.wal_bytes"] = static_cast<double>(
          CounterDelta(m[2].snap, m[3].snap, "holix_wal_bytes_total"));
      L["persist.wal_bytes_per_record"] =
          records > 0 ? L["base.wal_bytes"] / records : 0;
      L["persist.wal_append_us_p50"] =
          HistogramQuantile(HistogramDelta(m[2].snap, m[3].snap,
                                           "holix_wal_append_seconds"),
                            0.5) *
          1e6;
      L["persist.recovery_s"] = recovery;
      L["persist.replayed_records"] = static_cast<double>(
          CounterDelta(m[4].snap, m[5].snap, "holix_wal_replayed_records_total"));
      L["persist.recovery_pivots"] = static_cast<double>(
          CounterDelta(m[4].snap, m[5].snap, "holix_recovery_pivots_total"));
      L["persist.recovery_columns"] = static_cast<double>(
          CounterDelta(m[4].snap, m[5].snap, "holix_recovery_columns_total"));
      L["persist.disk_bytes_per_user_byte"] = disk_ratio.back();
      L["base.disk_bytes"] = disk_bytes;
      L["base.user_bytes"] = user_bytes;
      layers.push_back(std::move(L));
      traces.push_back(std::move(rec));
    }
    pm.reset();
    db.reset();
    std::filesystem::remove_all(dir);

    // --- Cold path for comparison: reload, re-apply live inserts, replay.
    const double k0 = Now();
    db = std::make_unique<holix::Database>(holix::DatabaseOptions{});
    LoadTable(*db, table);
    const auto cold_handles = ResolveAll(*db, table);
    for (int c = 0; c < 2; ++c) {
      for (int64_t v : live[c]) {
        InsertValue(*db, cold_handles[c], holix::KeyScalar::I64(v));
      }
    }
    Replay(*db, table, queries, untraced, report, nullptr);
    cold_s.push_back(Now() - k0);
    db.reset();
  });

  const std::string reps = std::to_string(setup_s.size());
  auto n = [](const std::vector<double>& v) {
    return "n=" + std::to_string(v.size());
  };
  report.end_to_end = {
      {"setup_s", Median(setup_s), "s",
       "median of " + reps +
           " set-ups: load, checkpoint, converge, checkpoint, writes"},
      {"run_s", Median(run_s), "s",
       "restart-to-answer: recovery + " + std::to_string(nq) +
           " replayed queries, median of " + std::to_string(run_s.size())},
      {"ops_per_s", Median(ops_per_s), "1/s", "replayed queries / run_s"},
      {"query_p50_us", Quantile(lat_us, 0.5), "us",
       n(lat_us) + ", after recovery"},
      {"query_p99_us", Quantile(lat_us, 0.99), "us", n(lat_us)},
      {"peak_rss_mb", Median(peak_mb), "MB", "median over cycles"},
  };
  const double warm = Median(run_s);
  const double cold = Median(cold_s);
  report.info = {
      {"write_p50_us", Quantile(write_us, 0.5), "us",
       n(write_us) + ", durable (WAL, fsync always)"},
      {"write_p99_us", Quantile(write_us, 0.99), "us", n(write_us)},
      {"checkpoint_s", Median(checkpoint_s), "s", n(checkpoint_s)},
      {"recovery_s", Median(recovery_s), "s", n(recovery_s)},
      {"restart_to_answer_s", warm, "s", "= run_s"},
      {"cold_restart_s", cold, "s",
       "reload + re-insert + replay, " + n(cold_s) + "; warm/cold = " +
           std::to_string(cold > 0 ? warm / cold : 0)},
      {"disk_bytes_per_user_byte", Median(disk_ratio), "ratio",
       "data dir bytes / " + std::to_string(static_cast<uint64_t>(user_bytes)) +
           " user bytes"},
  };
  if (args.trace) {
    FinishTraced(report, args, layers, traced_run_s, run_s, traces);
  }
  return report;
}

}  // namespace hb
