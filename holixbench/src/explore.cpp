/// \file explore.cpp
/// \brief `explore`: the paper's own experiment (§5, Figs. 6 and 8). A
/// cold 8-column table of 256 MiB (above the 105 MiB LLC of the reference
/// machine) receives ~10^4 range queries from one in-process session in
/// holistic mode (u1), with holistic workers on the other contexts. The
/// cracking, holistic and engine-planner layers do the work; the server and
/// persistence layers do none.

#include <algorithm>
#include <memory>
#include <thread>

#include "data.h"
#include "workloads.h"

namespace hb {
namespace {

/// 70% single-predicate count or sum, 30% 2-3-predicate conjunctions with a
/// count and a sum (the TPC-H Q6 shape). Columns are drawn Zipf-skewed;
/// half the ranges sit at random positions, half cluster around a per-column
/// hot spot that drifts.
std::vector<Query> MakeQueries(const BenchTable& t, uint64_t seed, size_t n) {
  Rng rng(seed * 0xD1B54A32D192ED03ull + 7);
  const int cols = static_cast<int>(t.cols.size());
  std::vector<int> order(cols);
  for (int c = 0; c < cols; ++c) order[c] = c;
  for (int c = cols - 1; c > 0; --c) std::swap(order[c], order[rng.Below(c + 1)]);
  const Zipf zipf(cols, 1.0);
  std::vector<double> hot(cols);
  for (int c = 0; c < cols; ++c) hot[c] = rng.Unit() * t.cols[c].domain();

  auto center = [&](int c) {
    const double d = t.cols[c].domain();
    if (rng.Unit() < 0.5) return rng.Unit() * d;
    hot[c] += (rng.Unit() - 0.5) * 0.01 * d;
    if (hot[c] < 0 || hot[c] >= d) hot[c] = rng.Unit() * d;
    return hot[c] + (rng.Unit() - 0.5) * 0.02 * d;
  };

  std::vector<Query> qs(n);
  for (Query& q : qs) {
    if (rng.Unit() < 0.7) {
      const int c = order[zipf.Sample(rng)];
      q.preds.push_back(MakeRange(t, c, rng.LogUniform(1e-4, 1e-2), center(c)));
      if (rng.Unit() < 0.5) {
        q.count = true;
      } else {
        q.sum_col = c;
      }
      continue;
    }
    const size_t width = rng.Unit() < 0.5 ? 2 : 3;
    std::vector<int> picked;
    while (picked.size() < width) {
      const int c = order[zipf.Sample(rng)];
      if (std::find(picked.begin(), picked.end(), c) == picked.end()) {
        picked.push_back(c);
      }
    }
    for (size_t i = 0; i < picked.size(); ++i) {
      const double sel =
          i == 0 ? rng.LogUniform(1e-3, 1e-2) : 0.2 + 0.4 * rng.Unit();
      q.preds.push_back(MakeRange(t, picked[i], sel, center(picked[i])));
    }
    q.count = true;
    q.sum_col = static_cast<int>(rng.Below(cols));
  }
  return qs;
}

}  // namespace

Report RunExplore(const Args& args) {
  const size_t rows = args.tiny ? 1u << 15 : 1u << 22;
  const size_t nq = args.tiny ? 500 : 10000;
  const BenchTable table = MakeTable(args.seed, rows, 6, 2);
  std::vector<Query> queries = MakeQueries(table, args.seed, nq);
  EvaluateAll(table, queries);

  holix::DatabaseOptions opts;
  opts.mode = holix::ExecMode::kHolistic;
  opts.user_threads = 1;
  const double idle_contexts =
      std::max(1.0, std::thread::hardware_concurrency() - 1.0);

  Report report;
  std::vector<double> setup_s, run_s, traced_run_s, ops_per_s, peak_mb, lat_us;
  std::vector<LayerValues> layers;
  std::vector<TraceRecord> traces;

  Repeat(args, 3, [&](int rep, bool traced) {
    TraceRecord rec;
    rec.label = "explore rep " + std::to_string(rep);
    rec.logs.emplace_back(traced, 0);
    SpanLog& log = rec.logs[0];

    ResetPeakRss();
    const uint64_t rss0 = CurrentRssBytes();
    const double t0 = Now();
    std::unique_ptr<holix::Database> db;
    {
      ScopedSpan s(log, "setup");
      {
        ScopedSpan c(log, "Database::Database");
        db = std::make_unique<holix::Database>(opts);
      }
      ScopedSpan l(log, "Database::LoadColumn");
      LoadTable(*db, table);
    }
    setup_s.push_back(Now() - t0);

    const auto handles = ResolveAll(*db, table);
    std::vector<holix::QuerySpec> specs;
    for (const Query& q : queries) specs.push_back(ToSpec(q, handles));

    if (traced) rec.marks.push_back({"setup", Now(), db->MetricsSnapshot()});
    const size_t act0 = db->holistic()->Activations().size();
    double total = 0;
    const double wall0 = Now();
    for (size_t i = 0; i < specs.size(); ++i) {
      const double lat =
          ExecuteChecked(*db, specs[i], queries[i], log, i, report);
      total += lat;
      lat_us.push_back(lat * 1e6);
    }
    const double wall = Now() - wall0;
    (traced ? traced_run_s : run_s).push_back(total);
    ops_per_s.push_back(static_cast<double>(specs.size()) / total);
    peak_mb.push_back(static_cast<double>(PeakRssBytes() - rss0) / 1e6);

    if (traced) {
      rec.marks.push_back({"run", Now(), db->MetricsSnapshot()});
      const auto acts = db->holistic()->Activations();
      double busy = 0;
      for (size_t i = act0; i < acts.size(); ++i) {
        busy += acts[i].cycle_seconds * static_cast<double>(acts[i].workers);
      }
      LayerValues L;
      RegistryLayers(L, rec.marks[0].snap, rec.marks[1].snap,
                     static_cast<double>(specs.size()));
      const auto exec = log.Durations("Database::Execute");
      L["engine.execute_us_p50"] = Quantile(exec, 0.5) * 1e6;
      L["engine.execute_us_p99"] = Quantile(exec, 0.99) * 1e6;
      L["holistic.busy_s"] = busy;
      L["base.idle_core_s"] = idle_contexts * wall;
      L["holistic.idle_used_frac"] = busy / (idle_contexts * wall);
      layers.push_back(std::move(L));
      traces.push_back(std::move(rec));
    }
    db.reset();
  });

  const std::string reps = std::to_string(setup_s.size());
  const std::string n = "n=" + std::to_string(lat_us.size());
  report.end_to_end = {
      {"setup_s", Median(setup_s), "s", "median of " + reps + " set-ups"},
      {"run_s", Median(run_s), "s",
       "median of " + std::to_string(run_s.size()) + " cold sequences of " +
           std::to_string(nq) + " queries"},
      {"ops_per_s", Median(ops_per_s), "1/s", "queries / run_s"},
      {"query_p50_us", Quantile(lat_us, 0.5), "us", n},
      {"query_p99_us", Quantile(lat_us, 0.99), "us", n},
      {"peak_rss_mb", Median(peak_mb), "MB", "median over repetitions"},
  };
  if (args.trace) {
    FinishTraced(report, args, layers, traced_run_s, run_s, traces);
  }
  return report;
}

}  // namespace hb
