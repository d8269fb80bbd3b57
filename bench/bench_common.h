/// \file bench_common.h
/// \brief Shared plumbing for the figure/table reproduction benchmarks.
///
/// Every bench binary prints the same rows/series the paper's plot shows,
/// at laptop scale. `HOLIX_SCALE` multiplies column sizes, `HOLIX_QUERIES`
/// overrides query counts, `HOLIX_CORES` overrides the modelled number of
/// hardware contexts.

#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "obs/metrics.h"
#include "util/env.h"
#include "workload/workload.h"

namespace holix::bench {

/// Environment-derived experiment scale.
struct BenchEnv {
  size_t rows;     ///< Rows per attribute column.
  size_t queries;  ///< Queries in the workload.
  size_t cores;    ///< Modelled hardware contexts.
  int64_t domain = int64_t{1} << 30;
  uint64_t seed = 1907;
};

inline BenchEnv ReadEnv(size_t default_rows, size_t default_queries) {
  BenchEnv env;
  env.rows = ScaledSize(default_rows);
  env.queries = QueryCount(default_queries);
  const int64_t forced_cores = EnvInt("HOLIX_CORES", 0);
  env.cores = forced_cores > 0
                  ? static_cast<size_t>(forced_cores)
                  : std::max<size_t>(2, std::thread::hardware_concurrency());
  return env;
}

/// Options for a plain (non-holistic) mode with \p user_threads contexts.
inline DatabaseOptions PlainOptions(ExecMode mode, size_t user_threads) {
  DatabaseOptions opts;
  opts.mode = mode;
  opts.user_threads = user_threads;
  return opts;
}

/// Options for holistic mode: the paper's "u{U}w{W}x{Z}" thread split plus
/// x refinements per worker.
inline DatabaseOptions HolisticOptions(size_t user_threads, size_t workers,
                                       size_t threads_per_worker,
                                       size_t total_cores,
                                       size_t refinements_per_worker = 16,
                                       Strategy strategy = Strategy::kW4) {
  DatabaseOptions opts;
  opts.mode = ExecMode::kHolistic;
  opts.user_threads = user_threads;
  opts.total_cores = total_cores;
  opts.holistic.max_workers = workers;
  opts.holistic.threads_per_worker = threads_per_worker;
  opts.holistic.refinements_per_worker = refinements_per_worker;
  opts.holistic.strategy = strategy;
  opts.holistic.monitor_interval_seconds = 0.001;
  return opts;
}

/// "uXwYxZ" label as used on the paper's bar charts.
inline std::string SplitLabel(size_t u, size_t w, size_t z) {
  std::string label("u");
  label += std::to_string(u);
  if (w > 0) {
    label += "w";
    label += std::to_string(w);
    label += "x";
    label += std::to_string(z);
  }
  return label;
}

/// Runs one mode over a freshly loaded copy of the standard uniform table.
/// Returns the per-query latency series.
inline RunResult RunMode(const DatabaseOptions& opts, const BenchEnv& env,
                         size_t num_attrs,
                         const std::vector<RangeQuery>& queries) {
  Database db(opts);
  LoadUniformTable(db, "r", num_attrs, env.rows, env.domain, env.seed);
  const auto names = MakeAttributeNames(num_attrs);
  return RunWorkload(db, "r", names, queries);
}

/// Double-keyed variant of RunMode: loads genuine double columns and
/// replays the same workload with double bounds.
inline RunResult RunModeF64(const DatabaseOptions& opts, const BenchEnv& env,
                            size_t num_attrs,
                            const std::vector<RangeQuery>& queries) {
  Database db(opts);
  LoadUniformDoubleTable(db, "r", num_attrs, env.rows, env.domain, env.seed);
  const auto names = MakeAttributeNames(num_attrs);
  return RunWorkloadF64(db, "r", names, queries);
}

/// select count(*) where low <= column < high: the one-predicate
/// QuerySpec most benches time.
inline size_t Count(Database& db, const ColumnHandle& column, KeyScalar low,
                    KeyScalar high) {
  return static_cast<size_t>(
      db.Execute(QuerySpec().Where(column, low, high).Count()).values[0].i);
}

/// Raises the soft RLIMIT_NOFILE toward \p want (bounded by the hard
/// limit). The socket sweeps open >2k fds in one process (client and
/// server ends both live here), which overruns the common 1024 default.
/// \return the resulting soft limit.
inline size_t RaiseFdLimit(size_t want) {
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return 0;
  if (rl.rlim_cur < want) {
    rlimit raised = rl;
    raised.rlim_cur = rl.rlim_max == RLIM_INFINITY
                          ? want
                          : std::min<rlim_t>(want, rl.rlim_max);
    if (::setrlimit(RLIMIT_NOFILE, &raised) == 0) rl = raised;
  }
  return rl.rlim_cur == RLIM_INFINITY ? want
                                      : static_cast<size_t>(rl.rlim_cur);
}

inline void PrintScaleNote(const BenchEnv& env, size_t num_attrs) {
  std::printf("# rows/attribute=%zu attrs=%zu queries=%zu cores=%zu "
              "(paper: 2^30 rows, 32 contexts; set HOLIX_SCALE to grow)\n",
              env.rows, num_attrs, env.queries, env.cores);
}

/// Machine-readable bench output: when `HOLIX_BENCH_JSON=<dir>` is set,
/// writes the table as `<dir>/BENCH_<name>.json` so the perf trajectory of
/// every figure is recordable (CI uploads these as artifacts).
/// \return true when a file was written.
inline bool SaveBenchJson(const ReportTable& t, const std::string& name) {
  const char* dir = std::getenv("HOLIX_BENCH_JSON");
  if (dir == nullptr || *dir == '\0') return false;
  const std::string path = std::string(dir) + "/BENCH_" + name + ".json";
  if (!t.SaveJson(path)) {
    std::fprintf(stderr, "# failed to write %s\n", path.c_str());
    return false;
  }
  std::printf("# wrote %s\n", path.c_str());
  // The engine-side telemetry behind the numbers (cracks, bytes moved,
  // pieces, per-mode latency histograms...) rides along so a perf
  // regression in the table can be diagnosed from the same artifact set.
  const std::string mpath =
      std::string(dir) + "/METRICS_" + name + ".json";
  std::ofstream mf(mpath);
  if (mf) {
    mf << obs::MetricsJson(obs::MetricsRegistry::Global().Snapshot());
    std::printf("# wrote %s\n", mpath.c_str());
  }
  return true;
}

}  // namespace holix::bench
