/// \file fig_recovery.cpp
/// \brief Durability figure (no paper counterpart): checkpoint cost, crash
/// recovery time, and cold vs warm restart time-to-convergence. A database
/// cracks under a random workload and checkpoints; a "crash" is then
/// simulated two ways — a cold restart that reloads raw data and re-cracks
/// from scratch, and a warm start that recovers the snapshot + WAL tail and
/// re-cracks to the saved pivots before serving. The warm path should pay
/// its cost once in recovery and answer its first queries at
/// post-convergence latency; the end-to-end rows (restart + full workload)
/// show whether that one-off cost is repaid.

#include <cstdint>
#include <filesystem>
#include <string>

#include "bench_common.h"
#include "persist/persistence.h"
#include "util/timer.h"

using namespace holix;
using namespace holix::bench;

namespace {

constexpr size_t kAttrs = 2;

double RunQueries(Database& db, const std::vector<std::string>& names,
                  const std::vector<RangeQuery>& queries, double* first) {
  double total = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    Timer t;
    Count(db, db.Resolve("r", names[queries[i].attr]), queries[i].low,
          queries[i].high);
    const double s = t.ElapsedSeconds();
    if (i == 0 && first != nullptr) *first = s;
    total += s;
  }
  return total;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

}  // namespace

int main() {
  const BenchEnv env = ReadEnv(/*rows=*/1u << 22, /*queries=*/200);
  PrintScaleNote(env, kAttrs);

  const std::filesystem::path root =
      std::filesystem::temp_directory_path() / "holix_fig_recovery";
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  const std::string dir = (root / "data").string();

  WorkloadSpec spec;
  spec.num_queries = env.queries;
  spec.num_attributes = kAttrs;
  spec.domain = env.domain;
  spec.pattern = QueryPattern::kRandom;
  spec.seed = env.seed;
  const auto queries = GenerateWorkload(spec);
  const auto names = MakeAttributeNames(kAttrs);

  persist::PersistOptions popts;
  popts.data_dir = dir;
  popts.fsync = persist::FsyncPolicy::kAlways;

  // Build: crack under the workload, checkpoint, then leave a WAL tail of
  // durable inserts that recovery must replay on top of the snapshot.
  const size_t wal_tail = std::min<size_t>(env.queries * 2, 1000);
  double build_seconds, checkpoint_seconds, wal_seconds;
  {
    Database db(PlainOptions(ExecMode::kAdaptive, env.cores));
    LoadUniformTable(db, "r", kAttrs, env.rows, env.domain, env.seed);
    persist::PersistenceManager pm(db, popts);
    build_seconds = RunQueries(db, names, queries, nullptr);
    Timer ckpt;
    pm.Checkpoint();
    checkpoint_seconds = ckpt.ElapsedSeconds();
    Timer wal;
    const ColumnHandle a0 = db.Resolve("r", "a0");
    for (size_t i = 0; i < wal_tail; ++i) {
      db.Insert(a0, env.domain + 1 + static_cast<int64_t>(i));
    }
    wal_seconds = wal.ElapsedSeconds();
  }
  const uint64_t snapshot_bytes = DirectoryBytes(dir);

  // Cold restart: reload the raw column data, re-apply the updates, and
  // let the same workload re-crack from nothing.
  double cold_load_seconds, cold_first = 0, cold_total;
  {
    Database db(PlainOptions(ExecMode::kAdaptive, env.cores));
    Timer load;
    LoadUniformTable(db, "r", kAttrs, env.rows, env.domain, env.seed);
    const ColumnHandle a0 = db.Resolve("r", "a0");
    for (size_t i = 0; i < wal_tail; ++i) {
      db.Insert(a0, env.domain + 1 + static_cast<int64_t>(i));
    }
    cold_load_seconds = load.ElapsedSeconds();
    cold_total = RunQueries(db, names, queries, &cold_first);
  }

  // Warm restart: recover snapshot + WAL and re-crack to the saved pivots,
  // then serve the same workload against the already-converged index.
  double recover_seconds, warm_first = 0, warm_total;
  {
    Database db(PlainOptions(ExecMode::kAdaptive, env.cores));
    Timer rec;
    persist::PersistenceManager pm(db, popts);
    recover_seconds = rec.ElapsedSeconds();
    warm_total = RunQueries(db, names, queries, &warm_first);
  }

  ReportTable t("Fig R: crash recovery and warm-start convergence");
  t.SetHeader({"stage", "seconds"});
  t.AddRow({"build: " + std::to_string(env.queries) + " cracking queries",
            FormatSeconds(build_seconds)});
  t.AddRow({"checkpoint (" +
                std::to_string(snapshot_bytes / (1024 * 1024)) + " MiB)",
            FormatSeconds(checkpoint_seconds)});
  t.AddRow({"wal tail: " + std::to_string(wal_tail) +
                " durable inserts (fsync=always)",
            FormatSeconds(wal_seconds)});
  t.AddRow({"cold restart: reload + re-apply updates",
            FormatSeconds(cold_load_seconds)});
  t.AddRow({"cold: first query", FormatSeconds(cold_first)});
  t.AddRow({"cold: full workload re-converges", FormatSeconds(cold_total)});
  t.AddRow({"warm recovery: snapshot + wal replay + re-crack",
            FormatSeconds(recover_seconds)});
  t.AddRow({"warm: first query", FormatSeconds(warm_first)});
  t.AddRow({"warm: full workload", FormatSeconds(warm_total)});
  // What a restart costs before the workload is done, all-in: the rows a
  // headline first-query ratio must never be read without.
  const double warm_e2e = recover_seconds + warm_total;
  const double cold_e2e = cold_load_seconds + cold_total;
  t.AddRow({"warm end to end: recovery + full workload",
            FormatSeconds(warm_e2e)});
  t.AddRow({"cold end to end: reload + full workload re-converges",
            FormatSeconds(cold_e2e)});
  t.Print();
  SaveBenchJson(t, "fig_recovery");

  std::printf("\n# first query: warm %.1fx faster than cold; end to end "
              "(restart + full workload): warm/cold = %.2f (%.4f s vs "
              "%.4f s; > 1 means warm is slower)\n",
              cold_first / std::max(warm_first, 1e-9),
              warm_e2e / std::max(cold_e2e, 1e-9), warm_e2e, cold_e2e);
  std::filesystem::remove_all(root);
  return 0;
}
