/// \file fig16_updates.cpp
/// \brief Reproduces Figure 16 (§5.7): read/write workloads. HFLV = 10
/// inserts every 10 queries, LFHV = 100 inserts every 100 queries; 500
/// selects + 500 inserts on one attribute, with an idle gap after the 10th
/// query. Single-threaded adaptive indexing vs. holistic indexing with one
/// worker that refines (and merges pending inserts) in the background.

#include <chrono>
#include <thread>

#include "bench_common.h"
#include "util/timer.h"

using namespace holix;
using namespace holix::bench;

namespace {

double RunScenario(Database& db, const std::vector<WorkloadOp>& ops) {
  double query_seconds = 0;
  for (const auto& op : ops) {
    switch (op.kind) {
      case WorkloadOp::Kind::kQuery: {
        Timer t;
        Count(db, db.Resolve("r", "a0"), op.query.low, op.query.high);
        query_seconds += t.ElapsedSeconds();
        break;
      }
      case WorkloadOp::Kind::kInsert:
        db.Insert(db.Resolve("r", "a0"), op.insert_value);
        break;
      case WorkloadOp::Kind::kIdle:
        std::this_thread::sleep_for(
            std::chrono::duration<double>(op.idle_seconds));
        break;
    }
  }
  return query_seconds;
}

}  // namespace

int main() {
  const BenchEnv env = ReadEnv(/*rows=*/1u << 22, /*queries=*/500);
  PrintScaleNote(env, 1);
  // The paper idles 20 s at 10^9 rows; scale the gap with the data.
  const double idle_seconds =
      EnvDouble("HOLIX_IDLE_SECONDS",
                2.0 * static_cast<double>(env.rows) / (1u << 22));

  const UpdateScenario scenarios[] = {
      UpdateScenario::kHighFrequencyLowVolume,
      UpdateScenario::kLowFrequencyHighVolume};
  const char* labels[] = {"HFLV", "LFHV"};

  ReportTable t("Fig 16: update workloads, total query cost (s)");
  t.SetHeader({"scenario", "adaptive", "holistic", "merged by workers"});
  for (size_t s = 0; s < 2; ++s) {
    const auto ops = GenerateUpdateWorkload(scenarios[s], env.queries,
                                            env.domain, idle_seconds,
                                            env.seed + s);
    double adaptive_cost, holistic_cost;
    uint64_t merged = 0;
    {
      // Single-threaded adaptive indexing, as in the paper's §5.7 set-up.
      Database db(PlainOptions(ExecMode::kAdaptive, 1));
      db.LoadColumn("r", "a0",
                    GenerateUniformColumn(env.rows, env.domain, env.seed));
      adaptive_cost = RunScenario(db, ops);
    }
    {
      // Holistic with a single worker exploiting idle time.
      DatabaseOptions opts = HolisticOptions(1, 1, 1, 2);
      Database db(opts);
      db.LoadColumn("r", "a0",
                    GenerateUniformColumn(env.rows, env.domain, env.seed));
      holistic_cost = RunScenario(db, ops);
      if (auto* engine = db.holistic()) {
        const auto idx = engine->store().Find("r.a0");
        if (idx != nullptr) {
          merged = idx->stats().merged_inserts.load();
        }
      }
    }
    t.AddRow({labels[s], FormatSeconds(adaptive_cost),
              FormatSeconds(holistic_cost), std::to_string(merged)});
  }
  t.Print();
  SaveBenchJson(t, "fig16");
  std::printf("\n# paper: holistic keeps its ~50%% advantage under updates; "
              "workers also consume pending inserts\n");
  return 0;
}
