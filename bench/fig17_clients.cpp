/// \file fig17_clients.cpp
/// \brief Reproduces Figure 17 (§5.8): varying the number of concurrent
/// clients. With few clients there are idle contexts for holistic workers;
/// as clients saturate the machine, holistic indexing detects the load and
/// stays out of the way (its benefit, and its interference, vanish).

#include "bench_common.h"

using namespace holix;
using namespace holix::bench;

int main() {
  const BenchEnv env = ReadEnv(/*rows=*/1u << 21, /*queries=*/1024);
  const size_t attrs = 10;
  PrintScaleNote(env, attrs);

  WorkloadSpec spec;
  spec.num_queries = env.queries;
  spec.num_attributes = attrs;
  spec.domain = env.domain;
  spec.pattern = QueryPattern::kRandom;
  spec.seed = env.seed;
  const auto queries = GenerateWorkload(spec);
  const auto names = MakeAttributeNames(attrs);

  std::vector<size_t> client_counts;
  for (size_t c = 1; c < env.cores; c *= 2) client_counts.push_back(c);
  client_counts.push_back(env.cores);

  ReportTable t("Fig 17: total processing cost (s) vs #clients");
  t.SetHeader({"clients", "PVDC", "HI", "PVDC split", "HI split"});
  for (size_t clients : client_counts) {
    // Divide the machine's contexts across clients (each query runs with
    // total/clients threads), as the paper's labels u32, u16w8x2, ... do.
    const size_t per_query = std::max<size_t>(1, env.cores / clients);
    double pvdc, hi;
    {
      Database db(PlainOptions(ExecMode::kAdaptive, per_query));
      LoadUniformTable(db, "r", attrs, env.rows, env.domain, env.seed);
      pvdc = RunWorkloadConcurrentChecked(db, "r", names, queries, clients)
                 .seconds;
    }
    // Holistic: user queries take half the per-client budget when there is
    // room; the rest of the machine is worker territory.
    const size_t u = std::max<size_t>(1, per_query / 2);
    const size_t w = std::max<size_t>(1, (env.cores - u * clients) /
                                             (2 * std::max<size_t>(1, clients)));
    const size_t z = 2;
    {
      Database db(HolisticOptions(u, w, z, env.cores));
      LoadUniformTable(db, "r", attrs, env.rows, env.domain, env.seed);
      hi = RunWorkloadConcurrentChecked(db, "r", names, queries, clients)
               .seconds;
    }
    t.AddRow({std::to_string(clients), FormatSeconds(pvdc), FormatSeconds(hi),
              SplitLabel(per_query, 0, 0), SplitLabel(u, w, z)});
  }
  t.Print();
  SaveBenchJson(t, "fig17");
  std::printf("\n# paper: big HI benefit with few clients; benefit "
              "disappears as clients saturate all contexts\n");
  return 0;
}
