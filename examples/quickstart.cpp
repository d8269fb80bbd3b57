/// \file quickstart.cpp
/// \brief Minimal tour of holix: load a table, open a client session,
/// resolve column handles once, run range queries under holistic indexing
/// (sync and async), and watch the index space refine itself.

#include <cstdio>
#include <future>
#include <vector>

#include "engine/database.h"
#include "harness/runner.h"
#include "util/env.h"
#include "workload/workload.h"

int main() {
  using namespace holix;

  // A database in holistic mode: user queries get 4 hardware contexts,
  // everything else is fair game for holistic workers.
  DatabaseOptions opts;
  opts.mode = ExecMode::kHolistic;
  opts.user_threads = 4;
  opts.holistic.max_workers = 4;
  opts.holistic.refinements_per_worker = 16;
  Database db(opts);

  // One table, three uniform integer attributes.
  const size_t rows = ScaledSize(1u << 20);
  const int64_t domain = int64_t{1} << 30;
  LoadUniformTable(db, "r", /*num_attrs=*/3, rows, domain, /*seed=*/7);
  std::printf("loaded table r: 3 attributes x %zu rows\n", rows);

  // A client talks to the engine through a session: resolve each attribute
  // to a handle once, then query through the handles — the hot path does
  // no name hashing and takes no global lock.
  Session session = db.OpenSession();
  const auto names = MakeAttributeNames(3);
  std::vector<ColumnHandle> handles;
  for (const auto& name : names) handles.push_back(session.Handle("r", name));

  // Fire a few ad-hoc range queries; the first on each attribute builds an
  // adaptive index, later ones (and holistic workers, in the background)
  // refine it.
  WorkloadSpec spec;
  spec.num_queries = QueryCount(64);
  spec.num_attributes = 3;
  spec.domain = domain;
  spec.selectivity = 0.01;
  const auto queries = GenerateWorkload(spec);

  for (size_t i = 0; i < queries.size(); ++i) {
    const auto& q = queries[i];
    // A query is a QuerySpec: range predicates plus the results wanted.
    const QueryResult r = session.Execute(
        QuerySpec().Where(handles[q.attr], q.low, q.high).Count());
    const size_t n = static_cast<size_t>(r.values[0].i);
    if ((i + 1) % 16 == 0 || i == 0) {
      std::printf("query %3zu: count(a%zu in [%lld, %lld)) = %zu | "
                  "indices=%zu pieces=%zu\n",
                  i + 1, q.attr, static_cast<long long>(q.low),
                  static_cast<long long>(q.high), n,
                  db.NumAdaptiveIndices(), db.TotalIndexPieces());
    }
  }

  // Async submission: overlap a batch of counts through the client pool.
  std::vector<std::future<QueryResult>> batch;
  for (size_t a = 0; a < handles.size(); ++a) {
    batch.push_back(session.SubmitExecute(
        QuerySpec().Where(handles[a], 0, domain / 2).Count()));
  }
  size_t below_half = 0;
  for (auto& f : batch) below_half += static_cast<size_t>(f.get().values[0].i);
  std::printf("\nasync batch: %zu values below domain/2 across 3 attributes\n",
              below_half);

  if (auto* engine = db.holistic()) {
    std::printf("holistic engine: %llu refinement steps, %llu cracks, "
                "%zu activations\n",
                static_cast<unsigned long long>(engine->TotalRefinementSteps()),
                static_cast<unsigned long long>(engine->TotalWorkerCracks()),
                engine->Activations().size());
    std::printf("configurations: actual=%zu potential=%zu optimal=%zu\n",
                engine->store().Count(ConfigKind::kActual),
                engine->store().Count(ConfigKind::kPotential),
                engine->store().Count(ConfigKind::kOptimal));
  }
  return 0;
}
