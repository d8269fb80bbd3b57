/// \file runner.h
/// \brief Shared experiment plumbing: loading synthetic tables into a
/// Database and replaying workloads with per-query timing.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/database.h"
#include "harness/report.h"
#include "workload/workload.h"

namespace holix {

/// Attribute names "a0".."a{n-1}".
std::vector<std::string> MakeAttributeNames(size_t n);

/// Loads \p num_attrs uniform int64 columns of \p rows values in
/// [0, domain) into table \p table of \p db (attribute i gets seed+i).
void LoadUniformTable(Database& db, const std::string& table,
                      size_t num_attrs, size_t rows, int64_t domain,
                      uint64_t seed);

/// Double-keyed variant of LoadUniformTable: genuine double columns
/// (integer grid + fractional offsets) over the same [0, domain) span.
void LoadUniformDoubleTable(Database& db, const std::string& table,
                            size_t num_attrs, size_t rows, int64_t domain,
                            uint64_t seed);

/// Result of replaying a workload.
struct RunResult {
  ResponseSeries series;     ///< Per-query latencies, in order.
  uint64_t result_checksum;  ///< Sum of per-query counts (correctness probe).
};

/// Replays \p queries against \p db sequentially through one session with
/// pre-resolved handles, timing each count query.
RunResult RunWorkload(Database& db, const std::string& table,
                      const std::vector<std::string>& columns,
                      const std::vector<RangeQuery>& queries);

/// Replays \p queries with double bounds: each integer predicate becomes
/// [low + 0.5, high + 0.5) so the bounds are genuinely fractional,
/// identically across modes — checksums stay comparable to a scan oracle
/// run over the same data and workload.
RunResult RunWorkloadF64(Database& db, const std::string& table,
                         const std::vector<std::string>& columns,
                         const std::vector<RangeQuery>& queries);

/// Result of a concurrent (multi-client) replay.
struct ConcurrentRunResult {
  double seconds;            ///< Total wall-clock seconds.
  uint64_t result_checksum;  ///< Sum of per-query counts across clients.
};

/// Replays \p queries with \p clients concurrent client sessions driven by
/// the database's client pool, each taking queries round-robin (the §5.8
/// concurrent-traffic model). The checksum is order-independent, so it is
/// comparable across client counts, modes, and transports (fig17_socket
/// matches it against the loopback-TCP run).
ConcurrentRunResult RunWorkloadConcurrentChecked(
    Database& db, const std::string& table,
    const std::vector<std::string>& columns,
    const std::vector<RangeQuery>& queries, size_t clients);

}  // namespace holix
