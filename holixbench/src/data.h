/// \file data.h
/// \brief Generated tables, range queries over them, and the oracle that
/// answers those queries exactly from sorted copies of the columns.
///
/// Integer columns hold uniform values in [0, kIntDomain). Double columns
/// hold k / 64 for uniform k in [0, 2^24): every partial sum over at most
/// 2^22 such values is a multiple of 2^-6 below 2^40, so it is exact in a
/// double whatever order the engine adds in, and the oracle can compare
/// double sums bit for bit.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "engine/database.h"
#include "server/protocol.h"

namespace hb {

inline constexpr int64_t kIntDomain = 1'000'000'000;
inline constexpr double kDoubleDomain = 262144.0;  // 2^24 / 64

struct BenchColumn {
  std::string name;
  bool is_double = false;
  std::vector<int64_t> ints;  ///< Base values (integer column).
  std::vector<double> dbls;   ///< Base values (double column).
  /// Oracle: the base values sorted ascending, with their rowids.
  std::vector<int64_t> sorted_ints;
  std::vector<double> sorted_dbls;
  std::vector<uint32_t> sorted_rids;

  double domain() const {
    return is_double ? kDoubleDomain : static_cast<double>(kIntDomain);
  }
};

struct BenchTable {
  size_t rows = 0;
  std::vector<BenchColumn> cols;
};

/// Generates \p ints integer columns a0.. then \p dbls double columns d0..
/// of \p rows rows each from \p seed, and sorts the oracle copies.
BenchTable MakeTable(uint64_t seed, size_t rows, int ints, int dbls);

/// Loads copies of every column into \p db as table "t".
void LoadTable(holix::Database& db, const BenchTable& t);

/// Resolves every column of table "t" in \p db, in table order.
std::vector<holix::ColumnHandle> ResolveAll(holix::Database& db,
                                            const BenchTable& t);

/// low <= column < high.
struct Pred {
  int col = 0;
  holix::KeyScalar low;
  holix::KeyScalar high;
};

/// The answer to a query. `sum` carries the summed column's type.
struct Answer {
  int64_t count = 0;
  holix::KeyScalar sum;
};

/// A conjunction of range predicates over table "t" asking for a count,
/// a sum of one column, or both.
struct Query {
  std::vector<Pred> preds;
  bool count = false;
  int sum_col = -1;  ///< -1: no sum requested.
  Answer expect;
};

/// A range of selectivity \p sel over column \p col centred on \p center.
Pred MakeRange(const BenchTable& t, int col, double sel, double center);

/// Exact answer from the sorted copies (base rows only).
Answer Evaluate(const BenchTable& t, const Query& q);

/// Fills q.expect for every query, in parallel.
void EvaluateAll(const BenchTable& t, std::vector<Query>& qs);

/// The in-process form of \p q.
holix::QuerySpec ToSpec(const Query& q,
                        const std::vector<holix::ColumnHandle>& handles);

/// The wire form of \p q (predicates, result requests).
std::vector<holix::net::QueryPredicateWire> ToWirePreds(const BenchTable& t,
                                                        const Query& q);
std::vector<holix::net::QueryResultSpecWire> ToWireResults(
    const BenchTable& t, const Query& q);

/// True when \p values (one per requested result, count first) equal the
/// expected answer exactly.
bool Matches(const Query& q, const std::vector<holix::KeyScalar>& values);

/// Start of the values written into integer column \p col: far above
/// kIntDomain, so base-domain reads never see writes and a delete of a
/// written value hits exactly the row it was inserted with.
inline int64_t Band(int col) {
  return (int64_t{1} << 40) + (int64_t{col} << 32);
}

/// Runs \p spec (the in-process form of \p q) inside a span, checks the
/// answer against q.expect and counts the operation in \p report.
/// Returns the latency of the call in seconds.
double ExecuteChecked(holix::Database& db, const holix::QuerySpec& spec,
                      const Query& q, SpanLog& log, uint64_t request,
                      Report& report);

/// Single-column insert / delete of a KeyScalar through a Database or a
/// HolixClient. Today both expose them as InsertScalar / DeleteScalar; the
/// planned one-query-path API names them Insert / Delete on KeyScalar.
/// Either spelling compiles here, so that rename needs no benchmark edit.
template <typename Target, typename... Where>
auto InsertValue(Target& target, Where&&... where) {
  if constexpr (requires { target.InsertScalar(where...); }) {
    return target.InsertScalar(where...);
  } else {
    return target.Insert(where...);
  }
}

template <typename Target, typename... Where>
bool DeleteValue(Target& target, Where&&... where) {
  if constexpr (requires { target.DeleteScalar(where...); }) {
    return target.DeleteScalar(where...);
  } else {
    return target.Delete(where...);
  }
}

}  // namespace hb
