#include "data.h"

#include <algorithm>
#include <cstdio>
#include <thread>

namespace hb {

using holix::KeyScalar;

namespace {

template <typename T>
void SortOracle(const std::vector<T>& base, std::vector<T>& vals,
                std::vector<uint32_t>& rids) {
  std::vector<std::pair<T, uint32_t>> pairs(base.size());
  for (size_t i = 0; i < base.size(); ++i) {
    pairs[i] = {base[i], static_cast<uint32_t>(i)};
  }
  std::sort(pairs.begin(), pairs.end());
  vals.resize(pairs.size());
  rids.resize(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    vals[i] = pairs[i].first;
    rids[i] = pairs[i].second;
  }
}

/// Runs fn(i) for i in [0, n) on up to four threads.
template <typename Fn>
void ParallelFor(size_t n, Fn fn) {
  const size_t workers = std::min<size_t>(4, std::max<size_t>(1, n));
  std::vector<std::thread> threads;
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      for (size_t i = w; i < n; i += workers) fn(i);
    });
  }
  for (std::thread& th : threads) th.join();
}

/// [first, last) positions of the sorted copy inside [low, high).
std::pair<size_t, size_t> SortedRange(const BenchColumn& c, const Pred& p) {
  if (c.is_double) {
    const auto& v = c.sorted_dbls;
    return {std::lower_bound(v.begin(), v.end(), p.low.d) - v.begin(),
            std::lower_bound(v.begin(), v.end(), p.high.d) - v.begin()};
  }
  const auto& v = c.sorted_ints;
  return {std::lower_bound(v.begin(), v.end(), p.low.i) - v.begin(),
          std::lower_bound(v.begin(), v.end(), p.high.i) - v.begin()};
}

bool Qualifies(const BenchColumn& c, uint32_t rid, const Pred& p) {
  if (c.is_double) return c.dbls[rid] >= p.low.d && c.dbls[rid] < p.high.d;
  return c.ints[rid] >= p.low.i && c.ints[rid] < p.high.i;
}

}  // namespace

BenchTable MakeTable(uint64_t seed, size_t rows, int ints, int dbls) {
  BenchTable t;
  t.rows = rows;
  t.cols.resize(ints + dbls);
  ParallelFor(t.cols.size(), [&](size_t c) {
    BenchColumn& col = t.cols[c];
    col.is_double = static_cast<int>(c) >= ints;
    char name[32];
    std::snprintf(name, sizeof(name), "%c%zu", col.is_double ? 'd' : 'a',
                  col.is_double ? c - ints : c);
    col.name = name;
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x1000 + c);
    if (col.is_double) {
      col.dbls.resize(rows);
      for (double& v : col.dbls) v = static_cast<double>(rng.Below(1u << 24)) / 64.0;
      SortOracle(col.dbls, col.sorted_dbls, col.sorted_rids);
    } else {
      col.ints.resize(rows);
      for (int64_t& v : col.ints) v = static_cast<int64_t>(rng.Below(kIntDomain));
      SortOracle(col.ints, col.sorted_ints, col.sorted_rids);
    }
  });
  return t;
}

void LoadTable(holix::Database& db, const BenchTable& t) {
  for (const BenchColumn& c : t.cols) {
    if (c.is_double) {
      db.LoadColumn<double>("t", c.name, c.dbls);
    } else {
      db.LoadColumn<int64_t>("t", c.name, c.ints);
    }
  }
}

std::vector<holix::ColumnHandle> ResolveAll(holix::Database& db,
                                            const BenchTable& t) {
  std::vector<holix::ColumnHandle> out;
  for (const BenchColumn& c : t.cols) out.push_back(db.Resolve("t", c.name));
  return out;
}

Pred MakeRange(const BenchTable& t, int col, double sel, double center) {
  const BenchColumn& c = t.cols[col];
  const double width = sel * c.domain();
  Pred p;
  p.col = col;
  if (c.is_double) {
    const double lo = std::clamp(center - width / 2, 0.0, c.domain() - width);
    p.low = KeyScalar::F64(lo);
    p.high = KeyScalar::F64(lo + width);
  } else {
    const auto w = std::max<int64_t>(1, static_cast<int64_t>(width));
    const auto lo = std::clamp<int64_t>(static_cast<int64_t>(center) - w / 2, 0,
                                        kIntDomain - w);
    p.low = KeyScalar::I64(lo);
    p.high = KeyScalar::I64(lo + w);
  }
  return p;
}

Answer Evaluate(const BenchTable& t, const Query& q) {
  // Drive from the narrowest predicate; check the others on base values.
  size_t drive = 0;
  std::pair<size_t, size_t> range{0, 0};
  for (size_t i = 0; i < q.preds.size(); ++i) {
    const auto r = SortedRange(t.cols[q.preds[i].col], q.preds[i]);
    if (i == 0 || r.second - r.first < range.second - range.first) {
      drive = i;
      range = r;
    }
  }
  const BenchColumn& dc = t.cols[q.preds[drive].col];
  const BenchColumn* sc = q.sum_col >= 0 ? &t.cols[q.sum_col] : nullptr;
  Answer a;
  int64_t isum = 0;
  double dsum = 0;
  for (size_t pos = range.first; pos < range.second; ++pos) {
    const uint32_t rid = dc.sorted_rids[pos];
    bool ok = true;
    for (size_t i = 0; i < q.preds.size() && ok; ++i) {
      if (i != drive) ok = Qualifies(t.cols[q.preds[i].col], rid, q.preds[i]);
    }
    if (!ok) continue;
    ++a.count;
    if (sc != nullptr) {
      if (sc->is_double) {
        dsum += sc->dbls[rid];
      } else {
        isum += sc->ints[rid];
      }
    }
  }
  a.sum = sc != nullptr && sc->is_double ? KeyScalar::F64(dsum)
                                         : KeyScalar::I64(isum);
  return a;
}

void EvaluateAll(const BenchTable& t, std::vector<Query>& qs) {
  ParallelFor(qs.size(), [&](size_t i) { qs[i].expect = Evaluate(t, qs[i]); });
}

holix::QuerySpec ToSpec(const Query& q,
                        const std::vector<holix::ColumnHandle>& handles) {
  holix::QuerySpec spec;
  for (const Pred& p : q.preds) spec.Where(handles[p.col], p.low, p.high);
  if (q.count) spec.Count();
  if (q.sum_col >= 0) spec.Sum(handles[q.sum_col]);
  return spec;
}

std::vector<holix::net::QueryPredicateWire> ToWirePreds(const BenchTable& t,
                                                        const Query& q) {
  std::vector<holix::net::QueryPredicateWire> out;
  for (const Pred& p : q.preds) {
    out.push_back({t.cols[p.col].name, p.low, p.high});
  }
  return out;
}

std::vector<holix::net::QueryResultSpecWire> ToWireResults(
    const BenchTable& t, const Query& q) {
  std::vector<holix::net::QueryResultSpecWire> out;
  if (q.count) out.push_back({0, ""});
  if (q.sum_col >= 0) out.push_back({1, t.cols[q.sum_col].name});
  return out;
}

double ExecuteChecked(holix::Database& db, const holix::QuerySpec& spec,
                      const Query& q, SpanLog& log, uint64_t request,
                      Report& report) {
  ++report.attempted;
  bool ok = false;
  const double t0 = Now();
  try {
    ScopedSpan s(log, "Database::Execute", request);
    ok = Matches(q, db.Execute(spec).values);
  } catch (const std::exception&) {
    ok = false;
  }
  const double latency = Now() - t0;
  if (!ok) ++report.failed;
  return latency;
}

bool Matches(const Query& q, const std::vector<KeyScalar>& values) {
  const size_t want = (q.count ? 1 : 0) + (q.sum_col >= 0 ? 1 : 0);
  if (values.size() != want) return false;
  size_t i = 0;
  if (q.count) {
    if (values[i].is_f64() || values[i].i != q.expect.count) return false;
    ++i;
  }
  if (q.sum_col >= 0) {
    const KeyScalar& s = values[i];
    if (s.is_f64() != q.expect.sum.is_f64()) return false;
    return s.is_f64() ? s.d == q.expect.sum.d : s.i == q.expect.sum.i;
  }
  return true;
}

}  // namespace hb
