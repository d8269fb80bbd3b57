#include "engine/query_executor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <thread>
#include <type_traits>

#include "baselines/full_scan.h"
#include "cracking/pre_crack.h"
#include "engine/scalar_convert.h"
#include "obs/metrics.h"
#include "util/timer.h"

namespace holix {

namespace {

/// Stochastic cracking pivots must come from a thread-safe source; query
/// threads without a session RNG each get their own generator.
Rng& ThreadLocalQueryRng(uint64_t seed) {
  thread_local Rng rng(seed ^
                       std::hash<std::thread::id>{}(std::this_thread::get_id()));
  return rng;
}

/// The smallest double whose real value is >= the int64 \p v, computed
/// exactly and portably: static_cast rounds to nearest, so a result below
/// v (possible beyond 2^53) is bumped one ulp up. The "is d < v" check is
/// pure integer arithmetic — d is integral and in int64 range whenever it
/// isn't 2^63, so casting it back is exact (no long double needed).
double DoubleAtLeast(int64_t v) {
  double d = static_cast<double>(v);
  if (d >= 9223372036854775808.0) return d;  // 2^63: above every int64
  if (static_cast<int64_t>(d) < v) {
    d = std::nextafter(d, std::numeric_limits<double>::infinity());
  }
  return d;
}

/// Query bounds arrive as KeyScalars at the facade; the typed path clamps
/// them into the column type's domain as one half-open range [lo, hi). An
/// exclusive high that no key of the type reaches — an int64 high beyond
/// max(T), or the double NaN key, which is the double order's maximum —
/// becomes the open top (hi absent): the range runs through the order's
/// top, so a row holding exactly max(T) (or the NaN key) stays selectable.
template <typename T>
struct Bounds {
  T lo{};
  std::optional<T> hi;  ///< Exclusive; nullopt = through the top.
  bool empty = false;
};

/// Smallest key of integer type T that is >= the scalar bound \p b
/// (exact for both carriers); nullopt when the bound sits above all of T.
template <typename T>
std::optional<T> IntFirstAtLeast(KeyScalar b) {
  constexpr T tmin = std::numeric_limits<T>::min();
  constexpr T tmax = std::numeric_limits<T>::max();
  if (!b.is_f64()) {
    if (b.i > static_cast<int64_t>(tmax)) return std::nullopt;
    if (b.i < static_cast<int64_t>(tmin)) return tmin;
    return static_cast<T>(b.i);
  }
  const double d = b.d;
  if (std::isnan(d)) return std::nullopt;  // the order's top: above all of T
  if (d <= static_cast<double>(tmin)) return tmin;
  const double cl = std::ceil(d);
  // 2^(width-1): the first double beyond T's positive range ((double)tmax
  // would round UP to this for int64 and mis-compare).
  if (cl >= std::ldexp(1.0, sizeof(T) * 8 - 1)) return std::nullopt;
  return static_cast<T>(cl);
}

/// One scalar bound as an exact double key: int64 carriers go through
/// DoubleAtLeast — correct for BOTH ends of a half-open range, since no
/// double lies strictly between an int64's real value and its
/// DoubleAtLeast image — f64 carriers are canonicalized.
double DoubleBound(KeyScalar s) {
  return s.is_f64() ? KeyTraits<double>::Canonical(s.d) : DoubleAtLeast(s.i);
}

/// Clamps a KeyScalar bound pair into column type T's domain. Each bound
/// converts independently with exact semantics (mixed carriers included);
/// an exclusive high that cannot be expressed inside T opens the top.
template <typename T>
Bounds<T> ClampBounds(KeyScalar lo, KeyScalar hi) {
  if constexpr (std::is_same_v<T, double>) {
    using KT = KeyTraits<double>;
    const double lo_d = DoubleBound(lo);
    const double hi_d = DoubleBound(hi);
    // An exclusive high at the order's top opens the range, mirroring the
    // integer clamp beyond max(T): [NaN, NaN) therefore selects exactly the
    // rows holding the NaN key.
    if (KT::IsHighest(hi_d)) return {lo_d, std::nullopt, false};
    if (!KT::Less(lo_d, hi_d)) return {0.0, 0.0, true};
    return {lo_d, hi_d, false};
  } else {
    // The first key >= the bound serves both ends: for the exclusive high,
    // "no such key" means every key of T lies below it — the open top.
    const std::optional<T> lo_t = IntFirstAtLeast<T>(lo);
    const std::optional<T> hi_t = IntFirstAtLeast<T>(hi);
    if (!lo_t || (hi_t && !(*lo_t < *hi_t))) return {T{}, std::nullopt, true};
    return {*lo_t, hi_t, false};
  }
}

/// Wraps a typed sum into the scalar carrier matching the column type.
template <typename T>
KeyScalar WrapSum(typename KeyTraits<T>::Sum s) {
  if constexpr (std::is_same_v<typename KeyTraits<T>::Sum, double>) {
    return KeyScalar::F64(s);
  } else {
    return KeyScalar::I64(s);
  }
}

/// Positional reads walk an ascending rowid list whose neighbours sit
/// kilobytes apart in the base column, too far for the hardware prefetcher:
/// while reading rows[i], prefetch the base value of the candidate this many
/// positions ahead.
constexpr size_t kPrefetchAhead = 16;

/// Prefetches the base value of rows[i + kPrefetchAhead] when that rowid
/// lies inside the \p n-row base column (appended rowids live elsewhere).
template <typename T>
void PrefetchBaseValue(const T* data, size_t n, const PositionList& rows,
                       size_t i) {
  if (i + kPrefetchAhead < rows.size()) {
    const RowId ahead = rows[i + kPrefetchAhead];
    if (ahead < n) __builtin_prefetch(data + ahead);
  }
}

// ---------------------------------------------------------------------------
// Shared plumbing
// ---------------------------------------------------------------------------

class ExecutorBase : public QueryExecutor {
 public:
  explicit ExecutorBase(const EngineContext& ctx) : ctx_(ctx) {}

  /// The declarative entry point: validate, then either dispatch the
  /// one-predicate/one-result shape onto the mode-native operator,
  /// or plan and execute the conjunction (see query_executor.h).
  QueryResult Execute(const QuerySpec& spec, const QueryContext& qctx) override {
    if (spec.predicates.empty()) {
      throw std::invalid_argument("QuerySpec: empty conjunction");
    }
    if (spec.results.empty()) {
      throw std::invalid_argument("QuerySpec: no result requested");
    }
    const ColumnEntry& first = Entry(spec.predicates[0].column);
    for (const RangePredicate& p : spec.predicates) {
      CheckSameTable(first, Entry(p.column));
    }
    for (const ResultSpec& r : spec.results) {
      if (r.kind == ResultRequest::kSum ||
          r.kind == ResultRequest::kProjectSum) {
        if (r.column.entry() == nullptr) {
          throw std::invalid_argument("QuerySpec: sum request needs a column");
        }
        CheckSameTable(first, Entry(r.column));
      }
    }
    // Validated: everything below counts as one query in the telemetry
    // plane — per-mode counter + latency histogram, plus a trace the
    // layers below annotate (pieces created, bytes scanned, planner
    // choices) through the thread-local scope.
    obs::QueryTrace trace;
    trace.mode = static_cast<uint8_t>(ctx_.options->mode);
    trace.predicates = static_cast<uint16_t>(spec.predicates.size());
    trace.results = static_cast<uint16_t>(spec.results.size());
    obs::TraceScope scope(&trace);
    Timer timer;
    QueryResult out = ExecuteValidated(spec, qctx);
    trace.latency_seconds = timer.ElapsedSeconds();
    obs::RecordQueryDone(trace, ExecModeName(ctx_.options->mode));
    return out;
  }

  QueryResult ExecuteValidated(const QuerySpec& spec,
                               const QueryContext& qctx) {
    if (spec.predicates.size() == 1 && spec.results.size() == 1) {
      return ExecuteSingle(spec, qctx);
    }
    PositionList rows;
    if (spec.predicates.size() == 1) {
      const RangePredicate& p = spec.predicates[0];
      Timer lap;
      rows = SelectRowIds(p.column, p.low, p.high, qctx);
      obs::ObserveStage(obs::QueryStage::kDrive, lap.LapSeconds());
      SortRowIds(rows);
      obs::ObserveStage(obs::QueryStage::kSort, lap.LapSeconds());
    } else {
      rows = SelectConjunction(spec, qctx);  // already ascending
    }
    // Rows appended by Insert participate like any other row: their values
    // live in the per-column pending registry rather than the base arrays,
    // and every positional path below (probe filters, materialized sums)
    // consults that registry for rowids at or past the base row count. A
    // conjunction still excludes a single-column-inserted row naturally —
    // the row has no value in the other predicate columns, so no index or
    // registry on those columns can produce its rowid.
    Timer materialize;
    QueryResult out = MaterializeResults(spec, std::move(rows));
    obs::ObserveStage(obs::QueryStage::kMaterialize,
                      materialize.ElapsedSeconds());
    return out;
  }

 protected:
  // --- The mode-native operators over one range predicate -------------

  /// select count(*) where low <= column < high (in the column type's
  /// total order, after clamping the scalar bounds into its domain).
  virtual size_t CountRange(const ColumnHandle& column, KeyScalar low,
                            KeyScalar high, const QueryContext& qctx) = 0;

  /// select sum(column) where low <= column < high. The result carrier
  /// follows the column type: int64 for integer columns, double for double
  /// columns (a sum over rows holding the NaN key is NaN).
  virtual KeyScalar SumRange(const ColumnHandle& column, KeyScalar low,
                             KeyScalar high, const QueryContext& qctx) = 0;

  /// Materializes qualifying rowids, in the mode's native order.
  virtual PositionList SelectRowIds(const ColumnHandle& column, KeyScalar low,
                                    KeyScalar high,
                                    const QueryContext& qctx) = 0;

  /// select sum(project) where low <= where < high (late reconstruction).
  /// Both handles must belong to the same table; the result carrier
  /// follows the PROJECT column's type. The default materializes rowids
  /// via the mode's select, then projects positionally through the base
  /// column.
  virtual KeyScalar ProjectSum(const ColumnHandle& where_column,
                               const ColumnHandle& project_column,
                               KeyScalar low, KeyScalar high,
                               const QueryContext& qctx) {
    ColumnEntry& pe = Entry(project_column);
    CheckSameTable(Entry(where_column), pe);
    const PositionList rows = SelectRowIds(where_column, low, high, qctx);
    return DispatchIndexableType(pe.type(), [&](auto tag) -> KeyScalar {
      using P = typename decltype(tag)::type;
      return PositionalSum<P>(pe, [&](auto&& add) {
        for (RowId rid : rows) add(rid);
      });
    });
  }

  /// Sums column \p pe positionally over the rowids \p rows feeds to its
  /// callback: through the base column, or through the appended registry
  /// for rowids past it. A rowid appended on another column only has no
  /// value here and adds nothing.
  template <typename P, typename RowSource>
  static KeyScalar PositionalSum(ColumnEntry& pe, RowSource&& rows) {
    const Column<P>& proj = *pe.runtime<P>().base;
    const size_t n = proj.size();
    typename KeyTraits<P>::Sum sum = 0;
    rows([&](RowId rid) {
      P v{};
      if (rid < n) {
        v = proj[rid];
      } else if (!AppendedValueFor<P>(pe, rid, &v)) {
        return;
      }
      sum += static_cast<typename KeyTraits<P>::Sum>(v);
    });
    return WrapSum<P>(sum);
  }

  /// Validates the handle and returns its entry: null handles are caller
  /// bugs, dropped entries mean the table is gone (base data freed).
  ColumnEntry& Entry(const ColumnHandle& h) const {
    ColumnEntry* e = h.entry();
    if (e == nullptr) {
      throw std::invalid_argument("query through a null column handle");
    }
    if (e->dropped.load(std::memory_order_acquire)) {
      throw std::logic_error("column was dropped: " + e->key());
    }
    return *e;
  }

  /// Number of rows in the entry's loaded base column.
  static size_t BaseRows(ColumnEntry& e) {
    return DispatchIndexableType(e.type(), [&](auto tag) -> size_t {
      using T = typename decltype(tag)::type;
      return e.runtime<T>().base->size();
    });
  }

  /// Value of row \p rid in \p e when the rowid lies beyond the loaded base
  /// column: appended rows (single-column Insert) keep their values in the
  /// column's pending registry, which survives Ripple merges. False when
  /// the row was never inserted into this attribute.
  template <typename T>
  static bool AppendedValueFor(ColumnEntry& e, RowId rid, T* out) {
    auto c = e.runtime<T>().cracker.load(std::memory_order_acquire);
    return c != nullptr && c->pending().AppendedValue(rid, out);
  }

  static void CheckSameTable(const ColumnEntry& a, const ColumnEntry& b) {
    if (a.table() != b.table()) {
      throw std::invalid_argument("query spans tables: " + a.key() + " vs " +
                                  b.key());
    }
  }

  template <typename T>
  std::shared_ptr<SortedIndex<T>> EnsureSorted(ColumnEntry& e) {
    auto& rt = e.runtime<T>();
    if (auto s = rt.sorted.load(std::memory_order_acquire)) return s;
    std::lock_guard<std::mutex> lk(e.build_mu);
    if (auto s = rt.sorted.load(std::memory_order_acquire)) return s;
    auto fresh = std::make_shared<SortedIndex<T>>(e.key(), rt.base->values(),
                                                  *ctx_.query_pool);
    rt.sorted.store(fresh, std::memory_order_release);
    return fresh;
  }

  template <typename T>
  typename KeyTraits<T>::Sum SortedSum(const SortedIndex<T>& sorted,
                                       const Bounds<T>& b) const {
    const PositionRange r = sorted.SelectRange(b.lo, b.hi);
    typename KeyTraits<T>::Sum sum = 0;
    for (size_t i = r.begin; i < r.end; ++i) {
      sum += static_cast<typename KeyTraits<T>::Sum>(sorted.ValueAt(i));
    }
    return sum;
  }

  template <typename T>
  size_t ScanCount(ColumnEntry& e, const Bounds<T>& b) const {
    const Column<T>& base = *e.runtime<T>().base;
    return ParallelScanCount(base.data(), base.size(), b.lo, b.hi,
                             *ctx_.query_pool, ctx_.options->user_threads);
  }

  template <typename T>
  typename KeyTraits<T>::Sum ScanSum(ColumnEntry& e,
                                     const Bounds<T>& b) const {
    const Column<T>& base = *e.runtime<T>().base;
    const T* data = base.data();
    typename KeyTraits<T>::Sum sum = 0;
    for (size_t i = 0; i < base.size(); ++i) {
      if (InRange(data[i], b.lo, b.hi)) {
        sum += static_cast<typename KeyTraits<T>::Sum>(data[i]);
      }
    }
    return sum;
  }

  template <typename T>
  PositionList ScanSelect(ColumnEntry& e, const Bounds<T>& b) const {
    const Column<T>& base = *e.runtime<T>().base;
    return ParallelScanSelect(base.data(), base.size(), b.lo, b.hi,
                              *ctx_.query_pool, ctx_.options->user_threads);
  }

  // --- Multi-predicate planning ------------------------------------------

  /// Picks the most selective conjunct by estimate, drives the mode's
  /// select with it, then probes the remaining conjuncts cheapest-first.
  /// Each probe first refines its attribute's index at the query bounds
  /// (RefineHint), so every predicate column keeps converging in the
  /// adaptive modes, then filters the candidates by their base values.
  PositionList SelectConjunction(const QuerySpec& spec,
                                 const QueryContext& qctx) {
    Timer lap;
    struct Ranked {
      const RangePredicate* pred;
      size_t est;
    };
    std::vector<Ranked> order;
    order.reserve(spec.predicates.size());
    for (const RangePredicate& p : spec.predicates) {
      order.push_back({&p, EstimatePredicate(Entry(p.column), p.low, p.high)});
    }
    std::stable_sort(order.begin(), order.end(),
                     [](const Ranked& a, const Ranked& b) {
                       return a.est < b.est;
                     });
    obs::ObserveStage(obs::QueryStage::kPlan, lap.LapSeconds());
    PositionList cand = SelectRowIds(order[0].pred->column, order[0].pred->low,
                                     order[0].pred->high, qctx);
    obs::ObserveStage(obs::QueryStage::kDrive, lap.LapSeconds());
    SortRowIds(cand);
    obs::ObserveStage(obs::QueryStage::kSort, lap.LapSeconds());
    static obs::Counter& probes = obs::MetricsRegistry::Global().GetCounter(
        "holix_planner_probe_total");
    obs::QueryTrace* trace = obs::CurrentQueryTrace();
    for (size_t i = 1; i < order.size() && !cand.empty(); ++i) {
      const RangePredicate& p = *order[i].pred;
      ColumnEntry& e = Entry(p.column);
      probes.Inc();
      if (trace != nullptr) ++trace->probe_filters;
      RefineHint(e, p.low, p.high, qctx);
      FilterByBaseProbe(e, p.low, p.high, &cand);
      obs::ObserveStage(obs::QueryStage::kProbe, lap.LapSeconds());
    }
    return cand;
  }

  /// Cardinality estimate of one conjunct: cracker piece boundaries when
  /// an adaptive index exists, sorted-index binary search when one is
  /// built, column [min, max] rank interpolation otherwise.
  size_t EstimatePredicate(ColumnEntry& e, KeyScalar lo, KeyScalar hi) {
    return DispatchIndexableType(e.type(), [&](auto tag) -> size_t {
      using T = typename decltype(tag)::type;
      const Bounds<T> b = ClampBounds<T>(lo, hi);
      if (b.empty) return 0;
      auto& rt = e.runtime<T>();
      if (auto c = rt.cracker.load(std::memory_order_acquire)) {
        return c->EstimateRange(b.lo, b.hi);
      }
      if (auto s = rt.sorted.load(std::memory_order_acquire)) {
        return s->SelectRange(b.lo, b.hi).size();
      }
      const size_t n = rt.base->size();
      if (n == 0) return 0;
      EnsureDomain<T>(e);
      // Uniform interpolation over the order-preserving rank space; the
      // double arithmetic loses ulps, which is irrelevant for ordering
      // conjuncts by selectivity.
      using KT = KeyTraits<T>;
      const double rank_min = static_cast<double>(KT::ToRank(rt.domain_min));
      const double rank_max = static_cast<double>(KT::ToRank(rt.domain_max));
      const double span = rank_max - rank_min + 1.0;
      const double lo_r =
          std::max(static_cast<double>(KT::ToRank(b.lo)), rank_min);
      const double top = rank_max + 1.0;
      const double hi_r =
          b.hi ? std::min(static_cast<double>(KT::ToRank(*b.hi)), top) : top;
      if (hi_r <= lo_r) return 0;
      const double est = static_cast<double>(n) * (hi_r - lo_r) / span;
      return est >= static_cast<double>(n) ? n : static_cast<size_t>(est);
    });
  }

  /// Caches the base column's [min, max] on first use (selectivity
  /// interpolation for not-yet-indexed attributes).
  template <typename T>
  void EnsureDomain(ColumnEntry& e) {
    auto& rt = e.runtime<T>();
    if (rt.domain_ready.load(std::memory_order_acquire)) return;
    std::lock_guard<std::mutex> lk(e.build_mu);
    if (rt.domain_ready.load(std::memory_order_relaxed)) return;
    const std::vector<T>& v = rt.base->values();
    T mn{}, mx{};
    if (!v.empty()) {
      auto [mn_it, mx_it] = std::minmax_element(
          v.begin(), v.end(),
          [](T a, T b) { return KeyTraits<T>::Less(a, b); });
      mn = KeyTraits<T>::Canonical(*mn_it);
      mx = KeyTraits<T>::Canonical(*mx_it);
    }
    rt.domain_min = mn;
    rt.domain_max = mx;
    rt.domain_ready.store(true, std::memory_order_release);
  }

  /// Drops every candidate whose value in this attribute misses [lo, hi),
  /// or that this attribute no longer holds. Rowids beyond the base column
  /// (rows appended by Insert) resolve through the pending registry: a row
  /// inserted into this attribute qualifies on its inserted value, and a
  /// row never inserted here, or inserted and deleted again, has no value
  /// and is dropped. A deleted base row keeps its value in the base array,
  /// which never shrinks, so the column's deleted-base registry removes it.
  void FilterByBaseProbe(ColumnEntry& e, KeyScalar lo, KeyScalar hi,
                         PositionList* cand) {
    DispatchIndexableType(e.type(), [&](auto tag) {
      using T = typename decltype(tag)::type;
      const Bounds<T> b = ClampBounds<T>(lo, hi);
      if (b.empty) {
        cand->clear();
        return;
      }
      const Column<T>& base = *e.runtime<T>().base;
      const T* data = base.data();
      const size_t n = base.size();
      const PositionList& rows = *cand;
      size_t keep = 0;
      for (size_t i = 0; i < rows.size(); ++i) {
        PrefetchBaseValue(data, n, rows, i);
        const RowId rid = rows[i];
        T v{};
        if (rid < n) {
          v = data[rid];
        } else if (!AppendedValueFor<T>(e, rid, &v)) {
          continue;
        }
        // keep <= i: compaction never overwrites the rowids still ahead.
        if (InRange(v, b.lo, b.hi)) (*cand)[keep++] = rid;
      }
      cand->resize(keep);
      auto c = e.runtime<T>().cracker.load(std::memory_order_acquire);
      if (c != nullptr) c->pending().EraseDeletedBase(cand);
    });
  }

  /// Index-refinement side effect for a conjunct answered by base probes:
  /// no-op for the scan/sorted strategies; the cracking strategies crack
  /// the attribute at the query bounds without materializing anything.
  virtual void RefineHint(ColumnEntry&, KeyScalar, KeyScalar,
                          const QueryContext&) {}

  /// The one-predicate/one-result shape, answered by the mode-native
  /// operator: no materialize + sort, and rowids keep the mode's order.
  QueryResult ExecuteSingle(const QuerySpec& spec, const QueryContext& qctx) {
    const RangePredicate& p = spec.predicates[0];
    const ResultSpec& r = spec.results[0];
    QueryResult out;
    switch (r.kind) {
      case ResultRequest::kCount:
        out.values.push_back(KeyScalar::I64(static_cast<int64_t>(
            CountRange(p.column, p.low, p.high, qctx))));
        break;
      case ResultRequest::kSum:
      case ResultRequest::kProjectSum:
        // Summing the predicate column itself is the mode's SumRange fast
        // path (cracked modes aggregate in place, pending inserts
        // included); any other column is §3.1 late reconstruction.
        out.values.push_back(
            r.column.entry() == p.column.entry()
                ? SumRange(p.column, p.low, p.high, qctx)
                : ProjectSum(p.column, r.column, p.low, p.high, qctx));
        break;
      case ResultRequest::kRowIds:
        out.rowids = SelectRowIds(p.column, p.low, p.high, qctx);
        out.values.push_back(
            KeyScalar::I64(static_cast<int64_t>(out.rowids.size())));
        break;
    }
    return out;
  }

  /// Computes every requested result from the (ascending) qualifying row
  /// set: one shared pass per aggregate, positionally through the base
  /// column, so sums are bit-identical across modes and predicate orders.
  /// Takes the row list by value: it is the terminal consumer, so a
  /// requested kRowIds result moves it into the answer instead of copying
  /// a possibly multi-million-entry list.
  QueryResult MaterializeResults(const QuerySpec& spec, PositionList rows) {
    QueryResult out;
    out.values.reserve(spec.results.size());
    bool want_rowids = false;
    for (const ResultSpec& r : spec.results) {
      switch (r.kind) {
        case ResultRequest::kCount:
          out.values.push_back(
              KeyScalar::I64(static_cast<int64_t>(rows.size())));
          break;
        case ResultRequest::kRowIds:
          want_rowids = true;
          out.values.push_back(
              KeyScalar::I64(static_cast<int64_t>(rows.size())));
          break;
        case ResultRequest::kSum:
        case ResultRequest::kProjectSum: {
          ColumnEntry& pe = Entry(r.column);
          out.values.push_back(
              DispatchIndexableType(pe.type(), [&](auto tag) -> KeyScalar {
                using P = typename decltype(tag)::type;
                const Column<P>& base = *pe.runtime<P>().base;
                return PositionalSum<P>(pe, [&](auto&& add) {
                  for (size_t i = 0; i < rows.size(); ++i) {
                    PrefetchBaseValue(base.data(), base.size(), rows, i);
                    add(rows[i]);
                  }
                });
              }));
          break;
        }
      }
    }
    if (want_rowids) out.rowids = std::move(rows);
    return out;
  }

  /// Sorts every registered attribute (offline indexing's investment).
  void SortAllColumns() {
    ctx_.registry->ForEach([this](ColumnEntry& e) {
      DispatchIndexableType(e.type(), [&](auto tag) {
        using T = typename decltype(tag)::type;
        EnsureSorted<T>(e);
      });
    });
  }

  EngineContext ctx_;
};

// ---------------------------------------------------------------------------
// kScan — parallel full scans (MonetDB's plain select)
// ---------------------------------------------------------------------------

class ScanExecutor : public ExecutorBase {
 public:
  using ExecutorBase::ExecutorBase;

 protected:
  size_t CountRange(const ColumnHandle& h, KeyScalar lo, KeyScalar hi,
                    const QueryContext&) override {
    ColumnEntry& e = Entry(h);
    return DispatchIndexableType(e.type(), [&](auto tag) -> size_t {
      using T = typename decltype(tag)::type;
      const Bounds<T> b = ClampBounds<T>(lo, hi);
      return b.empty ? 0 : ScanCount<T>(e, b);
    });
  }

  KeyScalar SumRange(const ColumnHandle& h, KeyScalar lo, KeyScalar hi,
                     const QueryContext&) override {
    ColumnEntry& e = Entry(h);
    return DispatchIndexableType(e.type(), [&](auto tag) -> KeyScalar {
      using T = typename decltype(tag)::type;
      const Bounds<T> b = ClampBounds<T>(lo, hi);
      return WrapSum<T>(b.empty ? 0 : ScanSum<T>(e, b));
    });
  }

  PositionList SelectRowIds(const ColumnHandle& h, KeyScalar lo, KeyScalar hi,
                            const QueryContext&) override {
    ColumnEntry& e = Entry(h);
    return DispatchIndexableType(e.type(), [&](auto tag) -> PositionList {
      using T = typename decltype(tag)::type;
      const Bounds<T> b = ClampBounds<T>(lo, hi);
      return b.empty ? PositionList{} : ScanSelect<T>(e, b);
    });
  }
};

// ---------------------------------------------------------------------------
// kOffline — all columns pre-sorted; cost charged to the first query
// ---------------------------------------------------------------------------

class OfflineExecutor : public ExecutorBase {
 public:
  using ExecutorBase::ExecutorBase;

  void Prepare() override {
    prepared_.store(true, std::memory_order_release);
    SortAllColumns();
  }

 protected:
  size_t CountRange(const ColumnHandle& h, KeyScalar lo, KeyScalar hi,
                    const QueryContext&) override {
    EnsurePrepared();
    ColumnEntry& e = Entry(h);
    return DispatchIndexableType(e.type(), [&](auto tag) -> size_t {
      using T = typename decltype(tag)::type;
      const Bounds<T> b = ClampBounds<T>(lo, hi);
      return b.empty ? 0 : EnsureSorted<T>(e)->SelectRange(b.lo, b.hi).size();
    });
  }

  KeyScalar SumRange(const ColumnHandle& h, KeyScalar lo, KeyScalar hi,
                     const QueryContext&) override {
    EnsurePrepared();
    ColumnEntry& e = Entry(h);
    return DispatchIndexableType(e.type(), [&](auto tag) -> KeyScalar {
      using T = typename decltype(tag)::type;
      const Bounds<T> b = ClampBounds<T>(lo, hi);
      return WrapSum<T>(b.empty ? 0 : SortedSum<T>(*EnsureSorted<T>(e), b));
    });
  }

  PositionList SelectRowIds(const ColumnHandle& h, KeyScalar lo, KeyScalar hi,
                            const QueryContext&) override {
    EnsurePrepared();
    ColumnEntry& e = Entry(h);
    return DispatchIndexableType(e.type(), [&](auto tag) -> PositionList {
      using T = typename decltype(tag)::type;
      const Bounds<T> b = ClampBounds<T>(lo, hi);
      if (b.empty) return {};
      auto sorted = EnsureSorted<T>(e);
      return sorted->FetchRowIds(sorted->SelectRange(b.lo, b.hi));
    });
  }

 private:
  void EnsurePrepared() {
    if (!prepared_.load(std::memory_order_acquire)) Prepare();
  }

  std::atomic<bool> prepared_{false};
};

// ---------------------------------------------------------------------------
// kOnline — scans during an observation window, then sort (COLT-style)
// ---------------------------------------------------------------------------

class OnlineExecutor : public ExecutorBase {
 public:
  using ExecutorBase::ExecutorBase;

 protected:
  size_t CountRange(const ColumnHandle& h, KeyScalar lo, KeyScalar hi,
                    const QueryContext&) override {
    ColumnEntry& e = Entry(h);
    const uint64_t query_no =
        queries_observed_.fetch_add(1, std::memory_order_relaxed);
    return DispatchIndexableType(e.type(), [&](auto tag) -> size_t {
      using T = typename decltype(tag)::type;
      const Bounds<T> b = ClampBounds<T>(lo, hi);
      if (b.empty) return 0;
      if (query_no < ctx_.options->online_observation_window) {
        return ScanCount<T>(e, b);
      }
      return EnsureSorted<T>(e)->SelectRange(b.lo, b.hi).size();
    });
  }

  KeyScalar SumRange(const ColumnHandle& h, KeyScalar lo, KeyScalar hi,
                     const QueryContext&) override {
    ColumnEntry& e = Entry(h);
    return DispatchIndexableType(e.type(), [&](auto tag) -> KeyScalar {
      using T = typename decltype(tag)::type;
      const Bounds<T> b = ClampBounds<T>(lo, hi);
      if (b.empty) return WrapSum<T>(0);
      // Reuse a sorted index if the observation window already closed;
      // never build one just for a sum.
      if (auto sorted =
              e.runtime<T>().sorted.load(std::memory_order_acquire)) {
        return WrapSum<T>(SortedSum<T>(*sorted, b));
      }
      return WrapSum<T>(ScanSum<T>(e, b));
    });
  }

  PositionList SelectRowIds(const ColumnHandle& h, KeyScalar lo, KeyScalar hi,
                            const QueryContext&) override {
    ColumnEntry& e = Entry(h);
    return DispatchIndexableType(e.type(), [&](auto tag) -> PositionList {
      using T = typename decltype(tag)::type;
      const Bounds<T> b = ClampBounds<T>(lo, hi);
      return b.empty ? PositionList{} : ScanSelect<T>(e, b);
    });
  }

 private:
  std::atomic<uint64_t> queries_observed_{0};
};

// ---------------------------------------------------------------------------
// kAdaptive — parallel vectorized database cracking (PVDC), and the base of
// the other cracking strategies
// ---------------------------------------------------------------------------

class CrackingExecutor : public ExecutorBase {
 public:
  using ExecutorBase::ExecutorBase;

  RowId Insert(const ColumnHandle& h, KeyScalar value,
               const QueryContext& qctx) override {
    ColumnEntry& e = Entry(h);
    return DispatchIndexableType(e.type(), [&](auto tag) -> RowId {
      using T = typename decltype(tag)::type;
      T v{};
      if (!KeyFromScalar<T>(value, &v)) {
        throw std::out_of_range("insert value out of column domain: " +
                                e.key());
      }
      auto cracker = EnsureCracker<T>(e, qctx);
      const RowId rid =
          ctx_.next_rowid->fetch_add(1, std::memory_order_relaxed);
      cracker->pending().AddInsert(v, rid);
      return rid;
    });
  }

  bool Delete(const ColumnHandle& h, KeyScalar value, const QueryContext& qctx,
              RowId* deleted_rid) override {
    ColumnEntry& e = Entry(h);
    return DispatchIndexableType(e.type(), [&](auto tag) -> bool {
      using T = typename decltype(tag)::type;
      T v{};
      if (!KeyFromScalar<T>(value, &v)) return false;
      auto cracker = EnsureCracker<T>(e, qctx);
      // Resolve the rowid of one matching row: select the unit range of v
      // (this is itself an index-refining access; at the order's top it is
      // the open top, which keeps the type's maximum key deletable) and
      // read one row of it while the select still holds the column latch.
      // The unit range is one piece, so the select visits one run holding
      // every duplicate of v, and only its first row is read.
      using KT = KeyTraits<T>;
      const std::optional<T> unit_end =
          KT::IsHighest(v) ? std::nullopt : std::optional<T>(KT::Next(v));
      RowId rid = 0;
      const PositionRange r =
          cracker->SelectRange(v, unit_end, QueryCrackConfig(qctx),
                               [&](const RowRun<T>& run) {
                                 rid = run.rowids[0];
                               });
      if (r.empty()) return false;
      cracker->pending().AddDelete(v, rid);
      if (deleted_rid != nullptr) *deleted_rid = rid;
      return true;
    });
  }

 protected:
  size_t CountRange(const ColumnHandle& h, KeyScalar lo, KeyScalar hi,
                    const QueryContext& qctx) override {
    ColumnEntry& e = Entry(h);
    return DispatchIndexableType(e.type(), [&](auto tag) -> size_t {
      using T = typename decltype(tag)::type;
      const Bounds<T> b = ClampBounds<T>(lo, hi);
      return b.empty ? 0 : Select<T>(e, b, qctx);
    });
  }

  KeyScalar SumRange(const ColumnHandle& h, KeyScalar lo, KeyScalar hi,
                     const QueryContext& qctx) override {
    ColumnEntry& e = Entry(h);
    return DispatchIndexableType(e.type(), [&](auto tag) -> KeyScalar {
      using T = typename decltype(tag)::type;
      const Bounds<T> b = ClampBounds<T>(lo, hi);
      typename KeyTraits<T>::Sum sum = 0;
      if (!b.empty) {
        Select<T>(e, b, qctx, [&](const RowRun<T>& run) {
          for (size_t i = 0; i < run.size; ++i) {
            sum += static_cast<typename KeyTraits<T>::Sum>(run.values[i]);
          }
        });
      }
      return WrapSum<T>(sum);
    });
  }

  PositionList SelectRowIds(const ColumnHandle& h, KeyScalar lo, KeyScalar hi,
                            const QueryContext& qctx) override {
    ColumnEntry& e = Entry(h);
    return DispatchIndexableType(e.type(), [&](auto tag) -> PositionList {
      using T = typename decltype(tag)::type;
      const Bounds<T> b = ClampBounds<T>(lo, hi);
      PositionList out;
      if (!b.empty) {
        Select<T>(e, b, qctx, [&](const RowRun<T>& run) {
          out.reserve(run.selected);
          out.insert(out.end(), run.rowids, run.rowids + run.size);
        });
      }
      return out;
    });
  }

  /// Cracked late reconstruction: the project operator reads rowids
  /// straight out of the cracker column under piece read latches, without
  /// materializing a position list.
  KeyScalar ProjectSum(const ColumnHandle& where_column,
                       const ColumnHandle& project_column, KeyScalar low,
                       KeyScalar high, const QueryContext& qctx) override {
    ColumnEntry& we = Entry(where_column);
    ColumnEntry& pe = Entry(project_column);
    CheckSameTable(we, pe);
    return DispatchIndexableType(we.type(), [&](auto wtag) -> KeyScalar {
      using W = typename decltype(wtag)::type;
      const Bounds<W> b = ClampBounds<W>(low, high);
      return DispatchIndexableType(pe.type(), [&](auto ptag) -> KeyScalar {
        using P = typename decltype(ptag)::type;
        if (b.empty) return WrapSum<P>(0);
        return PositionalSum<P>(pe, [&](auto&& add) {
          Select<W>(we, b, qctx, [&](const RowRun<W>& run) {
            for (size_t i = 0; i < run.size; ++i) add(run.rowids[i]);
          });
        });
      });
    });
  }

  /// A probed conjunct still refines its attribute's adaptive index: crack
  /// at the query bounds (Select without materialization), so repeated
  /// multi-predicate queries converge on every predicate column — and the
  /// holistic store keeps seeing the accesses (AfterSelect runs inside
  /// Select).
  void RefineHint(ColumnEntry& e, KeyScalar lo, KeyScalar hi,
                  const QueryContext& qctx) override {
    DispatchIndexableType(e.type(), [&](auto tag) {
      using T = typename decltype(tag)::type;
      const Bounds<T> b = ClampBounds<T>(lo, hi);
      if (!b.empty) Select<T>(e, b, qctx);
    });
  }

  /// The crack configuration of one select; overridden by kStochastic.
  virtual CrackConfig QueryCrackConfig(const QueryContext&) const {
    CrackConfig cfg;
    cfg.pool = ctx_.query_pool;
    cfg.parallel_threads = ctx_.options->user_threads;
    return cfg;
  }

  /// Runs after a fresh cracker column is published (under the entry's
  /// build_mu): kCCGI pre-partitions, kHolistic registers with the store.
  virtual void OnCrackerInstalled(ColumnEntry&, const QueryContext&) {}

  /// Runs after every cracked select (kHolistic syncs the stats store).
  virtual void AfterSelect(ColumnEntry&) {}

  template <typename T>
  std::shared_ptr<CrackerColumn<T>> EnsureCracker(ColumnEntry& e,
                                                  const QueryContext& qctx) {
    return e.EnsureCracker<T>([&] { OnCrackerInstalled(e, qctx); });
  }

  /// Selects \p b through the attribute's cracker column and returns the
  /// selected row count. A \p visit callable is fed every qualifying
  /// RowRun<T> while the select still holds the column latch its cracks
  /// ran under, so no concurrent Ripple merge (another client's update, a
  /// holistic worker) can shift the rows in between.
  template <typename T, typename Visit = std::nullptr_t>
  size_t Select(ColumnEntry& e, const Bounds<T>& b, const QueryContext& qctx,
                Visit&& visit = nullptr) {
    auto cracker = EnsureCracker<T>(e, qctx);
    const size_t n =
        cracker->SelectRange(b.lo, b.hi, QueryCrackConfig(qctx), visit).size();
    AfterSelect(e);
    return n;
  }
};

// ---------------------------------------------------------------------------
// kStochastic — PVDC plus data-driven random pre-cracks (PVSDC)
// ---------------------------------------------------------------------------

class StochasticExecutor : public CrackingExecutor {
 public:
  using CrackingExecutor::CrackingExecutor;

 protected:
  CrackConfig QueryCrackConfig(const QueryContext& qctx) const override {
    CrackConfig cfg = CrackingExecutor::QueryCrackConfig(qctx);
    cfg.stochastic = true;
    cfg.rng = qctx.rng != nullptr ? qctx.rng
                                  : &ThreadLocalQueryRng(ctx_.options->seed);
    return cfg;
  }
};

// ---------------------------------------------------------------------------
// kCCGI — modified parallel chunked coarse-granular index
// ---------------------------------------------------------------------------

class CcgiExecutor : public CrackingExecutor {
 public:
  using CrackingExecutor::CrackingExecutor;

 protected:
  void OnCrackerInstalled(ColumnEntry& e, const QueryContext& qctx) override {
    const size_t chunks = ctx_.options->ccgi_chunks != 0
                              ? ctx_.options->ccgi_chunks
                              : ctx_.options->user_threads;
    DispatchIndexableType(e.type(), [&](auto tag) {
      using T = typename decltype(tag)::type;
      auto cracker = e.runtime<T>().cracker.load(std::memory_order_acquire);
      PreCrackEquiWidth(*cracker, chunks, QueryCrackConfig(qctx));
    });
  }
};

// ---------------------------------------------------------------------------
// kHolistic — PVDC for user queries + always-on holistic refinement
// ---------------------------------------------------------------------------

class HolisticExecutor : public CrackingExecutor {
 public:
  using CrackingExecutor::CrackingExecutor;

  void SeedPotential(const ColumnHandle& h) override {
    ColumnEntry& e = Entry(h);
    if (e.store_state.load(std::memory_order_acquire) !=
        StoreState::kUnregistered) {
      return;  // already known to the store
    }
    DispatchIndexableType(e.type(), [&](auto tag) {
      using T = typename decltype(tag)::type;
      auto adapter =
          std::make_shared<CrackerAdaptiveIndex<T>>(e.EnsureCracker<T>());
      std::lock_guard<std::mutex> lk(e.build_mu);
      RegisterWithStore(e, std::move(adapter), ConfigKind::kPotential);
    });
  }

 protected:
  void OnCrackerInstalled(ColumnEntry& e, const QueryContext&) override {
    DispatchIndexableType(e.type(), [&](auto tag) {
      using T = typename decltype(tag)::type;
      auto cracker = e.runtime<T>().cracker.load(std::memory_order_acquire);
      auto adapter =
          std::make_shared<CrackerAdaptiveIndex<T>>(std::move(cracker));
      RegisterWithStore(e, std::move(adapter), ConfigKind::kActual);
    });
  }

  /// The per-query stats-store sync, restructured so the common case is
  /// lock-free: configuration transitions (promotion, retirement) happen a
  /// bounded number of times per index, and weight refreshes for the
  /// access-counting strategies are amortized over kWeightRefreshPeriod
  /// queries. The access counters themselves live in CrackStats and are
  /// bumped atomically inside the cracker column, so LFU eviction and the
  /// W2/W3 weight formulas keep exact counts.
  void AfterSelect(ColumnEntry& e) override {
    StatsStore& store = ctx_.holistic->store();
    switch (e.store_state.load(std::memory_order_acquire)) {
      case StoreState::kOptimal:
      case StoreState::kUnregistered:
        return;
      case StoreState::kPotential: {
        // First user query on a seeded index: promote into C_actual. A
        // concurrent budget eviction may remove the entry between these
        // calls; TryKindOf treats that as unregistered instead of throwing.
        store.RecordQueryAccess(e.key());
        const auto kind = store.TryKindOf(e.key());
        e.store_state.store(
            kind.has_value() ? StoreStateOf(*kind) : StoreState::kUnregistered,
            std::memory_order_release);
        return;
      }
      case StoreState::kActual:
        break;
    }
    const auto adapter = e.adapter.load(std::memory_order_acquire);
    if (adapter == nullptr) return;
    if (adapter->IsOptimal()) {
      if (store.UpdateAfterRefinement(e.key())) {  // retires into C_optimal
        static obs::Counter& retirements =
            obs::MetricsRegistry::Global().GetCounter(
                "holix_holistic_retirements_total");
        retirements.Inc();
      }
      e.store_state.store(StoreState::kOptimal, std::memory_order_release);
      return;
    }
    if (store.strategy() != Strategy::kW4 &&
        e.access_tick.fetch_add(1, std::memory_order_relaxed) %
                kWeightRefreshPeriod ==
            0) {
      store.RecordQueryAccess(e.key());
    }
  }

 private:
  static constexpr uint32_t kWeightRefreshPeriod = 64;

  void RegisterWithStore(ColumnEntry& e,
                         std::shared_ptr<AdaptiveIndex> adapter,
                         ConfigKind kind) {
    e.adapter.store(adapter, std::memory_order_release);
    std::vector<std::string> evicted;
    const bool ok =
        ctx_.holistic->store().Register(std::move(adapter), kind, &evicted);
    e.store_state.store(ok ? StoreStateOf(kind) : StoreState::kUnregistered,
                        std::memory_order_release);
    // Budget evictions drop the victims' cracker columns; the store
    // already forgot them, so their next access rebuilds and re-registers.
    for (const auto& name : evicted) {
      ColumnHandle victim = ctx_.registry->FindByKey(name);
      if (victim.entry() != nullptr) victim.entry()->ResetIndexRuntime();
    }
  }
};

}  // namespace

RowId QueryExecutor::Insert(const ColumnHandle&, KeyScalar,
                            const QueryContext&) {
  throw std::logic_error("updates require a cracking mode");
}

bool QueryExecutor::Delete(const ColumnHandle&, KeyScalar,
                           const QueryContext&, RowId*) {
  throw std::logic_error("updates require a cracking mode");
}

void QueryExecutor::SeedPotential(const ColumnHandle&) {
  throw std::logic_error("potential indices require kHolistic mode");
}

std::unique_ptr<QueryExecutor> MakeQueryExecutor(ExecMode mode,
                                                 const EngineContext& ctx) {
  switch (mode) {
    case ExecMode::kScan:
      return std::make_unique<ScanExecutor>(ctx);
    case ExecMode::kOffline:
      return std::make_unique<OfflineExecutor>(ctx);
    case ExecMode::kOnline:
      return std::make_unique<OnlineExecutor>(ctx);
    case ExecMode::kAdaptive:
      return std::make_unique<CrackingExecutor>(ctx);
    case ExecMode::kStochastic:
      return std::make_unique<StochasticExecutor>(ctx);
    case ExecMode::kCCGI:
      return std::make_unique<CcgiExecutor>(ctx);
    case ExecMode::kHolistic:
      return std::make_unique<HolisticExecutor>(ctx);
  }
  throw std::invalid_argument("unknown ExecMode");
}

}  // namespace holix
