/// \file query_executor.h
/// \brief Per-mode query execution strategies over resolved column handles.
///
/// Each ExecMode is one strategy object with one read entry point,
/// Execute(QuerySpec), plus the update entry points, all over ColumnHandles
/// — the facade resolves names once and the executors never hash a string
/// or take a global mutex on the query hot path. Internally each strategy
/// implements the four §3.1 operator shapes (count, sum, rowids, projected
/// sum over one range predicate) that Execute dispatches onto. Executors
/// are type-generic: they dispatch on the handle's element type and run
/// the typed cracker / sorted-index / scan machinery (int32_t, int64_t and
/// double).
///
/// Bounds and values cross this interface as KeyScalar (a tagged
/// int64-or-double), the same shape the wire protocol carries: the typed
/// path clamps each scalar into the column's domain with exact semantics —
/// an int64 bound against a double column goes through the "smallest
/// double >= v" conversion, a double bound against an integer column
/// through exact ceil/floor arithmetic. Every layer below takes the one
/// range form [lo, hi) with an optional hi: an exclusive high that no key
/// of the type reaches — above max(T), or the double NaN key — becomes the
/// open top, and the range runs through the type's total-order maximum
/// (which is what keeps rows holding max(T) — or the NaN key — selectable).

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "engine/column_registry.h"
#include "engine/engine_options.h"
#include "engine/query_spec.h"
#include "storage/position_list.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace holix {

/// Shared engine state the executors operate on. Plain pointers; the
/// Database facade owns everything and outlives its executor.
struct EngineContext {
  const DatabaseOptions* options = nullptr;
  ColumnRegistry* registry = nullptr;
  ThreadPool* query_pool = nullptr;
  HolisticEngine* holistic = nullptr;       ///< Null unless kHolistic.
  SlotCpuMonitor* slot_monitor = nullptr;   ///< Null unless slot-monitored.
  std::atomic<uint64_t>* next_rowid = nullptr;
};

/// Per-call execution context. Sessions pass their private RNG so
/// stochastic pivots are deterministic per client; a null rng falls back to
/// a thread-local generator.
struct QueryContext {
  Rng* rng = nullptr;
};

/// One execution strategy (one ExecMode). Thread-safe: many clients may
/// call into the same executor concurrently.
class QueryExecutor {
 public:
  virtual ~QueryExecutor() = default;

  /// Executes a declarative QuerySpec (see query_spec.h for semantics).
  ///
  /// One predicate + one result dispatches straight onto the mode-native
  /// operator (count, sum, rowids or projected sum). A conjunction is
  /// *planned*: predicates are ordered by estimated selectivity — cracker
  /// piece boundaries when an adaptive index exists, sorted-index counts
  /// when one is built, [min, max] rank interpolation otherwise — the
  /// most selective predicate drives the mode's select, and each
  /// remaining conjunct, cheapest first, is applied by value probes of
  /// the base column. In cracking modes a probed predicate's index is
  /// first cracked at the query bounds, so repetition keeps getting faster
  /// on every predicate column; the probe drops rows deleted from that
  /// column (the base array keeps their values) through the column's
  /// deleted-base registry.
  ///
  /// Throws std::invalid_argument for an empty conjunction, an empty
  /// result list, a sum request without a column, or columns spanning
  /// several tables.
  virtual QueryResult Execute(const QuerySpec& spec,
                              const QueryContext& qctx) = 0;

  /// Pending-queue insert; cracking modes only (throws otherwise). A
  /// double-carrier value against an integer column must be integral and
  /// in-domain, or std::out_of_range is thrown.
  virtual RowId Insert(const ColumnHandle& column, KeyScalar value,
                       const QueryContext& qctx);

  /// Pending-queue delete of one matching row, read by its unit-range
  /// select under the latch it cracked in; cracking modes only. When
  /// \p deleted_rid is non-null and a row was deleted, receives its rowid
  /// (the durability layer logs the resolved row so replay deletes exactly
  /// the row the original call removed).
  virtual bool Delete(const ColumnHandle& column, KeyScalar value,
                      const QueryContext& qctx,
                      RowId* deleted_rid = nullptr);

  /// Mode-specific up-front work (offline indexing sorts every column).
  virtual void Prepare() {}

  /// Registers a speculative index into C_potential (kHolistic only).
  virtual void SeedPotential(const ColumnHandle& column);
};

/// Builds the strategy object for \p mode.
std::unique_ptr<QueryExecutor> MakeQueryExecutor(ExecMode mode,
                                                 const EngineContext& ctx);

}  // namespace holix
