/// \file database.h
/// \brief The engine facade: a main-memory column-store with pluggable
/// indexing modes, reproducing every system compared in §5.
///
/// Execution modes (each one a QueryExecutor strategy, query_executor.h):
///  * kScan       — parallel full scans (MonetDB's plain select).
///  * kOffline    — all columns pre-sorted; cost charged to the 1st query.
///  * kOnline     — scans during an observation window, then sorts the
///                  accessed columns (COLT-style, §2).
///  * kAdaptive   — parallel vectorized database cracking, PVDC [44].
///  * kStochastic — parallel vectorized stochastic cracking, PVSDC [21,44].
///  * kCCGI       — modified parallel chunked coarse-granular index [8].
///  * kHolistic   — PVDC for user queries + the always-on holistic engine
///                  refining indices on idle hardware contexts (§4).
///
/// The facade is a thin composition of three engine pieces:
///  * ColumnRegistry — resolves (table, column) once into a ColumnHandle;
///    the handle-based query path holds no global mutex and hashes no
///    strings (column_registry.h);
///  * QueryExecutor — one strategy object per ExecMode;
///  * Session — per-client handle cache + RNG + async submission
///    (session.h; OpenSession()).
///
/// Attributes are generic over the element type via the typed column
/// runtime (int32_t, int64_t and double). The query surface is one call,
/// Execute(QuerySpec), plus Insert / Delete of one KeyScalar value: bounds
/// and values travel as tagged int64-or-double scalars end to end (a
/// double column's sums stay doubles all the way to the wire).

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "engine/column_registry.h"
#include "engine/durability.h"
#include "engine/engine_options.h"
#include "obs/metrics.h"
#include "engine/query_executor.h"
#include "engine/session.h"
#include "holistic/holistic_engine.h"
#include "storage/catalog.h"
#include "util/thread_pool.h"

namespace holix {

/// A main-memory column-store database with self-organizing indexing.
class Database {
 public:
  explicit Database(DatabaseOptions options);
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Schema and base data.
  Catalog& catalog() { return catalog_; }

  /// Creates table \p table (if needed) and adds a typed column. Every
  /// supported element type (int32_t, int64_t, double) is indexable and
  /// queryable through the facade; doubles order through the
  /// KeyTraits<double> total order (NaN above +inf, -0.0 == +0.0).
  template <typename T>
  void LoadColumn(const std::string& table, const std::string& column,
                  std::vector<T> data) {
    Table& t = catalog_.CreateTable(table);
    const size_t rows = data.size();
    Column<T>& stored = t.AddColumn<T>(column, std::move(data));
    registry_.Add<T>(table, column, &stored);
    RaiseRowIdFloor(rows);
  }

  /// Source-compatible int64 overload (also catches braced initializers).
  void LoadColumn(const std::string& table, const std::string& column,
                  std::vector<int64_t> data) {
    LoadColumn<int64_t>(table, column, std::move(data));
  }

  /// Drops \p table: its attributes leave the registry and the holistic
  /// store, and outstanding handles turn invalid (queries through them
  /// throw). Callers must quiesce in-flight queries on the table first, as
  /// with any DDL.
  void DropTable(const std::string& table);

  /// Resolves an attribute to a handle for the hot query path. Resolve
  /// once, query many times. Throws std::out_of_range when absent.
  ColumnHandle Resolve(const std::string& table,
                       const std::string& column) const {
    return registry_.Resolve(table, column);
  }

  /// Opens a per-client session (handle cache, private RNG, async path).
  Session OpenSession(SessionOptions options = {});

  // --- Query and update API -----------------------------------------------
  //
  // Every read is a QuerySpec (query_spec.h): a conjunction of 1..N range
  // predicates plus the requested results. The executor plans the
  // conjunction (most selective predicate first, estimated from cracker
  // piece boundaries; base-column probes for the rest, which skip the
  // rows deleted from the probed column — every touched predicate column
  // cracks as a side effect in the adaptive modes). Handles come from
  // Resolve; no global mutex is taken and no string is hashed on this
  // path.

  QueryResult Execute(const QuerySpec& spec, const QueryContext& qctx = {});

  /// Pending-queue insert (merged on demand; §5.7). Cracking modes only.
  /// The value is a tagged int64-or-double scalar: a double carrier
  /// against an integer column must be integral and in domain, or
  /// std::out_of_range is thrown.
  RowId Insert(const ColumnHandle& column, KeyScalar value,
               const QueryContext& qctx = {});

  /// Pending-queue delete of one row holding \p value. Resolves the row via
  /// the unit select [value, Next(value)) — the open top at the element
  /// type's maximum — so any representable value, including that maximum,
  /// is deletable. The select reads the row under the latch it cracked in,
  /// so a concurrent Ripple merge cannot hide a present row. \return true
  /// when a matching row was found.
  bool Delete(const ColumnHandle& column, KeyScalar value,
              const QueryContext& qctx = {});

  // --- Mode-specific operations ------------------------------------------

  /// Sorts every loaded column now (offline indexing's up-front
  /// investment). Implicit on first query in kOffline mode.
  void PrepareOfflineIndexes() { executor_->Prepare(); }

  /// Registers a speculative index on an attribute into C_potential
  /// (kHolistic; Fig. 9's idle-time pre-indexing).
  void SeedPotentialIndex(const std::string& table,
                          const std::string& column) {
    executor_->SeedPotential(Resolve(table, column));
  }

  // --- Durability (src/persist/ attaches here) ----------------------------

  /// Attaches (or with nullptr detaches) the durability hook. Every update
  /// that enters through Insert/Delete is logged through the
  /// hook while the update barrier is held shared, so a checkpoint's state
  /// cut (ExportDurableState, unique barrier) can never interleave with a
  /// half-logged update.
  void SetDurabilityHook(DurabilityHook* hook);

  /// Forces a checkpoint through the attached hook; returns the checkpoint
  /// LSN. Throws std::logic_error when no hook is attached.
  uint64_t Checkpoint();

  /// Exports the full durable state under the unique update barrier: every
  /// cracker force-merges its pending queues, then base ranks, appended /
  /// deleted-base registries, piece boundaries and life stats are captured.
  /// \p under_barrier (optional) runs while the barrier is still held — the
  /// persistence layer rotates the WAL epoch inside it, making the state
  /// cut and the epoch boundary one atomic event. Columns are ordered by
  /// key so identical states serialize identically.
  DurableDatabaseState ExportDurableState(
      const std::function<void()>& under_barrier = {});

  /// Recovery step 1: recreates tables and base columns from \p state into
  /// this (empty) database and queues the checkpointed appended /
  /// deleted-base registries as pending updates. Throws std::logic_error
  /// when the database already holds tables.
  void BeginRestore(const DurableDatabaseState& state);

  /// Recovery step 2 (per WAL record): re-applies a logged insert or
  /// delete exactly — same value (rank image), same rowid, so a delete
  /// removes the exact row the original call removed.
  void ApplyLoggedUpdate(WalOp op, const std::string& table,
                         const std::string& column, ValueType type,
                         uint64_t rank, RowId rid);

  /// Recovery step 3: re-cracks each restored cracker at its saved pivots
  /// in median-first order (sorted pivots, crack at the middle one, recurse
  /// on both halves: O(n log p) rows moved for n rows and p pivots), then
  /// Ripple-merges the pending update history (checkpointed registries plus
  /// the replayed WAL tail) into the re-cracked pieces, so each delete
  /// searches one piece rather than the whole column. Boundaries come out
  /// bit-identical — a boundary's position is a pure function of the final
  /// column multiset. Then restores the life stats and the holistic store
  /// membership and verifies the cracker invariants (one O(n) pass).
  /// Throws std::runtime_error on invariant failure.
  /// \return wall time spent re-cracking and merging, summed over columns.
  RestoreTimings FinishRestore(const DurableDatabaseState& state);

  // --- Introspection ------------------------------------------------------

  /// The holistic engine (nullptr unless mode is kHolistic).
  HolisticEngine* holistic() { return holistic_.get(); }

  /// Sum of pieces over all adaptive indices (Fig. 6(c) telemetry).
  size_t TotalIndexPieces() const;

  /// Number of adaptive indices materialized so far.
  size_t NumAdaptiveIndices() const;

  /// Refreshes the lazily-computed gauges (piece counts, Equation-1
  /// distance per column, holistic store usage) in the global registry,
  /// then returns its snapshot. Both the in-process path and the server's
  /// `GetStats` frame go through this method, so a quiesced system yields
  /// bit-identical snapshots from either plane.
  obs::MetricsSnapshot MetricsSnapshot() const;

  /// The options this database was built with.
  const DatabaseOptions& options() const { return options_; }

  /// The shared intra-query worker pool (parallel scans/cracks/sorts).
  ThreadPool& query_pool() { return *query_pool_; }

  /// The client pool executing async session submissions and harness
  /// client drivers. Lazily created; growing to \p min_threads retires the
  /// old pool (in-flight submissions and held references stay valid and
  /// drain on the old pool's threads). Distinct from query_pool() so a
  /// submitted query may itself fan out on the query pool without deadlock.
  ThreadPool& client_pool(size_t min_threads = 0);

  /// The name -> handle registry (read-only).
  const ColumnRegistry& registry() const { return registry_; }

 private:
  void RaiseRowIdFloor(uint64_t rows);

  DatabaseOptions options_;
  Catalog catalog_;
  ColumnRegistry registry_;
  std::unique_ptr<ThreadPool> query_pool_;
  std::unique_ptr<HolisticEngine> holistic_;
  SlotCpuMonitor* slot_monitor_ = nullptr;  // owned by holistic_
  EngineContext engine_ctx_;
  std::unique_ptr<QueryExecutor> executor_;

  std::atomic<uint64_t> next_insert_rowid_{0};
  std::atomic<uint64_t> next_session_id_{0};

  /// Held shared around apply+log of every update, unique around a
  /// checkpoint's state export — the sharp cut that keeps "in the
  /// snapshot" and "after the WAL rotation" mutually exclusive.
  mutable std::shared_mutex update_barrier_;
  std::atomic<DurabilityHook*> durability_{nullptr};

  std::mutex client_pool_mu_;
  std::unique_ptr<ThreadPool> client_pool_;
  /// Pools replaced by growth; kept alive so outstanding references and
  /// submissions drain safely (freed when the database dies).
  std::vector<std::unique_ptr<ThreadPool>> retired_client_pools_;
};

}  // namespace holix
