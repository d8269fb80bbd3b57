/// \file session.h
/// \brief Per-client query sessions (§5.8's concurrent-client model).
///
/// A Session is how one client talks to the engine: it caches resolved
/// ColumnHandles (names are hashed once per session, not once per query),
/// carries a private RNG so stochastic pivots are deterministic per client,
/// and offers an async SubmitExecute path that executes queries on the
/// database's client pool — which is what the harness and fig17 use to
/// model many concurrent clients without spawning raw threads per run.
///
/// Thread model: one session belongs to one client. The synchronous calls
/// must not race each other; SubmitExecute hands the query to a pool
/// thread and uses thread-local pivot RNG there, so a client may overlap
/// async queries with its own synchronous work.

#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <string>
#include <unordered_map>

#include "engine/column_registry.h"
#include "engine/engine_options.h"
#include "engine/query_spec.h"
#include "storage/position_list.h"
#include "util/rng.h"

namespace holix {

class Database;

/// One client's connection to a Database. Movable, not copyable; must not
/// outlive the database.
class Session {
 public:
  Session(Session&&) = default;
  Session& operator=(Session&&) = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Resolves (and caches) the handle of an attribute. Later calls with
  /// the same names return the cached handle without consulting the
  /// registry. Throws std::out_of_range when the attribute doesn't exist.
  ColumnHandle Handle(const std::string& table, const std::string& column);

  // --- Query and update API (see Database) -------------------------------

  /// Executes a QuerySpec with this session's RNG driving stochastic
  /// pivots. Handles inside the spec come from Handle()/Resolve.
  QueryResult Execute(const QuerySpec& spec);
  RowId Insert(const ColumnHandle& column, KeyScalar value);
  /// \return true when a matching row was found (see Database::Delete).
  bool Delete(const ColumnHandle& column, KeyScalar value);

  /// Submits the spec to the database's client pool and returns a future.
  /// The spec is copied into the task, and the pool thread uses its
  /// thread-local pivot RNG (the session RNG is not shared across
  /// threads). The session (and database) must outlive the future's
  /// completion.
  std::future<QueryResult> SubmitExecute(QuerySpec spec);

  /// Completion-hook submission: hands \p work to the database's client
  /// pool as-is. This is how the network server attaches continuations
  /// (execute query -> encode -> write socket) without parking a thread on
  /// a future per in-flight request; the closure runs on a pool thread, so
  /// it must not touch this session's handle cache or RNG. The database
  /// must outlive the closure's completion.
  void SubmitRaw(std::function<void()> work);

  /// The session's private RNG (stochastic pivot source).
  Rng& rng() { return rng_; }
  /// Session id (unique per database).
  uint64_t id() const { return id_; }
  /// The owning database.
  Database& database() { return *db_; }

 private:
  friend class Database;
  Session(Database* db, uint64_t id, uint64_t seed)
      : db_(db), id_(id), rng_(seed) {}

  Database* db_;
  uint64_t id_;
  Rng rng_;
  std::unordered_map<std::string, ColumnHandle> handles_;
};

}  // namespace holix
