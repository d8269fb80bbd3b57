/// \file engine_options.h
/// \brief Execution modes and construction-time options of the engine.
///
/// Split out of database.h so the registry / executor / session layers can
/// share these types without pulling in the facade.

#pragma once

#include <cstddef>
#include <cstdint>

#include "holistic/holistic_engine.h"

namespace holix {

/// Indexing/execution mode of a Database instance.
enum class ExecMode : uint8_t {
  kScan,
  kOffline,
  kOnline,
  kAdaptive,
  kStochastic,
  kCCGI,
  kHolistic,
};

/// Printable name of an execution mode.
const char* ExecModeName(ExecMode m);

/// Construction-time options of a Database.
struct DatabaseOptions {
  /// Indexing approach used by select operators.
  ExecMode mode = ExecMode::kAdaptive;

  /// Hardware contexts assigned to each user query (the "uX" in the
  /// paper's uXwYxZ labels). Select-path cracks of large pieces run
  /// morsel-parallel across them; with 1 every crack is single-threaded
  /// SIMD. The crack kernel itself is not configurable (crack_config.h).
  size_t user_threads = 1;

  /// Hardware contexts of the whole machine (contexts not used by queries
  /// are what holistic indexing may exploit).
  size_t total_cores = 0;  ///< 0 = hardware_concurrency().

  /// kOnline: queries answered by scans before the sorting step.
  size_t online_observation_window = 100;

  /// kCCGI: number of coarse chunks (0 = user_threads).
  size_t ccgi_chunks = 0;

  /// kHolistic: engine knobs (workers, x, strategy, budget, ...).
  HolisticConfig holistic;

  /// kHolistic: use kernel statistics (/proc/stat) instead of the
  /// deterministic slot monitor.
  bool use_proc_stat_monitor = false;

  /// Seed for stochastic cracking pivots and session RNG derivation.
  uint64_t seed = 42;
};

/// Construction-time options of a Session (see session.h).
struct SessionOptions {
  /// Seed of the session's private RNG (stochastic pivots). 0 derives a
  /// distinct per-session seed from the database seed and session id.
  uint64_t seed = 0;
};

}  // namespace holix
