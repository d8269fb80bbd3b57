/// \file holistic_engine.h
/// \brief The always-on tuning loop of holistic indexing (§4.2, Figure 2).
///
/// One holistic indexing thread runs beside query processing. Every cycle
/// it measures CPU utilization; when n hardware contexts are idle it
/// activates floor(n / z) holistic workers (z threads each), each of which
/// executes the IdleFunction: pick an index from the index space by weight,
/// perform x partial refinements at random pivots (skipping latched pieces,
/// Figure 3), update the statistics, and retire the index into C_optimal
/// when its average piece reaches |L1|. The thread waits for all workers,
/// then measures again.

#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cracking/crack_config.h"
#include "holistic/cpu_monitor.h"
#include "holistic/stats_store.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace holix {

/// Tuning knobs of the holistic engine.
struct HolisticConfig {
  /// x: partial index refinements per worker activation (§5.5, Fig. 15:
  /// 16 is the paper's sweet spot).
  size_t refinements_per_worker = 16;

  /// Maximum simultaneously active holistic workers.
  size_t max_workers = 8;

  /// z: threads per worker team; teams > 1 use parallel cracking on large
  /// pieces (the paper's u16w8x2 style configurations). Single-thread
  /// workers crack with the SIMD kernel; there is no kernel knob.
  size_t threads_per_worker = 1;

  /// Index decision strategy (W1-W4). W4 (random) is the paper's robust
  /// default (§5.4, Fig. 13).
  Strategy strategy = Strategy::kW4;

  /// Storage budget for the materialized index space.
  size_t storage_budget_bytes = std::numeric_limits<size_t>::max();

  /// How often the tuning thread re-measures CPU load when no worker ran.
  /// The paper uses 1 s (kernel statistics need it); the deterministic
  /// SlotCpuMonitor supports much shorter cycles for scaled-down runs.
  double monitor_interval_seconds = 0.002;

  /// How workers aim their cracks. The paper argues kRandom is best; the
  /// alternatives exist for the design-decision ablation (§4.2).
  PivotPolicy pivot_policy = PivotPolicy::kRandom;

  /// How many fresh random pivots a worker tries when it keeps hitting
  /// latched pieces (Figure 3(d): pick another pivot instead of waiting).
  size_t max_pivot_retries = 8;

  /// Seed for worker RNGs.
  uint64_t seed = 0x5EEDu;
};

/// Telemetry: one record per tuning-cycle activation (Fig. 6(d)).
struct ActivationRecord {
  double at_seconds = 0;     ///< Time since Start(), seconds.
  size_t workers = 0;        ///< Holistic workers activated this cycle.
  double cycle_seconds = 0;  ///< Wall time until all workers finished.
};

/// The holistic indexing engine: statistics store + tuning thread + worker
/// teams. Thread-safe; Start/Stop may be called repeatedly.
class HolisticEngine {
 public:
  /// \param config   tuning knobs.
  /// \param monitor  idle-core detector; the engine takes ownership.
  HolisticEngine(HolisticConfig config, std::unique_ptr<CpuMonitor> monitor);
  ~HolisticEngine();

  HolisticEngine(const HolisticEngine&) = delete;
  HolisticEngine& operator=(const HolisticEngine&) = delete;

  /// The index space and statistics (register indices here).
  StatsStore& store() { return store_; }
  /// Read-only store access.
  const StatsStore& store() const { return store_; }

  /// The CPU monitor (e.g. to Acquire/Release slots on a SlotCpuMonitor).
  CpuMonitor& monitor() { return *monitor_; }

  /// The active configuration.
  const HolisticConfig& config() const { return config_; }

  /// Launches the holistic indexing thread. Idempotent.
  void Start();

  /// Stops the holistic indexing thread and waits for in-flight workers.
  /// Idempotent.
  void Stop();

  /// True while the tuning thread runs.
  bool IsRunning() const { return running_.load(std::memory_order_acquire); }

  /// Runs exactly one tuning cycle synchronously on the calling thread
  /// (measure, activate, wait). Useful for tests and for exploiting known
  /// idle phases (Fig. 9). \return number of workers activated.
  size_t RunOneCycle();

  /// All activation records so far (copy).
  std::vector<ActivationRecord> Activations() const;

  /// Total refinement steps attempted by workers since construction.
  uint64_t TotalRefinementSteps() const {
    return refinement_steps_.load(std::memory_order_relaxed);
  }

  /// Total successful worker cracks since construction.
  uint64_t TotalWorkerCracks() const {
    return worker_cracks_.load(std::memory_order_relaxed);
  }

 private:
  void TuningLoop();
  void IdleFunction(size_t worker_id);

  HolisticConfig config_;
  std::unique_ptr<CpuMonitor> monitor_;
  StatsStore store_;

  std::unique_ptr<ThreadPool> worker_pool_;  // max_workers threads
  std::vector<std::unique_ptr<ThreadPool>> team_pools_;  // z-1 threads each
  std::vector<Rng> worker_rngs_;

  std::thread tuning_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};

  std::atomic<uint64_t> refinement_steps_{0};
  std::atomic<uint64_t> worker_cracks_{0};

  mutable std::mutex telemetry_mu_;
  std::vector<ActivationRecord> activations_;
  double start_time_ = 0;
};

}  // namespace holix
