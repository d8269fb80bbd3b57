#include "holistic/holistic_engine.h"

#include <algorithm>
#include <chrono>

#include "obs/metrics.h"
#include "util/timer.h"

namespace holix {

HolisticEngine::HolisticEngine(HolisticConfig config,
                               std::unique_ptr<CpuMonitor> monitor)
    : config_(config),
      monitor_(std::move(monitor)),
      store_(config.strategy, config.storage_budget_bytes) {
  worker_pool_ = std::make_unique<ThreadPool>(config_.max_workers);
  team_pools_.resize(config_.max_workers);
  if (config_.threads_per_worker > 1) {
    for (auto& p : team_pools_) {
      p = std::make_unique<ThreadPool>(config_.threads_per_worker - 1);
    }
  }
  worker_rngs_.reserve(config_.max_workers);
  for (size_t i = 0; i < config_.max_workers; ++i) {
    worker_rngs_.emplace_back(config_.seed * 0x9E3779B97F4A7C15ULL + i);
  }
  start_time_ = NowSeconds();
}

HolisticEngine::~HolisticEngine() { Stop(); }

void HolisticEngine::Start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  stop_requested_.store(false, std::memory_order_release);
  start_time_ = NowSeconds();
  tuning_thread_ = std::thread([this] { TuningLoop(); });
}

void HolisticEngine::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stop_requested_.store(true, std::memory_order_release);
  if (tuning_thread_.joinable()) tuning_thread_.join();
  running_.store(false, std::memory_order_release);
}

void HolisticEngine::TuningLoop() {
  while (!stop_requested_.load(std::memory_order_acquire)) {
    const size_t activated = RunOneCycle();
    if (activated == 0) {
      // Nothing to do: either no idle contexts or an empty index space.
      // The monitor itself slept for its interval during measurement; add
      // a short pause only when the monitor has none (slot monitors with
      // interval 0), so the loop does not busy-spin.
      std::this_thread::sleep_for(std::chrono::duration<double>(
          config_.monitor_interval_seconds));
    }
  }
}

size_t HolisticEngine::RunOneCycle() {
  const size_t idle = monitor_->MeasureIdleCores();
  const size_t z = std::max<size_t>(1, config_.threads_per_worker);
  size_t workers = std::min(config_.max_workers, idle / z);
  if (workers == 0) return 0;
  // Do not bother activating workers when the index space is empty.
  Rng probe_rng(config_.seed);
  if (store_.PickForRefinement(probe_rng) == nullptr) return 0;

  Timer cycle_timer;
  for (size_t w = 0; w < workers; ++w) {
    worker_pool_->Submit([this, w] { IdleFunction(w); });
  }
  worker_pool_->WaitIdle();

  static obs::Counter& activations = obs::MetricsRegistry::Global().GetCounter(
      "holix_holistic_activations_total");
  activations.Inc(workers);

  std::lock_guard<std::mutex> lk(telemetry_mu_);
  activations_.push_back(
      {NowSeconds() - start_time_, workers, cycle_timer.ElapsedSeconds()});
  return workers;
}

void HolisticEngine::IdleFunction(size_t worker_id) {
  Rng& rng = worker_rngs_[worker_id];
  std::shared_ptr<AdaptiveIndex> index = store_.PickForRefinement(rng);
  if (index == nullptr) return;

  CrackConfig cfg;
  const size_t z = std::max<size_t>(1, config_.threads_per_worker);
  if (z > 1 && team_pools_[worker_id] != nullptr) {
    cfg.pool = team_pools_[worker_id].get();
    cfg.parallel_threads = z;
  }

  // Repeat x times: crack at a random pivot; when the piece is latched,
  // pick another random pivot instead of waiting (Figure 3).
  static obs::Counter& refinements = obs::MetricsRegistry::Global().GetCounter(
      "holix_holistic_refinements_total");
  static obs::Counter& cracks = obs::MetricsRegistry::Global().GetCounter(
      "holix_holistic_worker_cracks_total");
  for (size_t i = 0; i < config_.refinements_per_worker; ++i) {
    refinement_steps_.fetch_add(1, std::memory_order_relaxed);
    refinements.Inc();
    for (size_t attempt = 0; attempt < config_.max_pivot_retries; ++attempt) {
      if (index->RefineWithPolicy(config_.pivot_policy, rng, cfg)) {
        worker_cracks_.fetch_add(1, std::memory_order_relaxed);
        cracks.Inc();
        break;
      }
      if (index->IsOptimal()) break;
    }
    if (index->IsOptimal()) break;
  }
  if (store_.UpdateAfterRefinement(index->name())) {
    static obs::Counter& retirements =
        obs::MetricsRegistry::Global().GetCounter(
            "holix_holistic_retirements_total");
    retirements.Inc();
  }
}

std::vector<ActivationRecord> HolisticEngine::Activations() const {
  std::lock_guard<std::mutex> lk(telemetry_mu_);
  return activations_;
}

}  // namespace holix
