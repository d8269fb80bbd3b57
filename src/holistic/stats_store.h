/// \file stats_store.h
/// \brief The statistics store: configurations C_actual / C_potential /
/// C_optimal, per-index weights, and the storage budget (§4.1, §4.2).
///
/// The store is the brain of holistic indexing: the select operator
/// registers indices it creates (C_actual), the system or user seeds
/// speculative indices (C_potential), workers pick the next index to refine
/// by weight, and indices whose average piece reaches |L1| retire into
/// C_optimal. A least-frequently-used policy keeps the materialized index
/// space within the storage budget.

#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "holistic/adaptive_index.h"
#include "holistic/mutable_heap.h"
#include "holistic/strategy.h"
#include "util/rng.h"

namespace holix {

/// Which configuration an index currently belongs to (§4.1).
enum class ConfigKind : uint8_t {
  kActual,     ///< Created by user queries; candidates for refinement.
  kPotential,  ///< Seeded by the system/user; not yet queried.
  kOptimal,    ///< Average piece <= |L1|; no further refinement.
};

/// Printable name of a configuration.
inline const char* ConfigKindName(ConfigKind k) {
  switch (k) {
    case ConfigKind::kActual:
      return "actual";
    case ConfigKind::kPotential:
      return "potential";
    case ConfigKind::kOptimal:
      return "optimal";
  }
  return "?";
}

/// Thread-safe registry of the index space IS = C_actual ∪ C_potential.
class StatsStore {
 public:
  /// \param strategy              weight function for worker picks.
  /// \param storage_budget_bytes  cap on materialized index bytes.
  explicit StatsStore(
      Strategy strategy = Strategy::kW4,
      size_t storage_budget_bytes = std::numeric_limits<size_t>::max())
      : strategy_(strategy), budget_bytes_(storage_budget_bytes) {}

  /// Registers \p index under \p kind. If the storage budget would be
  /// exceeded, least-frequently-used indices are evicted first (their names
  /// are appended to \p evicted so the owner can drop the cracker columns);
  /// an index with update history (AdaptiveIndex::HasUpdateHistory) is
  /// never evicted.
  /// \return false when the index cannot fit even after evictions.
  bool Register(std::shared_ptr<AdaptiveIndex> index, ConfigKind kind,
                std::vector<std::string>* evicted = nullptr);

  /// True when an index named \p name is registered (any configuration).
  bool Contains(const std::string& name) const;

  /// Configuration of \p name; throws std::out_of_range when absent.
  ConfigKind KindOf(const std::string& name) const;

  /// Configuration of \p name, or nullopt when absent (races with eviction
  /// are expected on the query path; this never throws).
  std::optional<ConfigKind> TryKindOf(const std::string& name) const;

  /// Records that a user query accessed \p name; promotes a potential index
  /// into C_actual (it now has workload evidence).
  void RecordQueryAccess(const std::string& name);

  /// Picks the next index a worker should refine (§4.2): the maximum-weight
  /// index of C_actual (uniform random for W4), or a random member of
  /// C_potential when C_actual is empty. Returns nullptr when the index
  /// space is empty.
  std::shared_ptr<AdaptiveIndex> PickForRefinement(Rng& rng);

  /// Recomputes the weight of \p name after a refinement (worker- or
  /// query-driven); moves the index into C_optimal when d(I, I_opt) == 0.
  /// \return true when the index just became optimal.
  bool UpdateAfterRefinement(const std::string& name);

  /// Drops \p name from the store entirely (e.g. owner dropped the column).
  void Remove(const std::string& name);

  /// Number of indices in \p kind.
  size_t Count(ConfigKind kind) const;

  /// Names of all indices in \p kind (unordered).
  std::vector<std::string> Names(ConfigKind kind) const;

  /// Current weight of \p name (0 when absent or optimal).
  double WeightOf(const std::string& name) const;

  /// Total bytes materialized across all registered indices.
  size_t TotalBytes() const;

  /// The configured storage budget in bytes.
  size_t budget_bytes() const { return budget_bytes_; }

  /// The active strategy.
  Strategy strategy() const { return strategy_; }

  /// Looks up an index by name (nullptr when absent).
  std::shared_ptr<AdaptiveIndex> Find(const std::string& name) const;

  /// Sum of NumPieces over every registered index (Fig. 6(c) telemetry).
  size_t TotalPieces() const;

 private:
  struct Entry {
    std::shared_ptr<AdaptiveIndex> index;
    ConfigKind kind;
    MutableMaxHeap<std::string>::Handle handle =
        MutableMaxHeap<std::string>::kInvalidHandle;
    size_t bytes = 0;
  };

  // All members below are guarded by mu_.
  bool EvictForLocked(size_t needed_bytes,
                      std::vector<std::string>* evicted);
  void MoveToOptimalLocked(Entry& e);

  mutable std::mutex mu_;
  Strategy strategy_;
  size_t budget_bytes_;
  size_t total_bytes_ = 0;
  std::unordered_map<std::string, Entry> entries_;
  MutableMaxHeap<std::string> actual_heap_;  // C_actual by weight
  std::vector<std::string> potential_;       // C_potential (unordered)
};

}  // namespace holix
