#include "holistic/stats_store.h"

#include <algorithm>
#include <stdexcept>

namespace holix {

bool StatsStore::Register(std::shared_ptr<AdaptiveIndex> index,
                          ConfigKind kind,
                          std::vector<std::string>* evicted) {
  std::lock_guard<std::mutex> lk(mu_);
  const std::string& name = index->name();
  if (entries_.count(name) != 0) return true;  // already registered
  const size_t bytes = index->SizeBytes();
  if (total_bytes_ + bytes > budget_bytes_ &&
      !EvictForLocked(bytes, evicted)) {
    return false;
  }
  Entry e;
  e.index = std::move(index);
  e.kind = kind;
  e.bytes = bytes;
  if (kind == ConfigKind::kActual) {
    e.handle = actual_heap_.Push(ComputeWeight(*e.index, strategy_), name);
  } else if (kind == ConfigKind::kPotential) {
    potential_.push_back(name);
  }
  total_bytes_ += bytes;
  entries_.emplace(name, std::move(e));
  return true;
}

bool StatsStore::Contains(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  return entries_.count(name) != 0;
}

ConfigKind StatsStore::KindOf(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) throw std::out_of_range("no index " + name);
  return it->second.kind;
}

std::optional<ConfigKind> StatsStore::TryKindOf(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) return std::nullopt;
  return it->second.kind;
}

void StatsStore::RecordQueryAccess(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) return;
  Entry& e = it->second;
  if (e.kind == ConfigKind::kPotential) {
    // First user query on a speculative index: promote to C_actual.
    potential_.erase(std::remove(potential_.begin(), potential_.end(), name),
                     potential_.end());
    e.kind = ConfigKind::kActual;
    e.handle = actual_heap_.Push(ComputeWeight(*e.index, strategy_), name);
  } else if (e.kind == ConfigKind::kActual) {
    actual_heap_.Update(e.handle, ComputeWeight(*e.index, strategy_));
  }
}

std::shared_ptr<AdaptiveIndex> StatsStore::PickForRefinement(Rng& rng) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!actual_heap_.empty()) {
    const auto handle =
        strategy_ == Strategy::kW4
            ? actual_heap_.AtSlot(rng.Below(actual_heap_.size()))
            : actual_heap_.Top();
    return entries_.at(actual_heap_.PayloadOf(handle)).index;
  }
  if (!potential_.empty()) {
    return entries_.at(potential_[rng.Below(potential_.size())]).index;
  }
  return nullptr;
}

bool StatsStore::UpdateAfterRefinement(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) return false;
  Entry& e = it->second;
  if (e.kind == ConfigKind::kOptimal) return false;
  const double d = e.index->DistanceToOptimal();
  if (d <= 0.0) {
    MoveToOptimalLocked(e);
    return true;
  }
  if (e.kind == ConfigKind::kActual) {
    actual_heap_.Update(e.handle, ComputeWeight(*e.index, strategy_));
  }
  return false;
}

void StatsStore::Remove(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) return;
  Entry& e = it->second;
  if (e.kind == ConfigKind::kActual) {
    actual_heap_.Erase(e.handle);
  } else if (e.kind == ConfigKind::kPotential) {
    potential_.erase(std::remove(potential_.begin(), potential_.end(), name),
                     potential_.end());
  }
  total_bytes_ -= e.bytes;
  entries_.erase(it);
}

size_t StatsStore::Count(ConfigKind kind) const {
  std::lock_guard<std::mutex> lk(mu_);
  size_t n = 0;
  for (const auto& [_, e] : entries_) n += (e.kind == kind) ? 1 : 0;
  return n;
}

std::vector<std::string> StatsStore::Names(ConfigKind kind) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> names;
  for (const auto& [name, e] : entries_) {
    if (e.kind == kind) names.push_back(name);
  }
  return names;
}

double StatsStore::WeightOf(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end() || it->second.kind != ConfigKind::kActual) {
    return 0.0;
  }
  return actual_heap_.WeightOf(it->second.handle);
}

size_t StatsStore::TotalBytes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return total_bytes_;
}

std::shared_ptr<AdaptiveIndex> StatsStore::Find(
    const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second.index;
}

size_t StatsStore::TotalPieces() const {
  std::lock_guard<std::mutex> lk(mu_);
  size_t pieces = 0;
  for (const auto& [_, e] : entries_) pieces += e.index->NumPieces();
  return pieces;
}

bool StatsStore::EvictForLocked(size_t needed_bytes,
                                std::vector<std::string>* evicted) {
  // Least-frequently-used first: fewest user-query accesses. Optimal
  // indices are auxiliary data too and participate in eviction. An index
  // with update history does not: eviction drops the index, and with it
  // the only copy of the column's inserted and deleted rows.
  while (total_bytes_ + needed_bytes > budget_bytes_) {
    const Entry* victim = nullptr;
    const std::string* victim_name = nullptr;
    uint64_t victim_accesses = 0;
    for (const auto& [name, e] : entries_) {
      if (e.index->HasUpdateHistory()) continue;
      const uint64_t acc =
          e.index->stats().accesses.load(std::memory_order_relaxed);
      if (victim == nullptr || acc < victim_accesses) {
        victim = &e;
        victim_name = &name;
        victim_accesses = acc;
      }
    }
    if (victim == nullptr) return false;  // nothing left to evict
    const std::string name_copy = *victim_name;
    if (evicted != nullptr) evicted->push_back(name_copy);
    Entry& e = entries_.at(name_copy);
    if (e.kind == ConfigKind::kActual) {
      actual_heap_.Erase(e.handle);
    } else if (e.kind == ConfigKind::kPotential) {
      potential_.erase(
          std::remove(potential_.begin(), potential_.end(), name_copy),
          potential_.end());
    }
    total_bytes_ -= e.bytes;
    entries_.erase(name_copy);
  }
  return true;
}

void StatsStore::MoveToOptimalLocked(Entry& e) {
  if (e.kind == ConfigKind::kActual) {
    actual_heap_.Erase(e.handle);
    e.handle = MutableMaxHeap<std::string>::kInvalidHandle;
  } else if (e.kind == ConfigKind::kPotential) {
    potential_.erase(std::remove(potential_.begin(), potential_.end(),
                                 e.index->name()),
                     potential_.end());
  }
  e.kind = ConfigKind::kOptimal;
}

}  // namespace holix
