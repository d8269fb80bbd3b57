/// \file adaptive_index.h
/// \brief Type-erased view of an adaptive index, as seen by the holistic
/// indexing machinery (§4.1).
///
/// Holistic indexing must manage indices over attributes of any type; this
/// interface exposes exactly what the tuning loop needs: piece statistics
/// (for Equation 1 and the W-strategies), the ability to crack at a random
/// pivot with try-latch semantics, and the index's storage footprint (for
/// the storage budget).

#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "cracking/crack_config.h"
#include "cracking/cracker_column.h"
#include "holistic/pivot_policy.h"
#include "util/cache_info.h"
#include "util/rng.h"

namespace holix {

/// Abstract adaptive index participating in the index space IS.
class AdaptiveIndex {
 public:
  virtual ~AdaptiveIndex() = default;

  /// Unique name (usually "table.attribute").
  virtual const std::string& name() const = 0;
  /// Cardinality N_A of the cracker column.
  virtual size_t NumRows() const = 0;
  /// Current number of pieces p_A.
  virtual size_t NumPieces() const = 0;
  /// Bytes per key element (|T|), used to express |L1| in elements.
  virtual size_t ElementSize() const = 0;
  /// Bytes materialized by this index (cracker column + rowids).
  virtual size_t SizeBytes() const = 0;
  /// Life counters (accesses f_I, exact hits f_Ih, cracks, ...).
  virtual const CrackStats& stats() const = 0;
  /// True when the index holds update history that its base column lacks;
  /// such an index cannot be dropped and rebuilt (storage-budget eviction).
  virtual bool HasUpdateHistory() const = 0;

  /// One refinement step: pick a random pivot in the attribute's domain and
  /// crack the piece it falls into, with try-latch semantics. Implementors
  /// must *not* block on busy pieces (Figure 3: the worker re-picks).
  /// \return true when a crack happened (piece free and pivot non-degenerate).
  virtual bool RefineAtRandomPivot(Rng& rng, const CrackConfig& cfg) = 0;

  /// Policy-driven refinement (§4.2 ablation): kRandom delegates to
  /// RefineAtRandomPivot; the piece-targeting policies pay a piece scan to
  /// aim the crack. Implementations with no piece information may fall
  /// back to the random policy.
  virtual bool RefineWithPolicy(PivotPolicy policy, Rng& rng,
                                const CrackConfig& cfg) {
    (void)policy;
    return RefineAtRandomPivot(rng, cfg);
  }

  /// Distance from the optimal index per Equation (1), accounted in BYTES:
  /// d(I, I_opt) = (N_A / p_A) * |T| - |L1| bytes, clamped at zero. The
  /// optimality crossing (average piece fits in L1) is identical to the
  /// element-count form, but byte accounting makes distances comparable
  /// across key widths — an int32 index and a double index at the same
  /// piece byte-size now weigh the same to the W1-W3 strategies, where
  /// element counts would overweight the narrow type 2:1.
  double DistanceToOptimal() const {
    if (NumRows() == 0) return 0.0;
    const double avg_piece_bytes =
        static_cast<double>(NumRows()) / static_cast<double>(NumPieces()) *
        static_cast<double>(ElementSize());
    const double d =
        avg_piece_bytes - static_cast<double>(L1DataCacheBytes());
    return d > 0 ? d : 0.0;
  }

  /// True when the index reached optimal status (d == 0).
  bool IsOptimal() const { return DistanceToOptimal() <= 0.0; }
};

/// Adapter binding a CrackerColumn<T> to the AdaptiveIndex interface.
template <typename T>
class CrackerAdaptiveIndex : public AdaptiveIndex {
 public:
  explicit CrackerAdaptiveIndex(std::shared_ptr<CrackerColumn<T>> column)
      : column_(std::move(column)) {}

  const std::string& name() const override { return column_->name(); }
  size_t NumRows() const override { return column_->size(); }
  size_t NumPieces() const override { return column_->NumPieces(); }
  size_t ElementSize() const override { return sizeof(T); }
  size_t SizeBytes() const override {
    return column_->size() * (sizeof(T) + sizeof(RowId));
  }
  const CrackStats& stats() const override { return column_->stats(); }
  bool HasUpdateHistory() const override {
    return column_->pending().HasHistory();
  }

  bool RefineAtRandomPivot(Rng& rng, const CrackConfig& cfg) override {
    const T lo = column_->MinValue();
    const T hi = column_->MaxValue();
    if (!KeyTraits<T>::Less(lo, hi)) return false;
    // Sample in the column's native type: a detour through int64_t would
    // overflow for domains spanning most of T (e.g. int64 keys near the
    // extremes) and silently bias the pivot distribution; double domains
    // sample in value space with a rank-space fallback (see rng.h).
    const T pivot = SamplePivotBetween<T>(rng, lo, hi);
    return column_->TryRefineAt(pivot, cfg);
  }

  bool RefineWithPolicy(PivotPolicy policy, Rng& rng,
                        const CrackConfig& cfg) override {
    if (policy == PivotPolicy::kRandom) {
      return RefineAtRandomPivot(rng, cfg);
    }
    const size_t l1 = L1Elements(sizeof(T));
    const auto pivot = column_->SuggestExtremePiecePivot(
        policy == PivotPolicy::kBiggestPiece, rng,
        /*min_piece=*/std::max<size_t>(2, l1));
    if (!pivot.has_value()) return RefineAtRandomPivot(rng, cfg);
    return column_->TryRefineAt(*pivot, cfg);
  }

  /// The wrapped cracker column.
  const std::shared_ptr<CrackerColumn<T>>& column() const { return column_; }

 private:
  std::shared_ptr<CrackerColumn<T>> column_;
};

}  // namespace holix
