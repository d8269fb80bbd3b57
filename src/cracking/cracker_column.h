/// \file cracker_column.h
/// \brief The adaptive index: a cracker column plus its cracker index
/// (§3.2), with piece-level concurrency control (§4.2, Figure 3), Ripple
/// update merging [28], and optional payload alignment in the spirit of
/// partial sideways cracking [29].
///
/// Latch ordering (outermost first):
///   1. column latch   — read for cracks/scans, write for Ripple merges
///                       (merges shift positions of many pieces at once);
///   2. piece latch    — write to reorganize one piece, read to scan it;
///   3. tree mutex     — shared to look up pieces, unique to add boundaries.
/// A thread never acquires a piece latch while holding the tree mutex, so
/// boundary inserts (piece latch -> unique tree) cannot deadlock against
/// lookups (shared tree only). A select that reads its rows holds the
/// column read latch from its first crack to its last visited row, so a
/// Ripple merge waits for it and the rows never move between the crack
/// and the read.

#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <limits>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "cracking/crack_config.h"
#include "cracking/crack_kernels.h"
#include "cracking/crack_kernels_simd.h"
#include "cracking/cracker_index.h"
#include "cracking/parallel_crack.h"
#include "obs/metrics.h"
#include "storage/pending_updates.h"
#include "storage/position_list.h"
#include "storage/types.h"

namespace holix {

/// Monotonic counters describing the life of one adaptive index. All fields
/// are safe to read concurrently; they feed the holistic statistics store.
struct CrackStats {
  std::atomic<uint64_t> accesses{0};       ///< User-query selects (f_I).
  std::atomic<uint64_t> exact_hits{0};     ///< Selects with both bounds present (f_Ih).
  std::atomic<uint64_t> query_cracks{0};   ///< Piece splits caused by queries.
  std::atomic<uint64_t> worker_cracks{0};  ///< Piece splits caused by workers.
  std::atomic<uint64_t> worker_skips{0};   ///< Worker try-latch failures (Fig. 3d).
  std::atomic<uint64_t> merged_inserts{0}; ///< Pending inserts merged.
  std::atomic<uint64_t> merged_deletes{0}; ///< Pending deletes merged.
};

/// A run of selected rows inside one piece, handed to a select visitor
/// while the piece's read latch is held: values[i] belongs to row
/// rowids[i], at column position pos + i.
template <typename T>
struct RowRun {
  const T* values;
  const RowId* rowids;
  size_t size;      ///< Rows in this run; never zero.
  size_t pos;       ///< Column position of values[0] (aligned payloads).
  size_t selected;  ///< Rows the whole select visits, this run included.
};

/// An adaptive (cracked) index over one attribute.
///
/// The column stores (value, rowid) pairs which cracking physically
/// reorganizes; an optional set of aligned payload columns is co-moved by
/// the scalar kernel (sideways-style cracking, used by the TPC-H module).
template <typename T>
class CrackerColumn {
 public:
  /// Builds the cracker column as a copy of \p base with rowids 0..N-1.
  /// This is the copy the first query pays for in adaptive indexing.
  CrackerColumn(std::string name, const std::vector<T>& base)
      : name_(std::move(name)), values_(base) {
    rowids_.resize(values_.size());
    for (size_t i = 0; i < rowids_.size(); ++i) rowids_[i] = i;
    InitDomain();
  }

  /// Builds from explicit (value, rowid) vectors (tuple order preserved).
  CrackerColumn(std::string name, std::vector<T> values,
                std::vector<RowId> rowids)
      : name_(std::move(name)),
        values_(std::move(values)),
        rowids_(std::move(rowids)) {
    if (values_.size() != rowids_.size()) {
      throw std::invalid_argument("values/rowids length mismatch");
    }
    InitDomain();
  }

  CrackerColumn(const CrackerColumn&) = delete;
  CrackerColumn& operator=(const CrackerColumn&) = delete;

  /// Attribute name this index covers.
  const std::string& name() const { return name_; }

  /// Number of rows. Lock-free snapshot: Ripple merges grow/shrink the
  /// column under the exclusive latch, so unlatched readers (statistics,
  /// Equation-1 distance) need this mirror rather than values_.size().
  size_t size() const { return row_count_.load(std::memory_order_relaxed); }

  /// Number of pieces (boundaries + 1). Lock-free snapshot.
  size_t NumPieces() const {
    return num_boundaries_.load(std::memory_order_relaxed) + 1;
  }

  /// Smallest base value (meaningful only when size() > 0). Lock-free
  /// snapshot: Ripple merges widen the domain under the exclusive latch
  /// while holistic workers read it unlatched.
  T MinValue() const { return min_value_.load(std::memory_order_relaxed); }
  /// Largest base value. Lock-free snapshot.
  T MaxValue() const { return max_value_.load(std::memory_order_relaxed); }

  /// Mutable counters (updated by operations, read by holistic indexing).
  CrackStats& stats() { return stats_; }
  /// Read-only counters.
  const CrackStats& stats() const { return stats_; }

  /// Pending-update queues of this attribute.
  PendingUpdates<T>& pending() { return pending_; }

  /// Attaches an aligned payload column (sideways cracking): payload row i
  /// moves together with value row i from now on. Only allowed before any
  /// cracking has happened; the scalar kernel is then used for all cracks.
  void AttachPayload(std::vector<int64_t> payload) {
    if (payload.size() != values_.size()) {
      throw std::invalid_argument("payload length mismatch");
    }
    if (NumPieces() != 1) {
      throw std::logic_error("AttachPayload requires an uncracked column");
    }
    payloads_.push_back(std::move(payload));
  }

  // ---------------------------------------------------------------------
  // Select path (user queries)
  // ---------------------------------------------------------------------

  /// Range select: returns the contiguous positions whose values lie in
  /// [low, high), where an absent \p high is the open top of the order
  /// (max(T) for integers, the NaN key for doubles, which no exclusive bound
  /// can reach). Cracks at both bounds as a side effect — at \p low only
  /// for the open top, whose rows run to the end of the column; merges
  /// pending updates overlapping the range first (Ripple, [28]).
  ///
  /// Given a \p visit callable, also reads the selected rows: calls
  /// visit(run) with every RowRun<T> of the range in position order, under
  /// the column read latch the cracks ran under and each piece's read
  /// latch. No Ripple merge can shift rows between the crack and the read,
  /// because a merge needs the column write latch; on purpose, so \p visit
  /// must not call back into this column. Without a visitor the returned
  /// positions are valid only while no merge runs, so only counts and
  /// quiescent callers use them.
  template <typename Visit = std::nullptr_t>
  PositionRange SelectRange(T low, std::optional<T> high,
                            const CrackConfig& cfg = {},
                            Visit&& visit = nullptr) {
    stats_.accesses.fetch_add(1, std::memory_order_relaxed);
    if (high && !KeyTraits<T>::Less(low, *high)) return {0, 0};
    // Merge before the emptiness check: a column loaded empty can still
    // have pending inserts in range, and they must become visible here.
    MergePendingInRange(low, high);
    if (size() == 0) return {0, 0};

    ReadGuard column_guard(column_latch_);
    const PositionRange range = CrackRangeLatched(low, high, cfg);
    if constexpr (!std::is_null_pointer_v<std::remove_cvref_t<Visit>>) {
      VisitLatched(range, visit);
    }
    return range;
  }

  /// Cracks at a single bound (blocking); returns the first position whose
  /// value is >= w. Exposed for operators that need one-sided predicates.
  size_t CrackAtBlocking(T w, const CrackConfig& cfg = {}) {
    for (;;) {
      PieceRef<T> piece = LookupPiece(w);
      if (piece.exact) return piece.begin;
      piece.latch->LockWrite();
      PieceRef<T> cur = LookupPiece(w);
      if (cur.exact) {
        piece.latch->UnlockWrite();
        return cur.begin;
      }
      if (cur.latch != piece.latch) {
        piece.latch->UnlockWrite();
        continue;  // the piece was split under us; retry on the new piece
      }
      // Stochastic cracking: impose extra order inside big target pieces
      // with data-driven random pivots before the query-bound crack.
      while (cfg.stochastic && cfg.rng != nullptr &&
             cur.size() > cfg.stochastic_min_piece) {
        const size_t probe =
            cur.begin + cfg.rng->Below(std::max<size_t>(1, cur.size()));
        const T rnd_pivot = values_[probe];
        const bool degenerate =
            !KeyTraits<T>::Less(cur.lo_value.value_or(KeyTraits<T>::Lowest()),
                                rnd_pivot) ||
            KeyTraits<T>::Eq(rnd_pivot, w);
        if (degenerate) break;  // no order to impose
        const size_t cut = Partition(cur.begin, cur.end, rnd_pivot, cfg);
        InsertBoundary(rnd_pivot, cut);
        stats_.query_cracks.fetch_add(1, std::memory_order_relaxed);
        if (KeyTraits<T>::Less(w, rnd_pivot)) {
          cur.end = cut;
          cur.hi_value = rnd_pivot;
        } else if (KeyTraits<T>::Less(rnd_pivot, w)) {
          // Piece latch of [cut, end) is the new boundary's latch; we must
          // switch latches: release ours, retry from the top.
          piece.latch->UnlockWrite();
          goto retry;
        } else {
          piece.latch->UnlockWrite();
          return cut;
        }
      }
      {
        const size_t cut = Partition(cur.begin, cur.end, w, cfg);
        InsertBoundary(w, cut);
        stats_.query_cracks.fetch_add(1, std::memory_order_relaxed);
        piece.latch->UnlockWrite();
        return cut;
      }
    retry:;
    }
  }

  // ---------------------------------------------------------------------
  // Holistic refinement path (worker threads)
  // ---------------------------------------------------------------------

  /// One holistic refinement step: crack the piece containing \p pivot.
  /// Never blocks on a piece latch — if the piece is busy the caller picks
  /// another pivot (Figure 3). Also merges pending updates overlapping the
  /// piece, so workers bring the index up to date as a side effect (§4.2).
  /// \return true when a crack happened.
  bool TryRefineAt(T pivot, const CrackConfig& cfg = {}) {
    {
      ReadGuard column_guard(column_latch_);
      PieceRef<T> piece = LookupPiece(pivot);
      if (piece.exact) return false;
      if (!piece.latch->TryLockWrite()) {
        stats_.worker_skips.fetch_add(1, std::memory_order_relaxed);
        static obs::Counter& latch_failures =
            obs::MetricsRegistry::Global().GetCounter(
                "holix_latch_failures_total");
        latch_failures.Inc();
        return false;
      }
      PieceRef<T> cur = LookupPiece(pivot);
      if (cur.exact || cur.latch != piece.latch) {
        piece.latch->UnlockWrite();
        return false;
      }
      const size_t cut = Partition(cur.begin, cur.end, pivot, cfg);
      InsertBoundary(pivot, cut);
      stats_.worker_cracks.fetch_add(1, std::memory_order_relaxed);
      piece.latch->UnlockWrite();
    }
    // Merge any pending updates that the refined pieces cover; uses the
    // column write latch, so it happens outside the read-guarded section.
    MergePendingAround(pivot);
    return true;
  }

  // ---------------------------------------------------------------------
  // Quiescent access (tests, single-threaded tools)
  // ---------------------------------------------------------------------

  /// Unsynchronized value access. Callers must guarantee quiescence (tests,
  /// single-threaded tools); concurrent cracks may reorder rows under you.
  T ValueAtUnsafe(size_t pos) const { return values_[pos]; }
  /// Unsynchronized payload access (same caveat as ValueAtUnsafe). Inside
  /// a select visitor the positions of the visited run are latched, so
  /// payload reads at run.pos + i are safe there.
  int64_t PayloadAtUnsafe(size_t payload_idx, size_t pos) const {
    return payloads_[payload_idx][pos];
  }

  // ---------------------------------------------------------------------
  // Updates (Ripple, [28])
  // ---------------------------------------------------------------------

  /// Merges every pending insert/delete whose value lies in [low, high)
  /// (an absent \p high is the open top) into the cracker column without
  /// invalidating any boundary.
  void MergePendingInRange(T low, std::optional<T> high) {
    // Cheap peek outside the column latch: long-lived out-of-range
    // entries must not force every select onto the exclusive path.
    if (!pending_.AnyInRange(low, high)) return;
    // Take the exclusive column latch BEFORE draining the queues. Items
    // must never sit outside both the queue and the column while readers
    // can run: a concurrent query would see empty queues, early-return
    // here, and count without the in-flight rows (lost-update window).
    WriteGuard column_guard(column_latch_);
    std::unique_lock<std::shared_mutex> lk(tree_mu_);
    ApplyTakenLocked(pending_.TakeInsertsInRange(low, high),
                     pending_.TakeDeletesInRange(low, high));
  }

  /// Piece-resolution cardinality estimate for [low, high), used by the
  /// multi-predicate planner to order conjuncts by selectivity. Never
  /// cracks and never merges pending updates: it reads the existing
  /// boundary tree only, returning the span from the start of the piece
  /// containing \p low to the end of the piece containing \p high — or
  /// to the end of the column for the open top (an upper bound that
  /// tightens as the index refines; exact once both bounds are boundaries).
  size_t EstimateRange(T low, std::optional<T> high) const {
    ReadGuard column_guard(column_latch_);
    std::shared_lock<std::shared_mutex> lk(tree_mu_);
    const size_t n = size();
    if (n == 0) return 0;
    const size_t begin = index_.FindPiece(low, n).begin;
    size_t end = n;
    if (high) {
      const PieceRef<T> hi_piece = index_.FindPiece(*high, n);
      // An exact boundary at the exclusive high makes the estimate exact
      // on that side.
      end = hi_piece.exact ? hi_piece.begin : hi_piece.end;
    }
    return end > begin ? end - begin : 0;
  }

  /// Suggests a refinement pivot inside the biggest (or smallest) piece.
  /// This is the O(#pieces) bookkeeping scan the paper's "Index
  /// Refinement" discussion warns about; exposed so the pivot-policy
  /// ablation can measure the trade-off. Returns a data-driven value from
  /// inside the chosen piece, or nullopt when no piece is crackable.
  /// \param biggest    true = largest piece, false = smallest (size >= 2).
  /// \param rng        position sampler within the chosen piece.
  /// \param min_piece  ignore pieces smaller than this many rows.
  std::optional<T> SuggestExtremePiecePivot(bool biggest, Rng& rng,
                                            size_t min_piece = 2) const {
    ReadGuard column_guard(column_latch_);
    std::shared_lock<std::shared_mutex> lk(tree_mu_);
    size_t best_begin = 0, best_end = 0;
    bool found = false;
    size_t prev = 0;
    auto consider = [&](size_t lo, size_t hi) {
      const size_t len = hi - lo;
      if (len < std::max<size_t>(2, min_piece)) return;
      const size_t best_len = best_end - best_begin;
      if (!found || (biggest ? len > best_len : len < best_len)) {
        best_begin = lo;
        best_end = hi;
        found = true;
      }
    };
    index_.ForEachBoundary([&](const typename CrackerIndex<T>::Node& n) {
      consider(prev, n.pos);
      prev = n.pos;
    });
    consider(prev, size());
    if (!found) return std::nullopt;
    const size_t probe =
        best_begin + rng.Below(static_cast<uint64_t>(best_end - best_begin));
    return values_[probe];
  }

  /// Boundary (value, position) pairs in ascending value order — the
  /// warm-start payload a checkpoint persists (the values only). A
  /// boundary's position is a pure function of the column multiset
  /// (#{x : x < value}), so re-cracking a restored column at these values
  /// reproduces the boundaries bit-identically in any crack order, and a
  /// later Ripple merge keeps them so. Recovery cracks median-first
  /// (O(n log p) rows moved) and merges the update history afterwards.
  std::vector<std::pair<T, size_t>> ExportBoundaries() const {
    ReadGuard column_guard(column_latch_);
    std::shared_lock<std::shared_mutex> lk(tree_mu_);
    std::vector<std::pair<T, size_t>> out;
    out.reserve(num_boundaries_.load(std::memory_order_relaxed));
    index_.ForEachBoundary([&](const typename CrackerIndex<T>::Node& n) {
      out.emplace_back(n.value, n.pos);
    });
    return out;
  }

  /// Pieces of diagnostics: piece sizes in position order.
  std::vector<size_t> PieceSizes() const {
    ReadGuard column_guard(column_latch_);
    std::shared_lock<std::shared_mutex> lk(tree_mu_);
    std::vector<size_t> sizes;
    size_t prev = 0;
    index_.ForEachBoundary([&](const typename CrackerIndex<T>::Node& n) {
      sizes.push_back(n.pos - prev);
      prev = n.pos;
    });
    sizes.push_back(size() - prev);
    return sizes;
  }

  /// Verifies the cracker invariant: every piece only holds values within
  /// its boundary range, and boundary positions are monotone. O(N).
  /// \return true when consistent. Test/debug helper.
  bool CheckInvariants() const {
    ReadGuard column_guard(column_latch_);
    std::shared_lock<std::shared_mutex> lk(tree_mu_);
    size_t prev_pos = 0;
    std::optional<T> prev_val;
    bool ok = true;
    auto check_piece = [&](size_t lo, size_t hi, std::optional<T> lo_v,
                           std::optional<T> hi_v) {
      for (size_t i = lo; i < hi; ++i) {
        if (lo_v && KeyTraits<T>::Less(values_[i], *lo_v)) ok = false;
        if (hi_v && !KeyTraits<T>::Less(values_[i], *hi_v)) ok = false;
      }
    };
    std::optional<T> lo_v;
    index_.ForEachBoundary([&](const typename CrackerIndex<T>::Node& n) {
      if (n.pos < prev_pos) ok = false;
      if (prev_val && !KeyTraits<T>::Less(*prev_val, n.value)) ok = false;
      check_piece(prev_pos, n.pos, lo_v, n.value);
      prev_pos = n.pos;
      lo_v = n.value;
      prev_val = n.value;
    });
    check_piece(prev_pos, size(), lo_v, std::nullopt);
    return ok;
  }

 private:
  /// The positions of [low, high) under the caller's column read latch.
  PositionRange CrackRangeLatched(T low, std::optional<T> high,
                                  const CrackConfig& cfg) {
    // Exact hit: both bounds already are boundaries -> no reorganization.
    {
      std::shared_lock<std::shared_mutex> lk(tree_mu_);
      if (index_.HasBoundary(low) && (!high || index_.HasBoundary(*high))) {
        const size_t b = index_.FindPiece(low, size()).begin;
        const size_t e = high ? index_.FindPiece(*high, size()).begin : size();
        stats_.exact_hits.fetch_add(1, std::memory_order_relaxed);
        return {b, e};
      }
    }
    // Two two-way cracks, also when both bounds share one piece: the
    // vectorized kernels beat a scalar three-way pass, and the second crack
    // only touches the piece that holds `high` after the first.
    const size_t b = CrackAtBlocking(low, cfg);
    const size_t e = high ? CrackAtBlocking(*high, cfg) : size();
    return {b, e};
  }

  /// Hands \p range to \p visit piece by piece, each run under its piece's
  /// read latch so concurrent cracks of the same pieces cannot tear rows.
  /// The caller holds the column read latch the range was selected under.
  template <typename Visit>
  void VisitLatched(PositionRange range, Visit& visit) const {
    if (range.empty()) return;
    const uint64_t nbytes =
        static_cast<uint64_t>(range.size()) * (sizeof(T) + sizeof(RowId));
    static obs::Counter& scan_bytes =
        obs::MetricsRegistry::Global().GetCounter("holix_scan_bytes_total");
    scan_bytes.Inc(nbytes);
    obs::TraceAddBytesScanned(nbytes);
    size_t pos = range.begin;
    while (pos < range.end) {
      PieceRef<T> piece;
      {
        std::shared_lock<std::shared_mutex> lk(tree_mu_);
        piece = index_.FindPieceByPosition(pos, size());
      }
      piece.latch->LockRead();
      // Revalidate: the piece may have been split between lookup and latch
      // acquisition, in which case positions past the new cut belong to a
      // different latch and must not be read under this one.
      PieceRef<T> cur;
      {
        std::shared_lock<std::shared_mutex> lk(tree_mu_);
        cur = index_.FindPieceByPosition(pos, size());
      }
      if (cur.latch != piece.latch) {
        piece.latch->UnlockRead();
        continue;
      }
      const size_t stop = std::min(range.end, cur.end);
      visit(RowRun<T>{values_.data() + pos, rowids_.data() + pos, stop - pos,
                      pos, range.size()});
      piece.latch->UnlockRead();
      pos = stop;
    }
  }

  /// Ripple-applies already-extracted pending entries. The caller holds the
  /// column write latch and the unique tree lock.
  void ApplyTakenLocked(std::vector<std::pair<T, RowId>> ins,
                        std::vector<std::pair<T, RowId>> del) {
    if (ins.empty() && del.empty()) return;
    auto nodes = index_.CollectBoundaries();
    for (const auto& [v, rid] : ins) RippleInsert(nodes, v, rid);
    for (const auto& [v, rid] : del) RippleDelete(nodes, v, rid);
    stats_.merged_inserts.fetch_add(ins.size(), std::memory_order_relaxed);
    stats_.merged_deletes.fetch_add(del.size(), std::memory_order_relaxed);
    static obs::Counter& ripple_ins = obs::MetricsRegistry::Global().GetCounter(
        "holix_ripple_merged_inserts_total");
    static obs::Counter& ripple_del = obs::MetricsRegistry::Global().GetCounter(
        "holix_ripple_merged_deletes_total");
    ripple_ins.Inc(ins.size());
    ripple_del.Inc(del.size());
  }

  void InitDomain() {
    row_count_.store(values_.size(), std::memory_order_relaxed);
    if (!values_.empty()) {
      auto [mn, mx] = std::minmax_element(
          values_.begin(), values_.end(),
          [](T a, T b) { return KeyTraits<T>::Less(a, b); });
      min_value_.store(KeyTraits<T>::Canonical(*mn), std::memory_order_relaxed);
      max_value_.store(KeyTraits<T>::Canonical(*mx), std::memory_order_relaxed);
    }
  }

  PieceRef<T> LookupPiece(T w) const {
    std::shared_lock<std::shared_mutex> lk(tree_mu_);
    return index_.FindPiece(w, size());
  }

  /// Partitions [begin, end) at \p pivot while the caller holds the
  /// piece's write latch. The kernel follows from what the column can
  /// observe: aligned payloads need the scalar kernel (it co-moves payload
  /// rows); a pool with more than one thread gets the morsel-parallel
  /// kernel (which itself falls back to SIMD below min_parallel_piece);
  /// everything else the SIMD kernel, whose portable tier is the
  /// out-of-place kernel, byte for byte.
  size_t Partition(size_t begin, size_t end, T pivot,
                   const CrackConfig& cfg) {
    CountCrackKernel(begin, end);
    if (!payloads_.empty()) {
      return CrackInTwoScalar(values_.data(), begin, end, pivot,
                              [this](size_t i, size_t j) { SwapRows(i, j); });
    }
    if (cfg.pool != nullptr && cfg.parallel_threads > 1) {
      ParallelCrackOptions opts;
      opts.threads = cfg.parallel_threads;
      opts.min_parallel_piece = cfg.min_parallel_piece;
      opts.morsel_rows = cfg.morsel_rows;
      return ParallelCrackInTwo(values_.data(), rowids_.data(), begin, end,
                                pivot, *cfg.pool, opts);
    }
    return CrackInTwoSimd(values_.data(), rowids_.data(), begin, end, pivot,
                          ThreadLocalCrackScratch<T>());
  }

  void SwapRows(size_t i, size_t j) {
    std::swap(values_[i], values_[j]);
    std::swap(rowids_[i], rowids_[j]);
    for (auto& p : payloads_) std::swap(p[i], p[j]);
  }

  void InsertBoundary(T value, size_t pos) {
    {
      std::unique_lock<std::shared_mutex> lk(tree_mu_);
      index_.Insert(value, pos);
      num_boundaries_.store(index_.num_boundaries(),
                            std::memory_order_relaxed);
    }
    static obs::Counter& pieces = obs::MetricsRegistry::Global().GetCounter(
        "holix_pieces_created_total");
    pieces.Inc();
    obs::TraceAddPiecesCreated(1);
  }

  static void CountCrackKernel(size_t begin, size_t end) {
    static obs::Counter& cracks =
        obs::MetricsRegistry::Global().GetCounter("holix_cracks_total");
    static obs::Counter& moved = obs::MetricsRegistry::Global().GetCounter(
        "holix_crack_bytes_moved_total");
    cracks.Inc();
    moved.Inc(static_cast<uint64_t>(end - begin) *
              (sizeof(T) + sizeof(RowId)));
  }

  /// Merges pending updates covering the piece around \p pivot (worker
  /// side-job). Cheap when the pending queues are empty.
  void MergePendingAround(T pivot) {
    if (pending_.PendingInserts() == 0 && pending_.PendingDeletes() == 0)
      return;
    std::optional<T> lo_v, hi_v;
    {
      std::shared_lock<std::shared_mutex> lk(tree_mu_);
      const PieceRef<T> piece = index_.FindPiece(pivot, size());
      lo_v = piece.lo_value;
      hi_v = piece.hi_value;
    }
    // The tail piece has no upper boundary: it runs through the top.
    MergePendingInRange(lo_v.value_or(KeyTraits<T>::Lowest()), hi_v);
  }

  /// Ripple-inserts (v, rid), keeping every boundary valid. The caller
  /// holds the column write latch and the unique tree lock; \p nodes is the
  /// boundary list in ascending value order (positions updated in place).
  void RippleInsert(std::vector<typename CrackerIndex<T>::Node*>& nodes,
                    T v, RowId rid) {
    if (!payloads_.empty()) {
      throw std::logic_error("updates unsupported on payload-aligned column");
    }
    // Index of the first boundary whose value is > v: the target piece ends
    // at that boundary's position.
    size_t j = nodes.size();
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (KeyTraits<T>::Less(v, nodes[i]->value)) {
        j = i;
        break;
      }
    }
    values_.push_back(v);
    rowids_.push_back(rid);
    size_t hole = values_.size() - 1;
    for (size_t i = nodes.size(); i-- > j;) {
      const size_t p = nodes[i]->pos;
      values_[hole] = values_[p];
      rowids_[hole] = rowids_[p];
      hole = p;
      nodes[i]->pos = p + 1;
    }
    values_[hole] = v;
    rowids_[hole] = rid;
    row_count_.store(values_.size(), std::memory_order_relaxed);
    if (values_.size() == 1) {
      // First row of a column loaded empty: seed the domain rather than
      // widening from the T{} sentinel.
      min_value_.store(v, std::memory_order_relaxed);
      max_value_.store(v, std::memory_order_relaxed);
    } else {
      if (KeyTraits<T>::Less(v, min_value_.load(std::memory_order_relaxed)))
        min_value_.store(v, std::memory_order_relaxed);
      if (KeyTraits<T>::Less(max_value_.load(std::memory_order_relaxed), v))
        max_value_.store(v, std::memory_order_relaxed);
    }
  }

  /// Ripple-deletes the row (v, rid). Returns silently when absent (the
  /// value may never have existed or was already deleted).
  void RippleDelete(std::vector<typename CrackerIndex<T>::Node*>& nodes,
                    T v, RowId rid) {
    if (values_.empty()) return;
    size_t j = nodes.size();
    size_t begin = 0;
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (KeyTraits<T>::Less(v, nodes[i]->value)) {
        j = i;
        break;
      }
      begin = nodes[i]->pos;
    }
    const size_t end = j < nodes.size() ? nodes[j]->pos : values_.size();
    size_t found = end;
    for (size_t i = begin; i < end; ++i) {
      if (KeyTraits<T>::Eq(values_[i], v) && rowids_[i] == rid) {
        found = i;
        break;
      }
    }
    if (found == end) return;  // not materialized
    // Fill the hole with the target piece's last row, then bubble the hole
    // upward one piece at a time.
    values_[found] = values_[end - 1];
    rowids_[found] = rowids_[end - 1];
    size_t hole = end - 1;
    for (size_t i = j; i < nodes.size(); ++i) {
      const size_t piece_end =
          (i + 1 < nodes.size()) ? nodes[i + 1]->pos : values_.size();
      values_[hole] = values_[piece_end - 1];
      rowids_[hole] = rowids_[piece_end - 1];
      nodes[i]->pos = nodes[i]->pos - 1;
      hole = piece_end - 1;
    }
    values_.pop_back();
    rowids_.pop_back();
    row_count_.store(values_.size(), std::memory_order_relaxed);
  }

  std::string name_;
  std::vector<T> values_;
  std::vector<RowId> rowids_;
  std::vector<std::vector<int64_t>> payloads_;

  CrackerIndex<T> index_;
  mutable std::shared_mutex tree_mu_;
  mutable RwSpinLatch column_latch_;
  std::atomic<size_t> num_boundaries_{0};
  std::atomic<size_t> row_count_{0};

  PendingUpdates<T> pending_;
  CrackStats stats_;
  std::atomic<T> min_value_{};
  std::atomic<T> max_value_{};
};

using Int32CrackerColumn = CrackerColumn<int32_t>;
using Int64CrackerColumn = CrackerColumn<int64_t>;
using DoubleCrackerColumn = CrackerColumn<double>;

}  // namespace holix
