#include "persist/persistence.h"

#include <sys/stat.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>

#include "engine/database.h"
#include "obs/metrics.h"

namespace holix::persist {

namespace {

obs::Counter& CheckpointsTotal() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("holix_checkpoints_total");
  return c;
}

obs::Histogram& CheckpointSeconds() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "holix_checkpoint_seconds", {0.001, 0.01, 0.1, 1.0, 10.0, 60.0});
  return h;
}

obs::Counter& ReplayedRecords() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "holix_wal_replayed_records_total");
  return c;
}

obs::Counter& RecoveredColumns() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "holix_recovery_columns_total");
  return c;
}

obs::Counter& RecoveredPivots() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "holix_recovery_pivots_total");
  return c;
}

obs::Histogram& RecoverySeconds() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "holix_recovery_seconds", {0.001, 0.01, 0.1, 1.0, 10.0, 60.0});
  return h;
}

/// One recovery phase's wall time: snapshot_read, restore, wal_replay,
/// recrack or merge. Each recovery observes every phase exactly once.
void ObserveRecoveryPhase(const char* phase, double seconds) {
  obs::MetricsRegistry::Global()
      .GetHistogram(std::string("holix_recovery_phase_seconds{phase=\"") +
                        phase + "\"}",
                    {0.001, 0.01, 0.1, 1.0, 10.0, 60.0})
      .Observe(seconds);
}

double SecondsSince(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t)
      .count();
}

}  // namespace

PersistenceManager::PersistenceManager(Database& db, PersistOptions opts)
    : db_(db), opts_(std::move(opts)) {
  if (opts_.data_dir.empty()) {
    throw std::invalid_argument("PersistOptions::data_dir must be set");
  }
  if (::mkdir(opts_.data_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    throw std::runtime_error("mkdir " + opts_.data_dir + ": " +
                             std::strerror(errno));
  }

  uint64_t first_lsn = 1;
  if (persist::HasManifest(opts_.data_dir)) {
    Recover();
    first_lsn = recovered_lsn_ + 1;
  }
  // Append to a fresh WAL epoch: never to an existing file, whose tail
  // may be torn — records behind a torn tail would be unreachable.
  const std::vector<uint64_t> epochs = ListWalEpochs(opts_.data_dir);
  wal_epoch_ = (epochs.empty() ? 0 : epochs.back()) + 1;
  if (wal_epoch_ <= snapshot_epoch_) wal_epoch_ = snapshot_epoch_ + 1;
  wal_ = std::make_unique<WalWriter>(WalPath(opts_.data_dir, wal_epoch_),
                                     opts_.fsync, first_lsn);
  db_.SetDurabilityHook(this);

  if (opts_.fsync == FsyncPolicy::kInterval ||
      opts_.checkpoint_interval_seconds > 0) {
    background_ = std::thread([this] { BackgroundLoop(); });
  }
}

PersistenceManager::~PersistenceManager() {
  db_.SetDurabilityHook(nullptr);
  {
    std::lock_guard<std::mutex> lock(bg_mu_);
    stop_ = true;
  }
  bg_cv_.notify_all();
  if (background_.joinable()) background_.join();
  if (wal_ != nullptr) wal_->SyncNow();
}

uint64_t PersistenceManager::LogUpdate(WalOp op, const std::string& table,
                                       const std::string& column,
                                       ValueType type, uint64_t rank,
                                       RowId rid) {
  return wal_->Append(op, table, column, type, rank, rid);
}

uint64_t PersistenceManager::Checkpoint() {
  const auto start = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> ck(checkpoint_mu_);

  // Export under the database's update barrier; rotate the WAL inside the
  // same critical section so no update can slip between the state cut and
  // the epoch boundary (its record would land in a file the new manifest
  // no longer replays).
  const uint64_t new_wal_epoch = wal_epoch_ + 1;
  std::unique_ptr<WalWriter> old_wal;
  uint64_t cut_next_lsn = 1;
  DurableDatabaseState state = db_.ExportDurableState([&] {
    cut_next_lsn = wal_->next_lsn();
    old_wal = std::move(wal_);
    old_wal->SyncNow(/*force=*/true);
    wal_ = std::make_unique<WalWriter>(WalPath(opts_.data_dir, new_wal_epoch),
                                       opts_.fsync, cut_next_lsn);
  });
  state.last_lsn = cut_next_lsn - 1;
  wal_epoch_ = new_wal_epoch;
  old_wal.reset();

  const uint64_t new_epoch = snapshot_epoch_ + 1;
  WriteSnapshot(opts_.data_dir, new_epoch, wal_epoch_, state);
  snapshot_epoch_ = new_epoch;
  last_checkpoint_lsn_.store(state.last_lsn, std::memory_order_relaxed);

  Manifest man;
  man.snapshot_epoch = snapshot_epoch_;
  man.wal_epoch = wal_epoch_;
  GarbageCollect(opts_.data_dir, man);

  CheckpointsTotal().Inc();
  CheckpointSeconds().Observe(SecondsSince(start));
  return state.last_lsn;
}

void PersistenceManager::Recover() {
  const auto start = std::chrono::steady_clock::now();
  const Manifest man = ReadManifest(opts_.data_dir);
  DurableDatabaseState state = ReadSnapshot(opts_.data_dir, man);
  snapshot_epoch_ = man.snapshot_epoch;
  ObserveRecoveryPhase("snapshot_read", SecondsSince(start));

  auto phase_start = std::chrono::steady_clock::now();
  db_.BeginRestore(state);
  ObserveRecoveryPhase("restore", SecondsSince(phase_start));

  // Replay every WAL epoch the manifest still covers, in epoch order.
  // Records at or below the checkpoint LSN are already in the snapshot; a
  // torn tail ends one epoch's intact prefix, but later epochs (written
  // after a post-crash restart) still replay.
  phase_start = std::chrono::steady_clock::now();
  uint64_t last = man.last_lsn;
  uint64_t replayed = 0;
  for (uint64_t epoch : ListWalEpochs(opts_.data_dir)) {
    if (epoch < man.wal_epoch) continue;
    for (const WalRecord& rec : ReadWalFile(WalPath(opts_.data_dir, epoch))) {
      if (rec.lsn <= man.last_lsn) continue;
      db_.ApplyLoggedUpdate(rec.op, rec.table, rec.column, rec.type,
                            rec.rank, rec.rowid);
      if (rec.lsn > last) last = rec.lsn;
      ++replayed;
    }
  }
  ReplayedRecords().Inc(replayed);
  ObserveRecoveryPhase("wal_replay", SecondsSince(phase_start));

  const RestoreTimings finish = db_.FinishRestore(state);
  ObserveRecoveryPhase("recrack", finish.recrack_seconds);
  ObserveRecoveryPhase("merge", finish.merge_seconds);
  recovered_ = true;
  recovered_lsn_ = last;
  last_checkpoint_lsn_.store(man.last_lsn, std::memory_order_relaxed);

  RecoveredColumns().Inc(state.columns.size());
  for (const DurableColumnState& cs : state.columns) {
    RecoveredPivots().Inc(cs.pivot_ranks.size());
  }
  RecoverySeconds().Observe(SecondsSince(start));
}

void PersistenceManager::BackgroundLoop() {
  using clock = std::chrono::steady_clock;
  const auto fsync_every =
      std::chrono::duration<double>(opts_.fsync_interval_seconds);
  const auto ckpt_every =
      std::chrono::duration<double>(opts_.checkpoint_interval_seconds);
  auto next_ckpt = clock::now() + std::chrono::duration_cast<clock::duration>(
                                      ckpt_every);
  std::unique_lock<std::mutex> lock(bg_mu_);
  while (!stop_) {
    auto wake = opts_.fsync == FsyncPolicy::kInterval
                    ? clock::now() +
                          std::chrono::duration_cast<clock::duration>(
                              fsync_every)
                    : next_ckpt;
    if (opts_.checkpoint_interval_seconds > 0 && next_ckpt < wake) {
      wake = next_ckpt;
    }
    bg_cv_.wait_until(lock, wake, [this] { return stop_; });
    if (stop_) break;
    lock.unlock();
    if (opts_.fsync == FsyncPolicy::kInterval) {
      try {
        wal_->SyncNow();
      } catch (const std::exception&) {
        // The next Append on a failed log throws to its caller.
      }
    }
    if (opts_.checkpoint_interval_seconds > 0 && clock::now() >= next_ckpt) {
      try {
        Checkpoint();
      } catch (const std::exception&) {
        // Background checkpoints are best-effort; a failed one leaves the
        // previous manifest in force and will be retried next interval.
      }
      next_ckpt = clock::now() + std::chrono::duration_cast<clock::duration>(
                                     ckpt_every);
    }
    lock.lock();
  }
}

}  // namespace holix::persist
