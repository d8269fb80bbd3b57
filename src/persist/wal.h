/// \file wal.h
/// \brief The pending-update write-ahead log: append-only, CRC-per-record,
/// group-committed, epoch-rotated at checkpoints.
///
/// ## File format (`wal-<epoch>.log`)
///
///   header:  "HOLIXWAL" (8) | u32 version | u32 reserved
///   record:  u32 body_len | u32 crc32c(body) | body
///   body:    u64 lsn | u8 op | u8 value_type | str table | str column |
///            u64 rowid | u64 key_rank
///
/// All integers little-endian (persist/serde.h); strings u16
/// length-prefixed. A reader stops at the first record whose length or
/// CRC does not check out — that is the torn tail left by a crash, and
/// everything before it is intact (records are appended in LSN order
/// under one mutex, so prefix = LSN prefix).
///
/// ## Group commit
///
/// `Append` serializes and writes the record under the log mutex and
/// assigns the LSN there, so file order always equals LSN order. With
/// policy `kAlways`, `Append` then waits until an fsync covering its LSN
/// has completed — concurrent appenders piggyback on one fsync (the
/// classic group commit). `kInterval` leaves syncing to the owner's
/// background thread calling `SyncNow`; `kNever` never syncs (the OS
/// flushes eventually; kill -9 may lose the unsynced suffix, which is
/// exactly the durability the user traded away).

#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "engine/durability.h"

namespace holix::persist {

/// When WAL appends are made durable.
enum class FsyncPolicy : uint8_t {
  kAlways,    ///< every append waits for an fsync covering its LSN
  kInterval,  ///< a background thread fsyncs periodically
  kNever,     ///< never fsync (OS page cache only)
};

/// Parses "always" | "interval" | "never"; nullopt otherwise.
std::optional<FsyncPolicy> FsyncPolicyFromString(const std::string& s);

/// Printable name of a policy.
const char* FsyncPolicyName(FsyncPolicy p);

/// One decoded WAL record.
struct WalRecord {
  uint64_t lsn = 0;
  WalOp op = WalOp::kInsert;
  ValueType type = ValueType::kInt64;
  std::string table;
  std::string column;
  RowId rowid = 0;
  uint64_t rank = 0;
};

/// Append side of one WAL epoch file.
class WalWriter {
 public:
  /// Opens (creates or appends to) \p path. \p first_lsn is the LSN the
  /// next appended record receives. Throws std::runtime_error on I/O
  /// failure.
  WalWriter(std::string path, FsyncPolicy policy, uint64_t first_lsn);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one record (LSN assigned here) and, under kAlways, waits for
  /// it to be durable. Throws std::runtime_error when the write or the
  /// fsync fails (an injected fault surfaces here as well).
  uint64_t Append(WalOp op, const std::string& table,
                  const std::string& column, ValueType type, uint64_t rank,
                  RowId rid);

  /// Fsyncs everything appended so far (kInterval background thread; also
  /// used for a final flush at shutdown). No-op under kNever unless
  /// \p force.
  void SyncNow(bool force = false);

  /// LSN the next append will receive.
  uint64_t next_lsn() const;

  const std::string& path() const { return path_; }

 private:
  void SyncCoveringLocked(std::unique_lock<std::mutex>& lock, uint64_t lsn);

  const std::string path_;
  const FsyncPolicy policy_;
  int fd_ = -1;

  mutable std::mutex mu_;
  std::condition_variable sync_cv_;
  uint64_t next_lsn_;
  uint64_t appended_lsn_ = 0;  // highest LSN written to the fd
  uint64_t synced_lsn_ = 0;    // highest LSN known durable
  bool sync_in_progress_ = false;
  bool io_failed_ = false;
};

/// Reads every intact record of \p path in file (= LSN) order, stopping
/// silently at a torn tail. \p torn_tail (optional) reports whether a
/// partial/corrupt record was detected. Returns an empty vector when the
/// file does not exist or holds only a prefix of the header (a crash while
/// the file was being created; reported as torn). Throws
/// std::runtime_error when the header is unreadable or from the wrong
/// magic/version (that is corruption of data we believed durable, not a
/// torn tail).
std::vector<WalRecord> ReadWalFile(const std::string& path,
                                   bool* torn_tail = nullptr);

}  // namespace holix::persist
