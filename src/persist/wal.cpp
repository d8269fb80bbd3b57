#include "persist/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "obs/metrics.h"
#include "persist/checksum.h"
#include "persist/io_shim.h"
#include "persist/serde.h"

namespace holix::persist {

namespace {

constexpr char kWalMagic[8] = {'H', 'O', 'L', 'I', 'X', 'W', 'A', 'L'};
constexpr uint32_t kWalVersion = 1;

[[noreturn]] void ThrowErrno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

obs::Counter& RecordsCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("holix_wal_records_total");
  return c;
}

obs::Counter& BytesCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("holix_wal_bytes_total");
  return c;
}

obs::Counter& FsyncCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("holix_wal_fsyncs_total");
  return c;
}

obs::Histogram& AppendSeconds() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "holix_wal_append_seconds",
      {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0});
  return h;
}

}  // namespace

std::optional<FsyncPolicy> FsyncPolicyFromString(const std::string& s) {
  if (s == "always") return FsyncPolicy::kAlways;
  if (s == "interval") return FsyncPolicy::kInterval;
  if (s == "never") return FsyncPolicy::kNever;
  return std::nullopt;
}

const char* FsyncPolicyName(FsyncPolicy p) {
  switch (p) {
    case FsyncPolicy::kAlways:
      return "always";
    case FsyncPolicy::kInterval:
      return "interval";
    case FsyncPolicy::kNever:
      return "never";
  }
  return "?";
}

WalWriter::WalWriter(std::string path, FsyncPolicy policy, uint64_t first_lsn)
    : path_(std::move(path)), policy_(policy), next_lsn_(first_lsn) {
  const bool existed = ::access(path_.c_str(), F_OK) == 0;
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) ThrowErrno("wal open " + path_);
  if (!existed) {
    ByteWriter w;
    w.bytes().insert(w.bytes().end(), kWalMagic, kWalMagic + sizeof(kWalMagic));
    w.PutU32(kWalVersion);
    w.PutU32(0);
    if (!io::FullWrite(fd_, w.bytes().data(), w.size()) ||
        !io::Fsync(fd_)) {
      const int saved = errno;
      ::close(fd_);
      fd_ = -1;
      errno = saved;
      ThrowErrno("wal header write " + path_);
    }
  }
  appended_lsn_ = first_lsn == 0 ? 0 : first_lsn - 1;
  synced_lsn_ = appended_lsn_;
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) {
    // Best-effort final flush; shutdown must not throw.
    if (policy_ != FsyncPolicy::kNever) io::Fsync(fd_);
    ::close(fd_);
  }
}

uint64_t WalWriter::Append(WalOp op, const std::string& table,
                          const std::string& column, ValueType type,
                          uint64_t rank, RowId rid) {
  const auto start = std::chrono::steady_clock::now();
  ByteWriter body;
  // LSN is assigned under the mutex below; serialize everything after it
  // first and patch the LSN bytes in, so the lock covers only the
  // assignment and the write.
  body.PutU64(0);  // lsn placeholder
  body.PutU8(static_cast<uint8_t>(op));
  body.PutU8(static_cast<uint8_t>(type));
  body.PutString(table);
  body.PutString(column);
  body.PutU64(rid);
  body.PutU64(rank);

  uint64_t lsn = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (io_failed_) throw std::runtime_error("wal: previous append failed");
    lsn = next_lsn_++;
    for (int i = 0; i < 8; ++i) {
      body.bytes()[static_cast<size_t>(i)] =
          static_cast<uint8_t>(lsn >> (8 * i));
    }
    ByteWriter frame;
    frame.PutU32(static_cast<uint32_t>(body.size()));
    frame.PutU32(Crc32c(body.bytes().data(), body.size()));
    frame.bytes().insert(frame.bytes().end(), body.bytes().begin(),
                         body.bytes().end());
    if (!io::FullWrite(fd_, frame.bytes().data(), frame.size())) {
      io_failed_ = true;
      ThrowErrno("wal append " + path_);
    }
    appended_lsn_ = lsn;
    RecordsCounter().Inc();
    BytesCounter().Inc(frame.size());
    if (policy_ == FsyncPolicy::kAlways) SyncCoveringLocked(lock, lsn);
  }
  AppendSeconds().Observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
  return lsn;
}

/// Group commit: wait until some thread's fsync covers \p lsn. The thread
/// that finds no fsync in progress becomes the syncer for everything
/// appended so far; later arrivals wait and usually find their LSN
/// already covered when the syncer finishes.
void WalWriter::SyncCoveringLocked(std::unique_lock<std::mutex>& lock,
                                   uint64_t lsn) {
  while (synced_lsn_ < lsn) {
    if (io_failed_) throw std::runtime_error("wal: fsync failed");
    if (sync_in_progress_) {
      sync_cv_.wait(lock);
      continue;
    }
    sync_in_progress_ = true;
    const uint64_t covered = appended_lsn_;
    lock.unlock();
    const bool ok = io::Fsync(fd_);
    lock.lock();
    sync_in_progress_ = false;
    if (!ok) {
      io_failed_ = true;
      sync_cv_.notify_all();
      ThrowErrno("wal fsync " + path_);
    }
    FsyncCounter().Inc();
    if (covered > synced_lsn_) synced_lsn_ = covered;
    sync_cv_.notify_all();
  }
}

void WalWriter::SyncNow(bool force) {
  if (policy_ == FsyncPolicy::kNever && !force) return;
  std::unique_lock<std::mutex> lock(mu_);
  if (appended_lsn_ <= synced_lsn_ || io_failed_) return;
  SyncCoveringLocked(lock, appended_lsn_);
}

uint64_t WalWriter::next_lsn() const {
  std::unique_lock<std::mutex> lock(mu_);
  return next_lsn_;
}

std::vector<WalRecord> ReadWalFile(const std::string& path, bool* torn_tail) {
  if (torn_tail != nullptr) *torn_tail = false;
  std::vector<WalRecord> out;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return out;
    ThrowErrno("wal open " + path);
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    ThrowErrno("wal stat " + path);
  }
  std::vector<uint8_t> data(static_cast<size_t>(st.st_size));
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::read(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      errno = saved;
      ThrowErrno("wal read " + path);
    }
    if (n == 0) break;
    off += static_cast<size_t>(n);
  }
  ::close(fd);
  data.resize(off);

  constexpr size_t kHeaderSize = sizeof(kWalMagic) + 8;
  // A crash between creating an epoch's file and making its header durable
  // leaves a prefix of the header, often nothing at all. No record can
  // follow a header that never became durable: the log is empty and torn.
  const size_t magic_seen = std::min(data.size(), sizeof(kWalMagic));
  if (data.size() < kHeaderSize &&
      std::equal(data.begin(), data.begin() + magic_seen, kWalMagic)) {
    if (torn_tail != nullptr) *torn_tail = true;
    return out;
  }
  if (data.size() < kHeaderSize ||
      std::memcmp(data.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    throw std::runtime_error("wal " + path + ": bad magic");
  }
  {
    ByteReader hdr(data.data() + sizeof(kWalMagic), 8);
    const uint32_t version = hdr.GetU32();
    if (version != kWalVersion) {
      throw std::runtime_error("wal " + path + ": unsupported version " +
                               std::to_string(version));
    }
  }

  size_t pos = kHeaderSize;
  while (pos + 8 <= data.size()) {
    ByteReader frame(data.data() + pos, data.size() - pos);
    const uint32_t body_len = frame.GetU32();
    const uint32_t crc = frame.GetU32();
    if (body_len == 0 || frame.remaining() < body_len) break;  // torn tail
    const uint8_t* body = data.data() + pos + 8;
    if (Crc32c(body, body_len) != crc) break;  // torn/corrupt tail
    try {
      ByteReader r(body, body_len);
      WalRecord rec;
      rec.lsn = r.GetU64();
      rec.op = static_cast<WalOp>(r.GetU8());
      rec.type = static_cast<ValueType>(r.GetU8());
      rec.table = r.GetString();
      rec.column = r.GetString();
      rec.rowid = r.GetU64();
      rec.rank = r.GetU64();
      if ((rec.op != WalOp::kInsert && rec.op != WalOp::kDelete) ||
          !r.AtEnd()) {
        break;
      }
      out.push_back(std::move(rec));
    } catch (const std::out_of_range&) {
      break;  // body shorter than its fields claim
    }
    pos += 8 + body_len;
  }
  if (torn_tail != nullptr && pos != data.size()) *torn_tail = true;
  return out;
}

}  // namespace holix::persist
