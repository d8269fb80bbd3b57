#include "persist/snapshot.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "obs/metrics.h"
#include "persist/checksum.h"
#include "persist/io_shim.h"
#include "persist/serde.h"

namespace holix::persist {

namespace {

constexpr char kColMagic[8] = {'H', 'O', 'L', 'I', 'X', 'C', 'O', 'L'};
constexpr char kManMagic[8] = {'H', 'O', 'L', 'I', 'X', 'M', 'A', 'N'};
constexpr uint32_t kSnapshotVersion = 1;

[[noreturn]] void ThrowErrno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

obs::Counter& CheckpointBytes() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "holix_checkpoint_bytes_total");
  return c;
}

/// Writes `magic | version | crc | body_len | body` to `path.tmp`, fsyncs,
/// renames into place. Throws on failure, leaving at most a .tmp behind.
/// \return the body's CRC32C (the header's crc field), so callers that
/// also record it elsewhere need not hash the body a second time.
uint32_t WriteFramedFile(const std::string& path, const char magic[8],
                         const std::vector<uint8_t>& body) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) ThrowErrno("snapshot open " + tmp);
  ByteWriter header;
  header.bytes().insert(header.bytes().end(), magic, magic + 8);
  header.PutU32(kSnapshotVersion);
  const uint32_t crc = Crc32c(body.data(), body.size());
  header.PutU32(crc);
  header.PutU64(body.size());
  bool ok = io::FullWrite(fd, header.bytes().data(), header.size()) &&
            io::FullWrite(fd, body.data(), body.size()) && io::Fsync(fd);
  const int saved = errno;
  ::close(fd);
  if (!ok) {
    ::unlink(tmp.c_str());
    errno = saved;
    ThrowErrno("snapshot write " + tmp);
  }
  if (!io::AtomicRename(tmp, path)) {
    const int rename_errno = errno;
    ::unlink(tmp.c_str());
    errno = rename_errno;
    ThrowErrno("snapshot rename " + tmp);
  }
  CheckpointBytes().Inc(header.size() + body.size());
  return crc;
}

/// A framed file's body and its CRC32C, already verified against the
/// frame header.
struct FramedBody {
  std::vector<uint8_t> bytes;
  uint32_t crc = 0;
};

/// Reads a framed file, validating magic, version, and CRC. The body is
/// hashed exactly once; callers compare the returned crc with any other
/// record of it (the manifest) instead of hashing again.
FramedBody ReadFramedFile(const std::string& path, const char magic[8]) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) ThrowErrno("snapshot open " + path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    ThrowErrno("snapshot stat " + path);
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
      ThrowErrno("snapshot read " + path);
    }
    if (n == 0) break;
    off += static_cast<size_t>(n);
  }
  ::close(fd);

  constexpr size_t kHeaderSize = 8 + 4 + 4 + 8;
  if (off < kHeaderSize || std::memcmp(data.data(), magic, 8) != 0) {
    throw std::runtime_error(path + ": bad magic");
  }
  ByteReader hdr(data.data() + 8, kHeaderSize - 8);
  const uint32_t version = hdr.GetU32();
  const uint32_t crc = hdr.GetU32();
  const uint64_t body_len = hdr.GetU64();
  if (version != kSnapshotVersion) {
    throw std::runtime_error(path + ": unsupported version " +
                             std::to_string(version));
  }
  if (off != kHeaderSize + body_len) {
    throw std::runtime_error(path + ": truncated (" + std::to_string(off) +
                             " bytes, expected " +
                             std::to_string(kHeaderSize + body_len) + ")");
  }
  FramedBody body;
  body.bytes.assign(data.begin() + kHeaderSize, data.begin() + off);
  body.crc = Crc32c(body.bytes.data(), body.bytes.size());
  if (body.crc != crc) {
    throw std::runtime_error(path + ": checksum mismatch");
  }
  return body;
}

std::vector<uint8_t> EncodeColumn(const DurableColumnState& cs) {
  ByteWriter w;
  w.PutString(cs.table);
  w.PutString(cs.column);
  w.PutU8(static_cast<uint8_t>(cs.type));
  w.PutU8(cs.has_cracker ? 1 : 0);
  w.PutU8(cs.store_state);
  w.PutU64(cs.base_ranks.size());
  for (uint64_t r : cs.base_ranks) w.PutU64(r);
  w.PutU64(cs.appended.size());
  for (const auto& [rid, rank] : cs.appended) {
    w.PutU64(rid);
    w.PutU64(rank);
  }
  w.PutU64(cs.deleted_base.size());
  for (const auto& [rid, rank] : cs.deleted_base) {
    w.PutU64(rid);
    w.PutU64(rank);
  }
  w.PutU64(cs.pivot_ranks.size());
  for (uint64_t r : cs.pivot_ranks) w.PutU64(r);
  for (uint64_t s : cs.stats) w.PutU64(s);
  return std::move(w.bytes());
}

DurableColumnState DecodeColumn(const std::vector<uint8_t>& body,
                                const std::string& path) {
  try {
    ByteReader r(body.data(), body.size());
    DurableColumnState cs;
    cs.table = r.GetString();
    cs.column = r.GetString();
    cs.type = static_cast<ValueType>(r.GetU8());
    cs.has_cracker = r.GetU8() != 0;
    cs.store_state = r.GetU8();
    cs.base_ranks.resize(r.GetU64());
    for (uint64_t& v : cs.base_ranks) v = r.GetU64();
    cs.appended.resize(r.GetU64());
    for (auto& [rid, rank] : cs.appended) {
      rid = r.GetU64();
      rank = r.GetU64();
    }
    cs.deleted_base.resize(r.GetU64());
    for (auto& [rid, rank] : cs.deleted_base) {
      rid = r.GetU64();
      rank = r.GetU64();
    }
    cs.pivot_ranks.resize(r.GetU64());
    for (uint64_t& v : cs.pivot_ranks) v = r.GetU64();
    for (uint64_t& s : cs.stats) s = r.GetU64();
    if (!r.AtEnd()) throw std::out_of_range("trailing bytes");
    return cs;
  } catch (const std::out_of_range& e) {
    throw std::runtime_error(path + ": malformed column body (" + e.what() +
                             ")");
  }
}

}  // namespace

std::string ManifestPath(const std::string& dir) { return dir + "/MANIFEST"; }

std::string SnapshotDir(const std::string& dir, uint64_t epoch) {
  return dir + "/snapshot-" + std::to_string(epoch);
}

std::string WalPath(const std::string& dir, uint64_t epoch) {
  return dir + "/wal-" + std::to_string(epoch) + ".log";
}

std::string ColumnFileName(const std::string& snapshot_dir,
                           const std::string& table,
                           const std::string& column) {
  return snapshot_dir + "/" + table + "." + column + ".col";
}

bool HasManifest(const std::string& dir) {
  return ::access(ManifestPath(dir).c_str(), R_OK) == 0;
}

void WriteSnapshot(const std::string& dir, uint64_t epoch, uint64_t wal_epoch,
                   const DurableDatabaseState& state) {
  const std::string snap_dir = SnapshotDir(dir, epoch);
  if (::mkdir(snap_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    ThrowErrno("snapshot mkdir " + snap_dir);
  }

  std::vector<ManifestColumnFile> files;
  files.reserve(state.columns.size());
  for (const DurableColumnState& cs : state.columns) {
    const std::vector<uint8_t> body = EncodeColumn(cs);
    const std::string path = ColumnFileName(snap_dir, cs.table, cs.column);
    const uint32_t crc = WriteFramedFile(path, kColMagic, body);
    files.push_back({cs.table, cs.column, cs.type, crc, body.size()});
  }
  if (!io::FsyncDir(snap_dir)) ThrowErrno("snapshot fsync " + snap_dir);

  ByteWriter m;
  m.PutU64(epoch);
  m.PutU64(wal_epoch);
  m.PutU64(state.last_lsn);
  m.PutU64(state.next_rowid);
  m.PutU32(static_cast<uint32_t>(state.tables.size()));
  for (const DurableTableState& t : state.tables) {
    m.PutString(t.name);
    m.PutU64(t.base_rows);
    m.PutU32(static_cast<uint32_t>(t.columns.size()));
    for (const std::string& c : t.columns) m.PutString(c);
  }
  m.PutU32(static_cast<uint32_t>(files.size()));
  for (const ManifestColumnFile& f : files) {
    m.PutString(f.table);
    m.PutString(f.column);
    m.PutU8(static_cast<uint8_t>(f.type));
    m.PutU32(f.crc);
    m.PutU64(f.bytes);
  }
  WriteFramedFile(ManifestPath(dir), kManMagic, m.bytes());
  if (!io::FsyncDir(dir)) ThrowErrno("snapshot fsync " + dir);
}

Manifest ReadManifest(const std::string& dir) {
  const std::string path = ManifestPath(dir);
  const std::vector<uint8_t> body = ReadFramedFile(path, kManMagic).bytes;
  try {
    ByteReader r(body.data(), body.size());
    Manifest man;
    man.snapshot_epoch = r.GetU64();
    man.wal_epoch = r.GetU64();
    man.last_lsn = r.GetU64();
    man.next_rowid = r.GetU64();
    man.tables.resize(r.GetU32());
    for (DurableTableState& t : man.tables) {
      t.name = r.GetString();
      t.base_rows = r.GetU64();
      t.columns.resize(r.GetU32());
      for (std::string& c : t.columns) c = r.GetString();
    }
    man.columns.resize(r.GetU32());
    for (ManifestColumnFile& f : man.columns) {
      f.table = r.GetString();
      f.column = r.GetString();
      f.type = static_cast<ValueType>(r.GetU8());
      f.crc = r.GetU32();
      f.bytes = r.GetU64();
    }
    if (!r.AtEnd()) throw std::out_of_range("trailing bytes");
    return man;
  } catch (const std::out_of_range& e) {
    throw std::runtime_error(path + ": malformed manifest (" + e.what() + ")");
  }
}

DurableDatabaseState ReadSnapshot(const std::string& dir,
                                  const Manifest& manifest) {
  DurableDatabaseState state;
  state.last_lsn = manifest.last_lsn;
  state.next_rowid = manifest.next_rowid;
  state.tables = manifest.tables;
  const std::string snap_dir = SnapshotDir(dir, manifest.snapshot_epoch);
  state.columns.reserve(manifest.columns.size());
  for (const ManifestColumnFile& f : manifest.columns) {
    const std::string path = ColumnFileName(snap_dir, f.table, f.column);
    const FramedBody body = ReadFramedFile(path, kColMagic);
    if (body.bytes.size() != f.bytes || body.crc != f.crc) {
      throw std::runtime_error(path + ": does not match manifest checksum");
    }
    DurableColumnState cs = DecodeColumn(body.bytes, path);
    if (cs.table != f.table || cs.column != f.column || cs.type != f.type) {
      throw std::runtime_error(path + ": identity mismatch vs manifest");
    }
    state.columns.push_back(std::move(cs));
  }
  return state;
}

void GarbageCollect(const std::string& dir, const Manifest& manifest) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  std::vector<std::string> doomed_dirs;
  std::vector<std::string> doomed_files;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    uint64_t epoch = 0;
    if (std::sscanf(name.c_str(), "snapshot-%llu",
                    reinterpret_cast<unsigned long long*>(&epoch)) == 1) {
      if (epoch != manifest.snapshot_epoch) {
        doomed_dirs.push_back(dir + "/" + name);
      }
    } else if (std::sscanf(name.c_str(), "wal-%llu.log",
                           reinterpret_cast<unsigned long long*>(&epoch)) ==
               1) {
      if (epoch < manifest.wal_epoch) doomed_files.push_back(dir + "/" + name);
    } else if (name.size() > 4 &&
               name.compare(name.size() - 4, 4, ".tmp") == 0) {
      doomed_files.push_back(dir + "/" + name);
    }
  }
  ::closedir(d);
  for (const std::string& f : doomed_files) ::unlink(f.c_str());
  for (const std::string& sd : doomed_dirs) {
    if (DIR* inner = ::opendir(sd.c_str())) {
      while (dirent* e = ::readdir(inner)) {
        const std::string name = e->d_name;
        if (name != "." && name != "..") ::unlink((sd + "/" + name).c_str());
      }
      ::closedir(inner);
    }
    ::rmdir(sd.c_str());
  }
}

std::vector<uint64_t> ListWalEpochs(const std::string& dir) {
  std::vector<uint64_t> epochs;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return epochs;
  while (dirent* e = ::readdir(d)) {
    uint64_t epoch = 0;
    if (std::sscanf(e->d_name, "wal-%llu.log",
                    reinterpret_cast<unsigned long long*>(&epoch)) == 1) {
      epochs.push_back(epoch);
    }
  }
  ::closedir(d);
  std::sort(epochs.begin(), epochs.end());
  return epochs;
}

}  // namespace holix::persist
