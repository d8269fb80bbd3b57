/// \file persist_test.cpp
/// \brief Durability subsystem unit + integration tests: CRC32C known
/// answers, rank-image round trips for the nasty doubles, WAL append/read
/// with LSN ordering and torn-tail/CRC rejection, snapshot + manifest
/// round trips, fault-injected checkpoint failure leaving the previous
/// manifest in force, checkpoint/recover across every exec mode, index
/// warm-start with bit-identical cracker piece boundaries, the
/// O(n log p) re-crack work bound, and the per-phase recovery timings.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "engine/database.h"
#include "obs/metrics.h"
#include "persist/checksum.h"
#include "persist/io_shim.h"
#include "persist/persistence.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "test_support.h"
#include "util/key_traits.h"
#include "util/rng.h"

namespace holix::persist {
namespace {

constexpr size_t kRows = 20000;
constexpr int64_t kDomain = 1 << 20;

DatabaseOptions ModeOptions(ExecMode mode) {
  DatabaseOptions opts;
  opts.mode = mode;
  opts.user_threads = 2;
  opts.total_cores = 4;
  return opts;
}

PersistOptions DirOptions(const std::filesystem::path& dir) {
  PersistOptions p;
  p.data_dir = dir.string();
  p.fsync = FsyncPolicy::kAlways;
  return p;
}

class PersistTest : public test::TempDirTest {};

// --- Primitives -----------------------------------------------------------

TEST(Checksum, Crc32cKnownAnswer) {
  // The Castagnoli check value (RFC 3720 appendix B.4 et al.).
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  // Incremental == one-shot.
  const uint32_t head = Crc32c("1234", 4);
  EXPECT_EQ(Crc32c("56789", 5, head), 0xE3069283u);
  EXPECT_EQ(Crc32cPortable("123456789", 9), 0xE3069283u);
}

TEST(Checksum, DispatchedCrc32cMatchesTheTableImplementation) {
  // The hardware path must be a drop-in for the table: same value for
  // every length (the 8-byte main loop plus every tail), every alignment
  // of the start, and every chaining seed, so files written by either
  // path verify under the other.
  std::vector<uint8_t> buf(300 + 8);
  Rng rng(61);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.Below(256));
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len + offset <= 300; ++len) {
      const uint8_t* p = buf.data() + offset;
      ASSERT_EQ(Crc32c(p, len), Crc32cPortable(p, len))
          << "offset " << offset << " len " << len;
      const uint32_t seed = Crc32cPortable(buf.data(), offset + 3);
      ASSERT_EQ(Crc32c(p, len, seed), Crc32cPortable(p, len, seed))
          << "offset " << offset << " len " << len << " seeded";
      // Chained halves equal the one-shot value.
      const size_t half = len / 2;
      ASSERT_EQ(Crc32c(p + half, len - half, Crc32c(p, half)),
                Crc32cPortable(p, len))
          << "offset " << offset << " len " << len << " chained";
    }
  }
}

TEST(RankImages, NastyDoublesRoundTripLosslessly) {
  using KT = KeyTraits<double>;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double values[] = {0.0,  1.5,       -1.5, inf, -inf,
                           1e308, -1e308, 5e-324};
  for (double v : values) {
    const double back = KT::FromRank(KT::ToRank(v));
    EXPECT_EQ(back, v) << v;
    EXPECT_EQ(std::signbit(back), std::signbit(v)) << v;
  }
  // NaN canonicalizes but stays NaN, above +inf in rank order.
  EXPECT_TRUE(std::isnan(KT::FromRank(KT::ToRank(nan))));
  EXPECT_GT(KT::ToRank(nan), KT::ToRank(inf));
  // -0.0 canonicalizes to +0.0: one rank for one equivalence class.
  EXPECT_EQ(KT::ToRank(-0.0), KT::ToRank(0.0));
  // Order preservation across the sign.
  EXPECT_LT(KT::ToRank(-inf), KT::ToRank(-1.5));
  EXPECT_LT(KT::ToRank(-1.5), KT::ToRank(0.0));
  EXPECT_LT(KT::ToRank(0.0), KT::ToRank(1.5));
  EXPECT_LT(KT::ToRank(1.5), KT::ToRank(inf));
}

TEST(Wal, FsyncPolicyParsing) {
  EXPECT_EQ(FsyncPolicyFromString("always"), FsyncPolicy::kAlways);
  EXPECT_EQ(FsyncPolicyFromString("interval"), FsyncPolicy::kInterval);
  EXPECT_EQ(FsyncPolicyFromString("never"), FsyncPolicy::kNever);
  EXPECT_FALSE(FsyncPolicyFromString("bogus").has_value());
}

// --- WAL ------------------------------------------------------------------

TEST_F(PersistTest, WalRoundTripKeepsLsnOrderAndPayloads) {
  const std::string path = TempPath("wal-1.log").string();
  {
    WalWriter w(path, FsyncPolicy::kAlways, /*first_lsn=*/1);
    EXPECT_EQ(w.Append(WalOp::kInsert, "r", "a", ValueType::kInt64, 42, 100),
              1u);
    EXPECT_EQ(w.Append(WalOp::kDelete, "r", "a", ValueType::kInt64, 7, 3), 2u);
    EXPECT_EQ(w.Append(WalOp::kInsert, "s", "b", ValueType::kDouble,
                       KeyTraits<double>::ToRank(-0.0), 101),
              3u);
    EXPECT_EQ(w.next_lsn(), 4u);
  }
  bool torn = true;
  const std::vector<WalRecord> recs = ReadWalFile(path, &torn);
  EXPECT_FALSE(torn);
  ASSERT_EQ(recs.size(), 3u);
  for (size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].lsn, i + 1);
  }
  EXPECT_EQ(recs[0].op, WalOp::kInsert);
  EXPECT_EQ(recs[0].table, "r");
  EXPECT_EQ(recs[0].column, "a");
  EXPECT_EQ(recs[0].rank, 42u);
  EXPECT_EQ(recs[0].rowid, 100u);
  EXPECT_EQ(recs[1].op, WalOp::kDelete);
  EXPECT_EQ(recs[2].type, ValueType::kDouble);
  EXPECT_EQ(KeyTraits<double>::FromRank(recs[2].rank), 0.0);
}

TEST_F(PersistTest, WalTornTailIsCutAtTheLastIntactRecord) {
  const std::string path = TempPath("wal-1.log").string();
  {
    WalWriter w(path, FsyncPolicy::kNever, 1);
    for (int i = 0; i < 10; ++i) {
      w.Append(WalOp::kInsert, "r", "a", ValueType::kInt64,
               static_cast<uint64_t>(i), static_cast<RowId>(i));
    }
    w.SyncNow(/*force=*/true);
  }
  // Chop a few bytes off the final record: a crash mid-append.
  const uint64_t size = std::filesystem::file_size(path);
  ASSERT_TRUE(io::TruncateFile(path, size - 3));

  bool torn = false;
  const std::vector<WalRecord> recs = ReadWalFile(path, &torn);
  EXPECT_TRUE(torn);
  ASSERT_EQ(recs.size(), 9u);
  EXPECT_EQ(recs.back().lsn, 9u);
}

TEST_F(PersistTest, WalCorruptRecordIsRejectedByItsCrc) {
  const std::string path = TempPath("wal-1.log").string();
  {
    WalWriter w(path, FsyncPolicy::kNever, 1);
    for (int i = 0; i < 5; ++i) {
      w.Append(WalOp::kInsert, "r", "a", ValueType::kInt64, 1000, 1);
    }
    w.SyncNow(/*force=*/true);
  }
  // Flip one payload byte near the end of the file (inside record 5).
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(-5, std::ios::end);
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x5A);
    f.seekp(-5, std::ios::end);
    f.write(&b, 1);
  }
  bool torn = false;
  const std::vector<WalRecord> recs = ReadWalFile(path, &torn);
  EXPECT_TRUE(torn);  // CRC mismatch reads as a torn tail
  EXPECT_EQ(recs.size(), 4u);
}

TEST_F(PersistTest, WalHeaderCorruptionThrows) {
  const std::string path = TempPath("wal-1.log").string();
  {
    WalWriter w(path, FsyncPolicy::kNever, 1);
    w.Append(WalOp::kInsert, "r", "a", ValueType::kInt64, 1, 1);
    w.SyncNow(true);
  }
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.write("X", 1);  // break the magic
  }
  EXPECT_THROW((void)ReadWalFile(path), std::runtime_error);
}

// A crash between creating a WAL epoch's file and making its header durable
// leaves an empty file or a prefix of the header; recovery must read it as
// an empty, torn log rather than refuse to start.
TEST_F(PersistTest, WalTornHeaderReadsAsEmptyLog) {
  const std::string path = TempPath("wal-1.log").string();
  for (const uint64_t keep : {0, 5, 8, 12}) {
    { WalWriter w(path, FsyncPolicy::kAlways, 1); }
    ASSERT_TRUE(io::TruncateFile(path, keep));
    bool torn = false;
    EXPECT_TRUE(ReadWalFile(path, &torn).empty()) << keep << " bytes";
    EXPECT_TRUE(torn) << keep << " bytes";
    std::filesystem::remove(path);
  }
  // A short file that is not a header prefix is still corruption.
  {
    std::ofstream f(path, std::ios::binary);
    f.write("XOLIX", 5);
  }
  EXPECT_THROW((void)ReadWalFile(path), std::runtime_error);
}

// --- Snapshot + manifest --------------------------------------------------

TEST_F(PersistTest, SnapshotManifestRoundTrip) {
  Database db(ModeOptions(ExecMode::kAdaptive));
  const auto data = test::MakeUniform(kRows, kDomain, 11);
  db.LoadColumn("r", "a", data);
  const ColumnHandle h = db.Resolve("r", "a");
  // Crack a little so pivots and stats are non-trivial.
  (void)test::Count(db, h, 1000, 5000);
  (void)test::Count(db, h, 200000, 400000);

  const DurableDatabaseState st = db.ExportDurableState();
  ASSERT_EQ(st.columns.size(), 1u);
  EXPECT_EQ(st.columns[0].base_ranks.size(), kRows);
  EXPECT_TRUE(st.columns[0].has_cracker);
  EXPECT_FALSE(st.columns[0].pivot_ranks.empty());

  WriteSnapshot(temp_dir().string(), /*epoch=*/1, /*wal_epoch=*/1, st);
  ASSERT_TRUE(HasManifest(temp_dir().string()));

  const Manifest man = ReadManifest(temp_dir().string());
  EXPECT_EQ(man.snapshot_epoch, 1u);
  EXPECT_EQ(man.wal_epoch, 1u);
  EXPECT_EQ(man.next_rowid, st.next_rowid);
  ASSERT_EQ(man.tables.size(), 1u);
  EXPECT_EQ(man.tables[0].name, "r");
  EXPECT_EQ(man.tables[0].base_rows, kRows);

  const DurableDatabaseState back = ReadSnapshot(temp_dir().string(), man);
  ASSERT_EQ(back.columns.size(), 1u);
  EXPECT_EQ(back.columns[0].base_ranks, st.columns[0].base_ranks);
  EXPECT_EQ(back.columns[0].pivot_ranks, st.columns[0].pivot_ranks);
  EXPECT_EQ(back.columns[0].appended, st.columns[0].appended);
  EXPECT_EQ(back.columns[0].deleted_base, st.columns[0].deleted_base);
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(back.columns[0].stats[i], st.columns[0].stats[i]) << i;
  }
}

TEST_F(PersistTest, CorruptColumnFileFailsItsCrcCheck) {
  Database db(ModeOptions(ExecMode::kAdaptive));
  db.LoadColumn("r", "a", test::MakeUniform(1000, kDomain, 5));
  WriteSnapshot(temp_dir().string(), 1, 1, db.ExportDurableState());

  const Manifest man = ReadManifest(temp_dir().string());
  const std::string col_file = ColumnFileName(
      SnapshotDir(temp_dir().string(), 1), "r", "a");
  {
    std::fstream f(col_file, std::ios::in | std::ios::out | std::ios::binary);
    char b = 0;
    f.seekg(-1, std::ios::end);  // flip the last body byte
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0xFF);
    f.seekp(-1, std::ios::end);
    f.write(&b, 1);
  }
  EXPECT_THROW((void)ReadSnapshot(temp_dir().string(), man),
               std::runtime_error);
}

// --- Fault-injected checkpoint --------------------------------------------

TEST_F(PersistTest, FailedCheckpointLeavesThePreviousManifestInForce) {
  const auto data = test::MakeUniform(kRows, kDomain, 21);
  size_t final_count = 0;
  {
    Database db(ModeOptions(ExecMode::kAdaptive));
    db.LoadColumn("r", "a", data);
    PersistenceManager pm(db, DirOptions(temp_dir()));
    pm.Checkpoint();
    const uint64_t good_lsn = pm.last_checkpoint_lsn();

    // Updates after the good checkpoint live in the WAL.
    (void)db.Insert(db.Resolve("r", "a"), kDomain + 1);
    (void)db.Insert(db.Resolve("r", "a"), kDomain + 2);

    // The next checkpoint dies on its first rename (a column file or the
    // manifest publish — either way the old manifest must survive).
    ::setenv("HOLIX_FAULT_RENAME_N", "1", 1);
    io::ReloadFaultConfigForTest();
    const uint64_t faults_before = io::InjectedFaultCount();
    EXPECT_THROW((void)pm.Checkpoint(), std::runtime_error);
    EXPECT_GT(io::InjectedFaultCount(), faults_before);
    ::unsetenv("HOLIX_FAULT_RENAME_N");
    io::ReloadFaultConfigForTest();

    EXPECT_EQ(pm.last_checkpoint_lsn(), good_lsn);
    (void)db.Insert(db.Resolve("r", "a"), kDomain + 3);
    final_count = test::Count(db, db.Resolve("r", "a"), kDomain, kDomain + 10);
    EXPECT_EQ(final_count, 3u);
  }
  // Recovery proceeds from the previous manifest + full WAL replay — the
  // half-written checkpoint is invisible.
  Database db2(ModeOptions(ExecMode::kAdaptive));
  PersistenceManager pm2(db2, DirOptions(temp_dir()));
  EXPECT_TRUE(pm2.recovered());
  EXPECT_EQ(test::Count(db2, db2.Resolve("r", "a"), kDomain, kDomain + 10),
            final_count);
  EXPECT_EQ(test::Count(db2, db2.Resolve("r", "a"), 0, kDomain),
            test::NaiveCount(data, 0, kDomain));
}

// --- Full checkpoint / recover cycles -------------------------------------

TEST_F(PersistTest, WalTailReplaysOnTopOfTheSnapshot) {
  const auto data = test::MakeUniform(kRows, kDomain, 31);
  uint64_t ckpt_lsn = 0;
  size_t count_low = 0, count_probe = 0;
  {
    Database db(ModeOptions(ExecMode::kAdaptive));
    db.LoadColumn("r", "a", data);
    PersistenceManager pm(db, DirOptions(temp_dir()));
    (void)test::Count(db, db.Resolve("r", "a"), 1000, 9000);
    (void)db.Insert(db.Resolve("r", "a"), kDomain + 5);
    ckpt_lsn = pm.Checkpoint();

    // Post-checkpoint tail: inserts, a delete of a base value, queries.
    (void)db.Insert(db.Resolve("r", "a"), kDomain + 6);
    (void)db.Insert(db.Resolve("r", "a"), 777);
    EXPECT_TRUE(db.Delete(db.Resolve("r", "a"), data[0]));
    (void)test::Count(db, db.Resolve("r", "a"), 500000, 700000);
    count_low = test::Count(db, db.Resolve("r", "a"), 0, 1000);
    count_probe = test::Count(db, db.Resolve("r", "a"), kDomain, kDomain + 100);
    EXPECT_EQ(count_probe, 2u);
  }
  Database db2(ModeOptions(ExecMode::kAdaptive));
  PersistenceManager pm2(db2, DirOptions(temp_dir()));
  ASSERT_TRUE(pm2.recovered());
  EXPECT_GT(pm2.recovered_lsn(), ckpt_lsn);  // the tail actually replayed
  EXPECT_EQ(test::Count(db2, db2.Resolve("r", "a"), 0, 1000), count_low);
  EXPECT_EQ(test::Count(db2, db2.Resolve("r", "a"), kDomain, kDomain + 100),
            count_probe);
  EXPECT_EQ(test::Count(db2, db2.Resolve("r", "a"), 777, 778),
            test::NaiveCount(data, 777, 778) + 1);
}

/// The live cracker of column r.a (int64), or nullptr.
std::shared_ptr<CrackerColumn<int64_t>> LiveCracker(Database& db) {
  return db.Resolve("r", "a").entry()->runtime<int64_t>().cracker.load();
}

TEST_F(PersistTest, WarmStartReproducesBitIdenticalPieceBoundaries) {
  const auto data = test::MakeUniform(kRows, kDomain, 41);
  DurableDatabaseState at_checkpoint;
  DurableDatabaseState before;
  std::vector<std::pair<int64_t, size_t>> boundaries_before;
  std::vector<size_t> pieces_before;
  {
    Database db(ModeOptions(ExecMode::kAdaptive));
    db.LoadColumn("r", "a", data);
    PersistenceManager pm(db, DirOptions(temp_dir()));
    const ColumnHandle h = db.Resolve("r", "a");
    // A query stream that cracks across the domain, plus merged updates.
    for (int i = 0; i < 50; ++i) {
      (void)test::Count(db, h, (i * 7919) % kDomain,
                        ((i * 7919) % kDomain) + 2048);
    }
    (void)db.Insert(h, 4242);
    EXPECT_TRUE(db.Delete(h, data[10]));
    // Point lookups of the rows the WAL tail deletes. A delete resolves
    // its row with a [v, v] select, which cracks at v and v + 1; the WAL
    // logs updates, not cracks, so those boundaries must predate the
    // checkpoint for the live index to be reproducible.
    const size_t tail_deletes[] = {100, 2000, 9000, 15000};
    for (size_t i : tail_deletes) {
      EXPECT_GE(test::Count(db, h, data[i], data[i] + 1), 1u);
    }
    pm.Checkpoint();
    // The checkpoint force-merged all pending updates, so this export is
    // exactly the achieved-index state the snapshot holds.
    at_checkpoint = db.ExportDurableState();

    // WAL tail, left pending in the queues (no query touches it): deletes
    // of base rows in cracked pieces, and inserts both inside the domain
    // and above it. Recovery merges these into the re-cracked pieces, which
    // must shift every boundary exactly as merging them here does.
    const auto cracker = LiveCracker(db);
    ASSERT_NE(cracker, nullptr);
    ASSERT_GT(cracker->NumPieces(), 50u);
    for (size_t i : tail_deletes) EXPECT_TRUE(db.Delete(h, data[i]));
    EXPECT_GT(cracker->pending().PendingDeletes(), 0u);
    for (int64_t v : {int64_t{12345}, int64_t{kDomain / 2}, int64_t{777777},
                      kDomain + 7, kDomain + 8}) {
      (void)db.Insert(h, v);
    }
    EXPECT_GT(cracker->pending().PendingInserts(), 0u);
    // ExportDurableState merges the tail, so the live boundaries below
    // are the full pre-crash index recovery must reproduce.
    before = db.ExportDurableState();
    boundaries_before = cracker->ExportBoundaries();
    pieces_before = cracker->PieceSizes();
  }
  Database db2(ModeOptions(ExecMode::kAdaptive));
  PersistenceManager pm2(db2, DirOptions(temp_dir()));
  ASSERT_TRUE(pm2.recovered());
  const auto cracker2 = LiveCracker(db2);
  ASSERT_NE(cracker2, nullptr);
  // Recovery merged the whole update history: nothing is left queued.
  EXPECT_EQ(cracker2->pending().PendingInserts(), 0u);
  EXPECT_EQ(cracker2->pending().PendingDeletes(), 0u);
  // The tentpole claim: the restarted node resumes at the achieved
  // C_actual — the same (value, position) boundaries and piece sizes, bit
  // for bit.
  EXPECT_EQ(cracker2->ExportBoundaries(), boundaries_before);
  EXPECT_EQ(cracker2->PieceSizes(), pieces_before);
  const DurableDatabaseState after = db2.ExportDurableState();

  ASSERT_EQ(after.columns.size(), before.columns.size());
  const DurableColumnState& b = before.columns[0];
  const DurableColumnState& a = after.columns[0];
  EXPECT_EQ(a.base_ranks, b.base_ranks);
  EXPECT_EQ(a.appended, b.appended);
  EXPECT_EQ(a.deleted_base, b.deleted_base);
  ASSERT_TRUE(a.has_cracker);
  EXPECT_EQ(a.pivot_ranks, b.pivot_ranks);
  // Life counters survive as checkpointed (restored after recovery's own
  // re-cracks and merge, so that work is not double-counted).
  const DurableColumnState& c = at_checkpoint.columns[0];
  EXPECT_EQ(a.stats[0], c.stats[0]);  // accesses
  EXPECT_EQ(a.stats[2], c.stats[2]);  // query cracks
  EXPECT_EQ(a.stats[5], c.stats[5]);  // merged inserts
  EXPECT_EQ(a.stats[6], c.stats[6]);  // merged deletes
  EXPECT_EQ(after.next_rowid, before.next_rowid);
}

TEST_F(PersistTest, WarmStartReCrackMovesOnlyNLogPRows) {
  // Median-first re-cracking partitions disjoint pieces per recursion
  // level, so restoring n rows at p pivots moves at most ceil(log2(p+1))
  // levels of n rows. Re-cracking in ascending order moves about n*p/2.
  constexpr size_t kN = size_t{1} << 16;
  constexpr size_t kPivots = 300;
  const auto data = test::MakeUniform(kN, kDomain, 43);
  size_t pivots = 0;
  {
    Database db(ModeOptions(ExecMode::kAdaptive));
    db.LoadColumn("r", "a", data);
    PersistenceManager pm(db, DirOptions(temp_dir()));
    (void)test::Count(db, db.Resolve("r", "a"), 0, 1);  // installs the cracker
    const auto cracker = LiveCracker(db);
    ASSERT_NE(cracker, nullptr);
    for (size_t i = 1; i <= kPivots; ++i) {
      cracker->CrackAtBlocking(static_cast<int64_t>(i * kDomain / kPivots) +
                               3);
    }
    pm.Checkpoint();
    pivots = db.ExportDurableState().columns[0].pivot_ranks.size();
  }
  ASSERT_GE(pivots, 256u);

  obs::Counter& moved = obs::MetricsRegistry::Global().GetCounter(
      "holix_crack_bytes_moved_total");
  const uint64_t moved_before = moved.Value();
  Database db2(ModeOptions(ExecMode::kAdaptive));
  PersistenceManager pm2(db2, DirOptions(temp_dir()));
  ASSERT_TRUE(pm2.recovered());
  const uint64_t recovery_moved = moved.Value() - moved_before;

  const uint64_t levels = std::bit_width(pivots);  // ceil(log2(p + 1))
  const uint64_t bound =
      (levels + 1) * kN * (sizeof(int64_t) + sizeof(RowId));
  EXPECT_LE(recovery_moved, bound)
      << "restoring " << kN << " rows at " << pivots << " pivots";
  EXPECT_EQ(LiveCracker(db2)->NumPieces(), pivots + 1);
}

TEST_F(PersistTest, RecoveryObservesEachPhaseOnce) {
  const auto data = test::MakeUniform(kRows, kDomain, 47);
  {
    Database db(ModeOptions(ExecMode::kAdaptive));
    db.LoadColumn("r", "a", data);
    PersistenceManager pm(db, DirOptions(temp_dir()));
    (void)test::Count(db, db.Resolve("r", "a"), 1000, 90000);
    pm.Checkpoint();
    (void)db.Insert(db.Resolve("r", "a"), 4242);  // WAL tail
  }
  const char* const kPhases[] = {"snapshot_read", "restore", "wal_replay",
                                 "recrack", "merge"};
  auto find = [](const obs::MetricsSnapshot& snap, const std::string& name) {
    for (const obs::HistogramSnapshot& h : snap.histograms) {
      if (h.name == name) return h;
    }
    return obs::HistogramSnapshot{};
  };
  auto phase_name = [](const char* phase) {
    return std::string("holix_recovery_phase_seconds{phase=\"") + phase +
           "\"}";
  };
  const obs::MetricsSnapshot s0 = obs::MetricsRegistry::Global().Snapshot();
  Database db2(ModeOptions(ExecMode::kAdaptive));
  PersistenceManager pm2(db2, DirOptions(temp_dir()));
  ASSERT_TRUE(pm2.recovered());
  const obs::MetricsSnapshot s1 = obs::MetricsRegistry::Global().Snapshot();

  double phase_sum = 0;
  for (const char* phase : kPhases) {
    const obs::HistogramSnapshot h0 = find(s0, phase_name(phase));
    const obs::HistogramSnapshot h1 = find(s1, phase_name(phase));
    EXPECT_EQ(h1.Total() - h0.Total(), 1u) << phase;
    EXPECT_GE(h1.sum - h0.sum, 0.0) << phase;
    phase_sum += h1.sum - h0.sum;
  }
  const obs::HistogramSnapshot r0 = find(s0, "holix_recovery_seconds");
  const obs::HistogramSnapshot r1 = find(s1, "holix_recovery_seconds");
  ASSERT_EQ(r1.Total() - r0.Total(), 1u);
  // The phases are disjoint intervals inside the recovery's wall time; the
  // slack absorbs only double rounding of the running histogram sums.
  EXPECT_LE(phase_sum, (r1.sum - r0.sum) + 1e-9);
}

TEST_F(PersistTest, DoubleColumnsRecoverNaNNegZeroAndInfinities) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> data = {1.5, -2.25, 0.0, -0.0, inf, -inf, nan, nan,
                              3.75, 1e308};
  size_t nan_count = 0, neg_count = 0, fin_count = 0;
  {
    Database db(ModeOptions(ExecMode::kAdaptive));
    db.LoadColumn<double>("r", "d", data);
    PersistenceManager pm(db, DirOptions(temp_dir()));
    (void)db.Insert(db.Resolve("r", "d"), -0.0);
    (void)db.Insert(db.Resolve("r", "d"), nan);
    pm.Checkpoint();
    (void)db.Insert(db.Resolve("r", "d"), inf);  // WAL tail
    nan_count = test::Count(db, db.Resolve("r", "d"), nan, nan);
    neg_count = test::Count(db, db.Resolve("r", "d"), -inf, 0.0);
    fin_count = test::Count(db, db.Resolve("r", "d"), 0.0, inf);
    EXPECT_EQ(nan_count, 3u);
  }
  Database db2(ModeOptions(ExecMode::kAdaptive));
  PersistenceManager pm2(db2, DirOptions(temp_dir()));
  ASSERT_TRUE(pm2.recovered());
  EXPECT_EQ(test::Count(db2, db2.Resolve("r", "d"), nan, nan), nan_count);
  EXPECT_EQ(test::Count(db2, db2.Resolve("r", "d"), -inf, 0.0), neg_count);
  EXPECT_EQ(test::Count(db2, db2.Resolve("r", "d"), 0.0, inf), fin_count);
  // -0.0 rows answer a [0.0, x) probe (the canonical zero class).
  EXPECT_EQ(test::Count(db2, db2.Resolve("r", "d"), 0.0, 1.0), 3u);
}

/// Checkpoint → recover must be checksum-equal to the uninterrupted oracle
/// in every exec mode. Modes without update support run a read-only
/// workload (their executors reject Insert/Delete by design); the cracking
/// modes exercise updates too.
class PersistAllModesTest
    : public test::TempDirTest,
      public ::testing::WithParamInterface<ExecMode> {};

TEST_P(PersistAllModesTest, CheckpointRecoverMatchesOracleCounts) {
  const ExecMode mode = GetParam();
  const bool cracking_mode =
      mode == ExecMode::kAdaptive || mode == ExecMode::kStochastic ||
      mode == ExecMode::kCCGI || mode == ExecMode::kHolistic;
  const auto data = test::MakeUniform(kRows, kDomain, 51);

  std::vector<std::pair<int64_t, int64_t>> probes;
  for (int i = 0; i < 12; ++i) {
    const int64_t lo = (i * 131071) % kDomain;
    probes.emplace_back(lo, lo + 4096);
  }
  probes.emplace_back(0, kDomain + 100);

  std::vector<size_t> oracle;
  {
    Database db(ModeOptions(mode));
    db.LoadColumn("r", "a", data);
    PersistenceManager pm(db, DirOptions(temp_dir()));
    for (const auto& [lo, hi] : probes) {
      (void)test::Count(db, db.Resolve("r", "a"), lo, hi);
    }
    if (cracking_mode) {
      (void)db.Insert(db.Resolve("r", "a"), kDomain + 1);
      EXPECT_TRUE(db.Delete(db.Resolve("r", "a"), data[3]));
    }
    pm.Checkpoint();
    // WAL tail.
    if (cracking_mode) (void)db.Insert(db.Resolve("r", "a"), kDomain + 2);
    for (const auto& [lo, hi] : probes) {
      oracle.push_back(test::Count(db, db.Resolve("r", "a"), lo, hi));
    }
  }

  Database db2(ModeOptions(mode));
  PersistenceManager pm2(db2, DirOptions(temp_dir()));
  ASSERT_TRUE(pm2.recovered());
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(test::Count(db2, db2.Resolve("r", "a"), probes[i].first,
                          probes[i].second),
              oracle[i])
        << "mode " << static_cast<int>(mode) << " probe " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, PersistAllModesTest,
                         ::testing::Values(ExecMode::kScan, ExecMode::kOffline,
                                           ExecMode::kOnline,
                                           ExecMode::kAdaptive,
                                           ExecMode::kStochastic,
                                           ExecMode::kCCGI,
                                           ExecMode::kHolistic));

}  // namespace
}  // namespace holix::persist
