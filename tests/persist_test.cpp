/// \file persist_test.cpp
/// \brief Durability subsystem unit + integration tests: CRC32C known
/// answers, rank-image round trips for the nasty doubles, WAL append/read
/// with LSN ordering and torn-tail/CRC rejection, snapshot + manifest
/// round trips, fault-injected checkpoint failure leaving the previous
/// manifest in force, checkpoint/recover across every exec mode, and
/// index warm-start with bit-identical cracker piece boundaries.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "engine/database.h"
#include "persist/checksum.h"
#include "persist/io_shim.h"
#include "persist/persistence.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "test_support.h"
#include "util/key_traits.h"

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

TEST_F(PersistTest, WarmStartReproducesBitIdenticalPieceBoundaries) {
  const auto data = test::MakeUniform(kRows, kDomain, 41);
  DurableDatabaseState before;
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
    (void)db.Insert(db.Resolve("r", "a"), 4242);
    EXPECT_TRUE(db.Delete(db.Resolve("r", "a"), data[10]));
    pm.Checkpoint();
    // The checkpoint force-merged all pending updates, so this export is
    // exactly the achieved-index state recovery must reproduce.
    before = db.ExportDurableState();
  }
  Database db2(ModeOptions(ExecMode::kAdaptive));
  PersistenceManager pm2(db2, DirOptions(temp_dir()));
  ASSERT_TRUE(pm2.recovered());
  const DurableDatabaseState after = db2.ExportDurableState();

  ASSERT_EQ(after.columns.size(), before.columns.size());
  const DurableColumnState& b = before.columns[0];
  const DurableColumnState& a = after.columns[0];
  EXPECT_EQ(a.base_ranks, b.base_ranks);
  EXPECT_EQ(a.appended, b.appended);
  EXPECT_EQ(a.deleted_base, b.deleted_base);
  ASSERT_TRUE(a.has_cracker);
  // The tentpole claim: the restarted node resumes at the achieved
  // C_actual — same pivots, bit for bit.
  EXPECT_EQ(a.pivot_ranks, b.pivot_ranks);
  // Life counters survive (restored after recovery's own re-cracks, so
  // the merge/crack work recovery does is not double-counted).
  EXPECT_EQ(a.stats[0], b.stats[0]);  // accesses
  EXPECT_EQ(a.stats[2], b.stats[2]);  // query cracks
  EXPECT_EQ(a.stats[5], b.stats[5]);  // merged inserts
  EXPECT_EQ(a.stats[6], b.stats[6]);  // merged deletes
  EXPECT_EQ(after.next_rowid, before.next_rowid);
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
