/// \file test_support.h
/// \brief Shared deterministic test substrate.
///
/// Four building blocks keep the suites hermetic and terse on any machine,
/// including single-core CI containers:
///  * seeded data generators (no global RNG state, identical data on
///    every run),
///  * a temp-directory fixture that creates and removes a private
///    scratch directory per test,
///  * a RunOneCycle-based engine driver so holistic-engine tests pump
///    tuning cycles synchronously instead of depending on wall-clock
///    CPU load, plus a bounded progress wait for the few tests that do
///    exercise the real tuning thread,
///  * one-line QuerySpec builders for the §3.1 primitives (count, sum,
///    rowids, projected sum over one range predicate), in process and
///    over the wire.

#pragma once

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cracking/cracker_column.h"
#include "engine/query_spec.h"
#include "holistic/adaptive_index.h"
#include "holistic/holistic_engine.h"
#include "util/rng.h"

namespace holix {
namespace test {

// --- Seeded data generators ----------------------------------------------

/// Uniform values in [0, domain), reproducible from \p seed.
inline std::vector<int64_t> MakeUniform(size_t n, int64_t domain,
                                        uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> v(n);
  for (auto& x : v) x = static_cast<int64_t>(rng.Below(domain));
  return v;
}

/// Reference count of values in [lo, hi) — the oracle cracked selects
/// are checked against.
inline size_t NaiveCount(const std::vector<int64_t>& v, int64_t lo,
                         int64_t hi) {
  size_t c = 0;
  for (int64_t x : v) c += (x >= lo && x < hi) ? 1 : 0;
  return c;
}

/// n copies of the same key (latch/boundary stress data).
inline std::vector<int64_t> MakeAllEqual(size_t n, int64_t key) {
  return std::vector<int64_t>(n, key);
}

/// The ascending sequence 0, 1, ..., n-1.
inline std::vector<int64_t> MakeSequential(size_t n) {
  std::vector<int64_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<int64_t>(i);
  return v;
}

/// Selects [lo, hi) through the visiting select and calls fn(value, rowid)
/// for every selected row; returns the selected row count.
template <typename T, typename Fn>
size_t SelectEach(CrackerColumn<T>& col, T lo, std::optional<T> hi, Fn&& fn) {
  auto each_row = [&](const RowRun<T>& run) {
    for (size_t i = 0; i < run.size; ++i) fn(run.values[i], run.rowids[i]);
  };
  return col.SelectRange(lo, hi, {}, each_row).size();
}

/// A cracker-backed adaptive index over fresh uniform data.
inline std::shared_ptr<CrackerAdaptiveIndex<int64_t>> MakeIndex(
    const std::string& name, size_t rows = 10000, uint64_t seed = 1,
    int64_t domain = 1 << 20) {
  auto col = std::make_shared<CrackerColumn<int64_t>>(
      name, MakeUniform(rows, domain, seed));
  return std::make_shared<CrackerAdaptiveIndex<int64_t>>(col);
}

// --- Temp-dir fixture -----------------------------------------------------

/// Creates a private scratch directory before each test and removes it
/// (recursively) afterwards.
class TempDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    // Parameterized suites/tests carry '/' in their names; flatten so the
    // scratch dir stays a single component that TearDown removes fully.
    std::string tag = std::string("holix_") + info->test_suite_name() + "_" +
                      info->name();
    for (char& c : tag) {
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
          c != '-') {
        c = '_';
      }
    }
    dir_ = std::filesystem::temp_directory_path() / tag;
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// The scratch directory for this test.
  const std::filesystem::path& temp_dir() const { return dir_; }

  /// A path inside the scratch directory.
  std::filesystem::path TempPath(const std::string& name) const {
    return dir_ / name;
  }

 private:
  std::filesystem::path dir_;
};

// --- Deterministic engine driving ----------------------------------------

/// Pumps RunOneCycle until \p done returns true, up to \p max_cycles.
/// All refinement happens synchronously on the calling thread, so the
/// outcome depends only on seeds and configuration — never on how busy
/// the host machine is. \return true when \p done held before the budget
/// ran out.
inline bool DriveUntil(HolisticEngine& engine,
                       const std::function<bool()>& done,
                       size_t max_cycles = 1000) {
  for (size_t i = 0; i < max_cycles; ++i) {
    if (done()) return true;
    engine.RunOneCycle();
  }
  return done();
}

/// Bounded wait for tests that exercise the real tuning thread: polls
/// \p done until it holds or \p max_wait elapses. Use only to observe
/// progress of an engine that is Start()ed; prefer DriveUntil for
/// everything else.
inline bool WaitForProgress(
    const std::function<bool()>& done,
    std::chrono::milliseconds max_wait = std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + max_wait;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// --- One-line query builders ---------------------------------------------
//
// Each runs the one-predicate, one-result QuerySpec of a §3.1 primitive
// through Execute on a Database or a Session (`target`), so it answers on
// the mode-native operator exactly as any other caller's spec would.

/// select count(*) where low <= column < high.
template <typename Target>
size_t Count(Target& target, const ColumnHandle& column, KeyScalar low,
             KeyScalar high) {
  return static_cast<size_t>(
      target.Execute(QuerySpec().Where(column, low, high).Count())
          .values[0]
          .i);
}

/// select sum(column) where low <= column < high, in the column's carrier
/// (i64 for integer columns, f64 for double columns).
template <typename Target>
KeyScalar Sum(Target& target, const ColumnHandle& column, KeyScalar low,
              KeyScalar high) {
  return target.Execute(QuerySpec().Where(column, low, high).Sum(column))
      .values[0];
}

/// The qualifying rowids, in the mode's native order.
template <typename Target>
PositionList RowIds(Target& target, const ColumnHandle& column,
                    KeyScalar low, KeyScalar high) {
  return std::move(
      target.Execute(QuerySpec().Where(column, low, high).RowIds()).rowids);
}

/// select sum(project) where low <= where < high (late reconstruction), in
/// the project column's carrier.
template <typename Target>
KeyScalar ProjectSum(Target& target, const ColumnHandle& where,
                     const ColumnHandle& project, KeyScalar low,
                     KeyScalar high) {
  return target
      .Execute(QuerySpec().Where(where, low, high).ProjectSum(project))
      .values[0];
}

// The same primitives over the wire: one-predicate, one-result
// ExecuteQuery frames through a HolixClient session.

/// Result kind (0 count, 1 sum, 2 rowids, 3 project-sum) of one predicate
/// low <= column < high; sums name \p sum_column.
template <typename Client>
auto WireQuery(Client& client, uint64_t session, const std::string& table,
               const std::string& column, KeyScalar low, KeyScalar high,
               uint8_t kind = 0, const std::string& sum_column = "") {
  return client.ExecuteQuery(session, table, {{column, low, high}},
                             {{kind, sum_column}});
}

template <typename Client>
uint64_t WireCount(Client& client, uint64_t session, const std::string& table,
                   const std::string& column, KeyScalar low, KeyScalar high) {
  return static_cast<uint64_t>(
      WireQuery(client, session, table, column, low, high).values[0].i);
}

template <typename Client>
KeyScalar WireSum(Client& client, uint64_t session, const std::string& table,
                  const std::string& column, KeyScalar low, KeyScalar high) {
  return WireQuery(client, session, table, column, low, high, 1, column)
      .values[0];
}

/// Pipelined count: sends the request and returns its id.
template <typename Client>
uint64_t SendWireCount(Client& client, uint64_t session,
                       const std::string& table, const std::string& column,
                       KeyScalar low, KeyScalar high) {
  return client.SendExecuteQuery(session, table, {{column, low, high}},
                                 {{0, ""}});
}

/// Awaits the count answering pipelined request \p request_id.
template <typename Client>
uint64_t AwaitWireCount(Client& client, uint64_t request_id) {
  return static_cast<uint64_t>(
      client.AwaitExecuteQuery(request_id).values[0].i);
}

}  // namespace test
}  // namespace holix
