/// Tests for the storage substrate: columns, tables, catalogs and their
/// error handling, and the rowid radix sort of position lists.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>

#include "storage/catalog.h"
#include "storage/column.h"
#include "storage/position_list.h"
#include "storage/table.h"
#include "storage/types.h"
#include "util/rng.h"

namespace holix {
namespace {

TEST(Types, SizesAndNames) {
  EXPECT_EQ(ValueTypeSize(ValueType::kInt32), 4u);
  EXPECT_EQ(ValueTypeSize(ValueType::kInt64), 8u);
  EXPECT_EQ(ValueTypeSize(ValueType::kDouble), 8u);
  EXPECT_STREQ(ValueTypeName(ValueType::kInt64), "int64");
  EXPECT_EQ(ValueTypeOf<int32_t>::value, ValueType::kInt32);
  EXPECT_EQ(ValueTypeOf<double>::value, ValueType::kDouble);
}

TEST(Column, BasicAccess) {
  Column<int64_t> col("a", {1, 2, 3});
  EXPECT_EQ(col.size(), 3u);
  EXPECT_EQ(col.SizeBytes(), 24u);
  EXPECT_EQ(col[1], 2);
  col.Append(4);
  EXPECT_EQ(col.size(), 4u);
  EXPECT_EQ(col[3], 4);
  EXPECT_EQ(col.name(), "a");
  EXPECT_EQ(col.type(), ValueType::kInt64);
}

TEST(Table, AddAndGetColumns) {
  Table t("r");
  t.AddColumn<int64_t>("a", {1, 2, 3});
  t.AddColumn<int64_t>("b", {4, 5, 6});
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_TRUE(t.HasColumn("a"));
  EXPECT_FALSE(t.HasColumn("z"));
  EXPECT_EQ(t.GetColumn<int64_t>("b")[0], 4);
  EXPECT_EQ(t.SizeBytes(), 48u);
  const auto names = t.ColumnNames();
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b"}));
}

TEST(Table, LengthMismatchThrows) {
  Table t("r");
  t.AddColumn<int64_t>("a", {1, 2, 3});
  EXPECT_THROW(t.AddColumn<int64_t>("b", {1, 2}), std::invalid_argument);
}

TEST(Table, DuplicateColumnThrows) {
  Table t("r");
  t.AddColumn<int64_t>("a", {1});
  EXPECT_THROW(t.AddColumn<int64_t>("a", {2}), std::invalid_argument);
}

TEST(Table, MissingColumnThrows) {
  Table t("r");
  EXPECT_THROW(t.GetColumn<int64_t>("nope"), std::out_of_range);
}

TEST(Table, WrongTypeThrows) {
  Table t("r");
  t.AddColumn<int64_t>("a", {1});
  EXPECT_THROW(t.GetColumn<int32_t>("a"), std::out_of_range);
}

TEST(Table, MixedTypes) {
  Table t("r");
  t.AddColumn<int64_t>("a", {1, 2});
  t.AddColumn<double>("d", {0.5, 1.5});
  EXPECT_EQ(t.GetColumn<double>("d")[1], 1.5);
  EXPECT_EQ(t.column(1).type(), ValueType::kDouble);
}

TEST(Catalog, CreateGetDrop) {
  Catalog c;
  EXPECT_FALSE(c.HasTable("r"));
  Table& t = c.CreateTable("r");
  t.AddColumn<int64_t>("a", {1});
  EXPECT_TRUE(c.HasTable("r"));
  EXPECT_EQ(&c.CreateTable("r"), &t);  // idempotent
  EXPECT_EQ(c.GetTable("r").num_rows(), 1u);
  EXPECT_THROW(c.GetTable("q"), std::out_of_range);
  c.DropTable("r");
  EXPECT_FALSE(c.HasTable("r"));
  c.DropTable("r");  // no-op
}

TEST(Catalog, TableNames) {
  Catalog c;
  c.CreateTable("x");
  c.CreateTable("y");
  auto names = c.TableNames();
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"x", "y"}));
}

TEST(Catalog, ConstAccess) {
  Catalog c;
  c.CreateTable("r").AddColumn<int64_t>("a", {7});
  const Catalog& cc = c;
  EXPECT_EQ(cc.GetTable("r").GetColumn<int64_t>("a")[0], 7);
}

/// SortRowIds must agree with std::sort on every input.
void ExpectSortsLikeStdSort(PositionList rows) {
  PositionList expected = rows;
  std::sort(expected.begin(), expected.end());
  SortRowIds(rows);
  EXPECT_EQ(rows, expected) << "size " << rows.size();
}

PositionList Draws(size_t n, RowId bound, uint64_t seed) {
  Rng rng(seed);
  PositionList v(n);
  for (RowId& r : v) r = rng.Below(bound);
  return v;
}

TEST(SortRowIds, EmptyAndSingle) {
  ExpectSortsLikeStdSort({});
  ExpectSortsLikeStdSort({42});
}

TEST(SortRowIds, AroundTheSmallListCutoff) {
  ExpectSortsLikeStdSort(Draws(kRowIdRadixCutoff - 1, 1 << 22, 1));
  ExpectSortsLikeStdSort(Draws(kRowIdRadixCutoff, 1 << 22, 2));
  ExpectSortsLikeStdSort(Draws(kRowIdRadixCutoff + 1, 1 << 22, 3));
}

TEST(SortRowIds, AscendingAndDescending) {
  PositionList up(5000);
  for (size_t i = 0; i < up.size(); ++i) up[i] = 3 * i + (i % 2);
  ExpectSortsLikeStdSort(up);
  PositionList down(up.rbegin(), up.rend());
  ExpectSortsLikeStdSort(down);
}

TEST(SortRowIds, ShuffledBaseRowIds) {
  // Draws from a 2^22-row table: two 11-bit digit passes, with repeats.
  for (size_t n : {4096u, 17000u, 200000u}) {
    ExpectSortsLikeStdSort(Draws(n, RowId{1} << 22, n));
  }
}

TEST(SortRowIds, OddDigitPassCounts) {
  // One pass (rowids below 2^11) and three (rowids just past 2^32) leave
  // the result in the scatter buffer, which must be handed back.
  ExpectSortsLikeStdSort(Draws(5000, RowId{1} << 11, 5));
  PositionList rows = Draws(5000, RowId{1} << 22, 6);
  for (RowId r : Draws(500, RowId{1} << 20, 7)) {
    rows.push_back((RowId{1} << 32) + r);
  }
  std::shuffle(rows.begin(), rows.end(), std::mt19937_64(8));
  ExpectSortsLikeStdSort(rows);
}

TEST(SortRowIds, AppendedRowIdsFarPastTheBase) {
  // Rows appended by Insert take rowids from next_rowid, which may sit far
  // beyond the base: the largest rowid here needs six digit passes.
  PositionList rows = Draws(6000, RowId{1} << 22, 7);
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    rows.push_back((RowId{1} << 32) + rng.Below(1 << 20));
    rows.push_back((RowId{1} << 63) - 1 - rng.Below(1 << 20));
  }
  rows.push_back(RowId{1} << 32);
  rows.push_back(std::numeric_limits<RowId>::max());
  std::shuffle(rows.begin(), rows.end(), std::mt19937_64(9));
  ExpectSortsLikeStdSort(rows);
}

}  // namespace
}  // namespace holix
