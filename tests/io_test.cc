#include <gtest/gtest.h>

#include <cstdio>
#include <limits>

#include "algo/bnl.h"
#include "common/quantizer.h"
#include "gen/synthetic.h"
#include "io/binary.h"
#include "io/csv.h"

namespace zsky {
namespace {

TEST(CsvParseTest, BasicWithHeader) {
  const auto table = ParseCsv("a,b,c\n1,2,3\n4.5,6,-7\n", CsvOptions{},
                              nullptr);
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(table->dim, 3u);
  EXPECT_EQ(table->rows, 2u);
  EXPECT_EQ(table->columns, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_DOUBLE_EQ(table->values[3], 4.5);
  EXPECT_DOUBLE_EQ(table->values[5], -7.0);
}

TEST(CsvParseTest, NoHeaderGeneratesNames) {
  CsvOptions options;
  options.has_header = false;
  const auto table = ParseCsv("1,2\n3,4\n", options, nullptr);
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(table->rows, 2u);
  EXPECT_EQ(table->columns, (std::vector<std::string>{"col0", "col1"}));
}

TEST(CsvParseTest, SkipsBlankLinesAndTrimsCrlf) {
  const auto table =
      ParseCsv("x,y\r\n\r\n1, 2\r\n\n3,4\r\n", CsvOptions{}, nullptr);
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(table->rows, 2u);
  EXPECT_DOUBLE_EQ(table->values[1], 2.0);
}

TEST(CsvParseTest, RaggedRowFails) {
  std::string error;
  EXPECT_FALSE(ParseCsv("a,b\n1,2\n3\n", CsvOptions{}, &error).has_value());
  EXPECT_NE(error.find("line 3"), std::string::npos);
}

TEST(CsvParseTest, NonNumericFails) {
  std::string error;
  EXPECT_FALSE(
      ParseCsv("a,b\n1,hello\n", CsvOptions{}, &error).has_value());
  EXPECT_NE(error.find("hello"), std::string::npos);
}

TEST(CsvParseTest, EmptyInputFails) {
  std::string error;
  EXPECT_FALSE(ParseCsv("", CsvOptions{}, &error).has_value());
  EXPECT_FALSE(ParseCsv("\n\n", CsvOptions{}, &error).has_value());
}

TEST(CsvParseTest, CustomDelimiter) {
  CsvOptions options;
  options.delimiter = ';';
  const auto table = ParseCsv("a;b\n1;2\n", options, nullptr);
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(table->dim, 2u);
}

TEST(CsvRoundTripTest, WriteThenParse) {
  CsvTable table;
  table.dim = 2;
  table.rows = 3;
  table.columns = {"alpha", "beta"};
  table.values = {0.5, 1.25, -3.0, 100.0, 0.001, 42.0};
  const std::string text = WriteCsv(table, CsvOptions{});
  const auto parsed = ParseCsv(text, CsvOptions{}, nullptr);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->columns, table.columns);
  EXPECT_EQ(parsed->rows, table.rows);
  for (size_t i = 0; i < table.values.size(); ++i) {
    EXPECT_DOUBLE_EQ(parsed->values[i], table.values[i]);
  }
}

TEST(CsvFileTest, MissingFileFails) {
  std::string error;
  EXPECT_FALSE(ReadCsvFile("/nonexistent/zsky.csv", CsvOptions{}, &error)
                   .has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(CsvFileTest, RoundTripThroughDisk) {
  CsvTable table;
  table.dim = 2;
  table.rows = 2;
  table.columns = {"x", "y"};
  table.values = {1, 2, 3, 4};
  const std::string path = ::testing::TempDir() + "/zsky_io_test.csv";
  const std::string text = WriteCsv(table, CsvOptions{});
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  std::fwrite(text.data(), 1, text.size(), file);
  std::fclose(file);
  const auto parsed = ReadCsvFile(path, CsvOptions{}, nullptr);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->rows, 2u);
  std::remove(path.c_str());
}

TEST(BinaryTest, RoundTrip) {
  const PointSet ps = GenerateQuantized(Distribution::kAnticorrelated, 500,
                                        4, 3, Quantizer(16));
  const std::string bytes = SerializePointSet(ps);
  const auto back = DeserializePointSet(bytes, nullptr);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->dim(), ps.dim());
  EXPECT_EQ(back->size(), ps.size());
  EXPECT_EQ(back->raw(), ps.raw());
}

TEST(BinaryTest, EmptySetRoundTrip) {
  PointSet empty(7);
  const auto back = DeserializePointSet(SerializePointSet(empty), nullptr);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->dim(), 7u);
  EXPECT_TRUE(back->empty());
}

// Builds a syntactically valid .zpt header with arbitrary (untrusted)
// fields, for the corrupt-file matrix below.
std::string CraftBinaryHeader(uint32_t version, uint32_t dim,
                              uint64_t count) {
  std::string out("ZSKY", 4);
  out.append(reinterpret_cast<const char*>(&version), sizeof(version));
  out.append(reinterpret_cast<const char*>(&dim), sizeof(dim));
  out.append(reinterpret_cast<const char*>(&count), sizeof(count));
  return out;
}

TEST(BinaryTest, RejectsCorruptInput) {
  const PointSet ps = GenerateQuantized(Distribution::kIndependent, 10, 2, 4,
                                        Quantizer(8));
  const std::string bytes = SerializePointSet(ps);
  std::string error;

  EXPECT_FALSE(DeserializePointSet("nope", &error).has_value());
  EXPECT_EQ(error, "bad magic");
  EXPECT_FALSE(DeserializePointSet("", &error).has_value());
  EXPECT_EQ(error, "bad magic");

  // Truncation at every header boundary: magic | version | dim | count.
  EXPECT_FALSE(DeserializePointSet(bytes.substr(0, 3), &error).has_value());
  EXPECT_EQ(error, "bad magic");
  EXPECT_FALSE(DeserializePointSet(bytes.substr(0, 6), &error).has_value());
  EXPECT_EQ(error, "unsupported version");
  EXPECT_FALSE(DeserializePointSet(bytes.substr(0, 10), &error).has_value());
  EXPECT_EQ(error, "bad dimension");
  EXPECT_FALSE(DeserializePointSet(bytes.substr(0, 14), &error).has_value());
  EXPECT_EQ(error, "truncated header");

  // Truncated and padded payloads are distinct failures.
  EXPECT_FALSE(
      DeserializePointSet(bytes.substr(0, bytes.size() - 3), &error)
          .has_value());
  EXPECT_EQ(error, "truncated payload");
  EXPECT_FALSE(DeserializePointSet(bytes + "xx", &error).has_value());
  EXPECT_EQ(error, "payload size mismatch");

  std::string wrong_version = bytes;
  wrong_version[4] = 99;
  EXPECT_FALSE(DeserializePointSet(wrong_version, &error).has_value());
  EXPECT_EQ(error, "unsupported version");
}

TEST(BinaryTest, RejectsHostileHeaderFields) {
  std::string error;

  // dim = 0 and dim beyond the cap.
  EXPECT_FALSE(DeserializePointSet(CraftBinaryHeader(1, 0, 4), &error)
                   .has_value());
  EXPECT_EQ(error, "bad dimension");
  EXPECT_FALSE(
      DeserializePointSet(CraftBinaryHeader(1, kMaxDeserializedDim + 1, 4),
                          &error)
          .has_value());
  EXPECT_EQ(error, "bad dimension");

  // Counts whose byte size wraps 64-bit arithmetic. Before the checked
  // math, count * dim * sizeof(Coord) could wrap to a tiny "expected"
  // size, pass the length check, and turn the memcpy into a heap
  // overflow.
  const uint64_t kMax = std::numeric_limits<uint64_t>::max();
  for (const uint64_t count : {kMax, kMax / 2, uint64_t{1} << 61}) {
    EXPECT_FALSE(DeserializePointSet(CraftBinaryHeader(1, 2, count), &error)
                     .has_value());
    EXPECT_EQ(error, "count overflows size arithmetic") << count;
  }
  // Exact wrap-to-zero: count * dim * 4 == 2^64, so the unchecked product
  // is 0 and an empty payload would "match".
  EXPECT_FALSE(
      DeserializePointSet(CraftBinaryHeader(1, 4, uint64_t{1} << 60), &error)
          .has_value());
  EXPECT_EQ(error, "count overflows size arithmetic");

  // A plausible-but-unbacked count: header says a million rows, payload
  // has none.
  EXPECT_FALSE(DeserializePointSet(CraftBinaryHeader(1, 4, 1000000), &error)
                   .has_value());
  EXPECT_EQ(error, "truncated payload");
}

TEST(BinaryTest, FileRoundTrip) {
  const PointSet ps = GenerateQuantized(Distribution::kCorrelated, 100, 3, 5,
                                        Quantizer(12));
  const std::string path = ::testing::TempDir() + "/zsky_binary_test.zpt";
  std::string error;
  ASSERT_TRUE(WritePointSetFile(path, ps, &error)) << error;
  const auto back = ReadPointSetFile(path, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->raw(), ps.raw());
  std::remove(path.c_str());
}

TEST(BinaryTest, MissingFileError) {
  std::string error;
  EXPECT_FALSE(ReadPointSetFile("/nonexistent/zsky.zpt", &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(TableToPointsTest, NormalizationAndMinimization) {
  CsvTable table;
  table.dim = 2;
  table.rows = 3;
  table.columns = {"price", "rating"};
  // price minimized, rating maximized.
  table.values = {100, 1, 200, 5, 300, 3};
  const Quantizer quantizer(8);
  const PointSet points =
      TableToPoints(table, std::vector<uint32_t>{1}, quantizer);
  ASSERT_EQ(points.size(), 3u);
  // Cheapest price -> smallest coordinate; best rating -> smallest coord.
  EXPECT_LT(points[0][0], points[1][0]);
  EXPECT_LT(points[1][0], points[2][0]);
  EXPECT_LT(points[1][1], points[2][1]);  // rating 5 beats rating 3.
  EXPECT_LT(points[2][1], points[0][1]);  // rating 3 beats rating 1.
  // Skyline: row 0 (cheapest) and row 1 (best rating); row 2 dominated by
  // row 1 (more expensive AND worse rating).
  EXPECT_EQ(BnlSkyline(points), (SkylineIndices{0, 1}));
}

TEST(TableToPointsTest, ConstantColumnMapsToZero) {
  CsvTable table;
  table.dim = 2;
  table.rows = 2;
  table.columns = {"a", "b"};
  table.values = {7, 1, 7, 2};
  const PointSet points = TableToPoints(table, {}, Quantizer(8));
  EXPECT_EQ(points[0][0], 0u);
  EXPECT_EQ(points[1][0], 0u);
  EXPECT_LT(points[0][1], points[1][1]);
}

}  // namespace
}  // namespace zsky
