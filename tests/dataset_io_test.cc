// CSV input tests: the field tokenizer against a strtod reference, bit
// for bit; separators, headers, comments, errors and pipes through
// ReadCsvPoints; CsvPointSource reporting why its stream stopped; and
// its blocks, its rows through Next() and a line-by-line reader agreeing
// bit for bit across block boundaries, errors and slow pipes.
#include "birch/dataset_io.h"

#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace birch {
namespace {

/// A temp CSV path unique to this process: the plain and .san builds of
/// this suite run concurrently under ctest.
std::string TempCsv(const std::string& stem) {
  return ::testing::TempDir() + "/" + stem + "_" +
         std::to_string(::getpid()) + ".csv";
}

/// Writes `text` to a temp CSV and reads it back with ReadCsvPoints.
StatusOr<Dataset> ReadCsvText(const std::string& text) {
  const std::string path = TempCsv("birch_dataset_io");
  {
    std::ofstream f(path, std::ios::binary);
    f << text;
  }
  auto d = ReadCsvPoints(path);
  std::remove(path.c_str());
  return d;
}

/// The old field rule, kept as the reference: fields built one
/// character at a time, each read whole by strtod from its own copy.
/// ParseCsvNumericRow, reading in place, must match it on verdict and
/// bits.
bool ReferenceParseRow(const std::string& line, std::vector<double>* out) {
  out->clear();
  std::string field;
  auto flush = [&]() -> bool {
    if (field.empty()) return true;
    char* end = nullptr;
    double v = std::strtod(field.c_str(), &end);
    if (end == nullptr || *end != '\0') return false;
    out->push_back(v);
    field.clear();
    return true;
  };
  for (char ch : line) {
    if (ch == '#') break;  // comment tail
    if (ch == ',' || ch == ' ' || ch == '\t' || ch == '\r') {
      if (!flush()) return false;
    } else {
      field += ch;
    }
  }
  return flush();
}

std::vector<uint64_t> Bits(const std::vector<double>& v) {
  std::vector<uint64_t> bits;
  for (double x : v) bits.push_back(std::bit_cast<uint64_t>(x));
  return bits;
}

/// Parses `line` both ways; a mismatch in verdict or bits fails with
/// the line quoted.
void ExpectMatchesReference(const std::string& line) {
  std::vector<double> want, got;
  const bool want_ok = ReferenceParseRow(line, &want);
  const bool got_ok = ParseCsvNumericRow(line, &got);
  ASSERT_EQ(got_ok, want_ok) << "line: \"" << line << "\"";
  if (want_ok) {
    EXPECT_EQ(Bits(got), Bits(want)) << "line: \"" << line << "\"";
  }
}

TEST(CsvTokenizerTest, EdgeFieldsMatchStrtodReference) {
  const char* const lines[] = {
      "0x10",       "+1.5",        "+-1",           ".5",
      "5.",         "1e",          "1e400",         "-1e400",
      "1e-400",     "4.9e-324",    "2.4e-324",      "inf",
      "-infinity",  "nan",         "-nan",          "nan(123)",
      "-nan(0x7)",  "-0",          "1,,2",          "1#x",
      "1,2\r",      "1e+",         "-",             ".",
      "e5",         "0x1p-3",      "-0X1.8P1",      "0x",
      "infinit",    "INFINITY",    "1.e5",          "00012",
      "-.5e-3",     "1,2 # tail",  "# only",        "",
      " \t, ,\r",   "3,4,",        ",5",            "1e308",
      "1.7976931348623157e308",    "1.7976931348623159e308",
      "2.2250738585072011e-308",   "0.1,0.2,0.30000000000000004",
      "1 2\t3",     "abc",         "1,abc",         "1x",
      "\v1",        "1\f",         "+inf",          "+nan",
  };
  for (const char* line : lines) ExpectMatchesReference(line);
}

/// Random lines over the characters numbers are made of, plus
/// separators and comments: three fields in four are well-formed
/// numbers (decimal, hex, out of range, special values), the rest
/// random runs of those characters.
TEST(CsvTokenizerTest, RandomLinesMatchStrtodReference) {
  std::mt19937_64 rng(20240611);
  auto pick = [&](size_t n) { return static_cast<size_t>(rng() % n); };
  const std::string alphabet = "0123456789+-.eExXaAfFinNtyIY,\t\r#pP ()";
  const char* const specials[] = {"inf",  "infinity", "nan",     "nan(1)",
                                  "INF",  "NaN",      "Infinity", "nan()"};
  const char* const signs[] = {"", "", "-", "+"};
  const char* const seps[] = {",", " ", "\t", ",,", " , ", "\r"};
  char buf[64];
  for (int i = 0; i < 200000; ++i) {
    std::string line;
    const size_t fields = pick(6);
    for (size_t f = 0; f < fields; ++f) {
      if (f > 0) line += seps[pick(6)];
      const size_t shape = pick(8);
      if (shape < 3) {
        // Any bit pattern: normals, subnormals, inf and NaN.
        const double v = std::bit_cast<double>(static_cast<uint64_t>(rng()));
        switch (pick(4)) {
          case 0: std::snprintf(buf, sizeof(buf), "%.17g", v); break;
          case 1: std::snprintf(buf, sizeof(buf), "%.6e", v); break;
          case 2: std::snprintf(buf, sizeof(buf), "%a", v); break;
          default: std::snprintf(buf, sizeof(buf), "%g", v); break;
        }
        line += signs[pick(4)];
        line += buf;
      } else if (shape < 5) {
        // Digits with an exponent near or past the double range.
        line += signs[pick(4)];
        line += std::to_string(rng() % 100000);
        if (pick(2) == 0) line += "." + std::to_string(rng() % 1000);
        line += "eE"[pick(2)];
        line += signs[pick(4)];
        line += std::to_string(static_cast<int>(pick(700)) - 10);
      } else if (shape < 6) {
        line += signs[pick(4)];
        line += specials[pick(8)];
      } else {
        const size_t len = 1 + pick(6);
        for (size_t c = 0; c < len; ++c) {
          line += alphabet[pick(alphabet.size())];
        }
      }
    }
    if (pick(8) == 0) line += " # comment";
    if (pick(8) == 0) line += "\r";
    ExpectMatchesReference(line);
    if (::testing::Test::HasFailure()) break;
  }
}

// The one narrowing against the reference: strtod stopped at a NUL
// byte inside a field, so "1\0x" read as 1; the tokenizer rejects it.
TEST(CsvTokenizerTest, NulByteInAFieldIsRejected) {
  const std::string with_nul("1\0x,2", 5);
  std::vector<double> row;
  EXPECT_FALSE(ParseCsvNumericRow(with_nul, &row));
  EXPECT_TRUE(ReferenceParseRow(with_nul, &row));
  EXPECT_TRUE(ParseCsvNumericRow(std::string("1,2#\0", 5), &row));
  EXPECT_EQ(row.size(), 2u);
}

TEST(DatasetIoTest, ParsesCommaSeparated) {
  auto d = ReadCsvText("1.5,2.5\n-3,4\n");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value().size(), 2u);
  EXPECT_EQ(d.value().dim(), 2u);
  EXPECT_DOUBLE_EQ(d.value().Row(0)[0], 1.5);
  EXPECT_DOUBLE_EQ(d.value().Row(1)[1], 4.0);
}

TEST(DatasetIoTest, ParsesWhitespaceSeparated) {
  auto d = ReadCsvText("1 2 3\n4\t5\t6\n");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value().dim(), 3u);
  EXPECT_DOUBLE_EQ(d.value().Row(1)[2], 6.0);
}

TEST(DatasetIoTest, SkipsHeaderCommentsBlanks) {
  auto d = ReadCsvText("x,y\n# a comment\n\n1,2\n3,4 # trailing\n");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value().size(), 2u);
}

TEST(DatasetIoTest, ScientificNotationAndNegatives) {
  auto d = ReadCsvText("1e3,-2.5e-2\n-0.0,3\n");
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(d.value().Row(0)[0], 1000.0);
  EXPECT_DOUBLE_EQ(d.value().Row(0)[1], -0.025);
}

TEST(DatasetIoTest, ArityMismatchRejected) {
  auto d = ReadCsvText("1,2\n3,4,5\n");
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(d.status().message(), "row arity changed at line 2 (3 vs 2)");
}

TEST(DatasetIoTest, GarbageAfterDataRejected) {
  auto d = ReadCsvText("1,2\nfoo,bar\n");
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.status().message(), "unparsable row at line 2");
}

TEST(DatasetIoTest, EmptyInputRejected) {
  EXPECT_FALSE(ReadCsvText("").ok());
  EXPECT_FALSE(ReadCsvText("# only comments\n\n").ok());
  EXPECT_FALSE(ReadCsvText("header,only\n").ok());
}

TEST(DatasetIoTest, ReadsFromFile) {
  std::string path = TempCsv("birch_points");
  {
    std::ofstream f(path);
    f << "a,b\n1,2\n3,4\n";
  }
  auto d = ReadCsvPoints(path);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value().size(), 2u);
  auto missing = ReadCsvPoints("/nonexistent/file.csv");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIOError);
  std::remove(path.c_str());
}

// Reading once never seeks, so a pipe works: only a Phase-4 re-scan
// (Rewind) needs a seekable file.
TEST(DatasetIoTest, ReadsFromAPipe) {
  const std::string path = TempCsv("birch_fifo");
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  std::thread writer([&path] {
    std::ofstream f(path);  // blocks until the reader opens the pipe
    f << "x,y\n1,2\n3,4\n";
  });
  auto d = ReadCsvPoints(path);
  writer.join();
  std::remove(path.c_str());
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d.value().size(), 2u);
  EXPECT_DOUBLE_EQ(d.value().Row(0)[0], 1.0);
  EXPECT_DOUBLE_EQ(d.value().Row(1)[1], 4.0);
}

// A malformed row ends the stream with an error naming its line, not a
// silent end of file; the error holds until Rewind() starts over.
TEST(CsvPointSourceStatusTest, MalformedRowStopsTheStreamWithItsLine) {
  const std::string path = TempCsv("birch_status");
  {
    std::ofstream f(path);
    f << "x,y\n1,2\n\n3,4\n1.5,oops\n5,6\n";
  }
  auto source_or = CsvPointSource::Open(path);
  ASSERT_TRUE(source_or.ok()) << source_or.status().ToString();
  CsvPointSource& source = *source_or.value();
  std::vector<double> p(2);
  double w = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    EXPECT_TRUE(source.status().ok());
    ASSERT_TRUE(source.Next(p, &w));
    ASSERT_TRUE(source.Next(p, &w));
    EXPECT_EQ(p[1], 4.0);
    EXPECT_FALSE(source.Next(p, &w));
    EXPECT_EQ(source.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(source.status().message(), "unparsable row at line 5");
    EXPECT_FALSE(source.Next(p, &w));  // stays stopped
    ASSERT_TRUE(source.Rewind().ok());
  }
  std::remove(path.c_str());
}

/// The reference reader: getline over the file, each line through
/// ParseCsvNumericRow, headers skipped before the first data row. Returns
/// the values of the rows before the first bad line, if any.
std::vector<double> LineByLineRows(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string line;
  std::vector<double> values, row;
  size_t dim = 0;
  while (std::getline(in, line)) {
    const bool parsed = ParseCsvNumericRow(line, &row);
    if (!parsed && dim == 0) continue;  // header
    if (!parsed || (!row.empty() && row.size() != dim && dim != 0)) break;
    if (row.empty()) continue;
    dim = row.size();
    values.insert(values.end(), row.begin(), row.end());
  }
  return values;
}

/// Drains `source` through Next(); `*status` is why it stopped.
std::vector<double> DrainNext(CsvPointSource* source, Status* status) {
  std::vector<double> values, row(source->dim());
  double w = 0.0;
  while (source->Next(row, &w)) {
    EXPECT_EQ(w, 1.0);
    values.insert(values.end(), row.begin(), row.end());
  }
  *status = source->status();
  return values;
}

/// Drains `source` through ReadBlock() and DecodeBlock(); `*status` is
/// the first failed decode's, else the source's; `*blocks` counts them.
std::vector<double> DrainBlocks(CsvPointSource* source, Status* status,
                                size_t* blocks) {
  std::vector<double> values;
  PointBlock block;
  *blocks = 0;
  while (source->ReadBlock(&block)) {
    ++*blocks;
    const Status decoded = source->DecodeBlock(&block);
    EXPECT_EQ(block.values.size(), block.size() * source->dim());
    values.insert(values.end(), block.values.begin(), block.values.end());
    if (!decoded.ok()) {
      *status = decoded;
      return values;
    }
  }
  *status = source->status();
  return values;
}

// Rows cut into blocks come out as a line-by-line reader gives them, bit
// for bit, through Next() and through the block calls, on the first pass
// and after Rewind(). The file spans more than four blocks: lines
// straddle block boundaries, one two-field line padded with spaces is
// longer than a block, and the last line has no newline.
TEST(CsvPointSourceBlockTest, BlocksAndNextMatchALineByLineReader) {
  std::mt19937_64 rng(20261017);
  const char* const specials[] = {"0x1.8p3",  "+2.5",  "1e400", "-1e-400",
                                  "nan(123)", "-nan",  "+inf",  "+0x10",
                                  "4.9e-324", "-0x1p-3"};
  std::string text = "x,y\n# header then a comment\n\n";
  char buf[96];
  for (size_t i = 0; text.size() < 4 * PointSource::kBlockBytes + 4096; ++i) {
    const double a = std::bit_cast<double>(rng() >> 2);  // finite
    const double b = static_cast<double>(rng() % 100000) / 7.0;
    switch (i % 8) {
      case 0: text += "\n"; break;
      case 1: text += "# a comment line\n"; break;
      case 2:
        std::snprintf(buf, sizeof(buf), "%.17g,%.17g\r\n", a, b);
        text += buf;
        break;
      case 3:
        text += specials[rng() % 10];
        text += ",";
        text += specials[rng() % 10];
        text += " # tail\n";
        break;
      default:
        std::snprintf(buf, sizeof(buf), "%.17g, %.6e\n", b, a);
        text += buf;
    }
    if (i == 5000) {
      text += "1.5" + std::string(PointSource::kBlockBytes + 100, ' ') +
              ",2.5\n";
    }
  }
  text += "7,8";
  const std::string path = TempCsv("birch_blocks");
  {
    std::ofstream f(path, std::ios::binary);
    f << text;
  }
  const std::vector<uint64_t> want = Bits(LineByLineRows(path));
  ASSERT_GT(want.size(), 40000u);

  auto source_or = CsvPointSource::Open(path);
  ASSERT_TRUE(source_or.ok()) << source_or.status().ToString();
  CsvPointSource& source = *source_or.value();
  ASSERT_EQ(source.dim(), 2u);
  Status status;
  size_t blocks = 0;
  EXPECT_EQ(Bits(DrainBlocks(&source, &status, &blocks)), want);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_GE(blocks, 4u);
  ASSERT_TRUE(source.Rewind().ok());
  EXPECT_EQ(Bits(DrainNext(&source, &status)), want);
  EXPECT_TRUE(status.ok()) << status.ToString();
  ASSERT_TRUE(source.Rewind().ok());
  EXPECT_EQ(Bits(DrainBlocks(&source, &status, &blocks)), want);
  EXPECT_TRUE(status.ok()) << status.ToString();

  auto next_first = CsvPointSource::Open(path);
  ASSERT_TRUE(next_first.ok()) << next_first.status().ToString();
  EXPECT_EQ(Bits(DrainNext(next_first.value().get(), &status)), want);
  EXPECT_TRUE(status.ok()) << status.ToString();
  std::remove(path.c_str());
}

// A bad line past the first block names its line, counted from the
// start of the file, on the first pass and on a block drain after
// Rewind(); the rows before it are still delivered.
TEST(CsvPointSourceBlockTest, ABadLinePastTheFirstBlockNamesItsLine) {
  const std::pair<const char*, const char*> bad_lines[] = {
      {"1.5,oops", "unparsable row at line "},
      {"1,2,3", "row arity changed at line "}};
  for (const auto& [bad, message] : bad_lines) {
    std::string text = "x,y\n";
    size_t line = 1;
    char buf[64];
    for (size_t i = 0; text.size() < 2 * PointSource::kBlockBytes; ++i) {
      std::snprintf(buf, sizeof(buf), "%zu.25,%zu\n", i, i % 97);
      text += buf;
      ++line;
    }
    text += bad;
    text += "\n5,6\n";
    const std::string want_message =
        message + std::to_string(line + 1) +
        (std::string(bad) == "1,2,3" ? " (3 vs 2)" : "");
    const std::string path = TempCsv("birch_bad_block");
    {
      std::ofstream f(path, std::ios::binary);
      f << text;
    }
    const std::vector<uint64_t> want = Bits(LineByLineRows(path));
    ASSERT_EQ(want.size(), 2 * (line - 1));
    auto source_or = CsvPointSource::Open(path);
    ASSERT_TRUE(source_or.ok()) << source_or.status().ToString();
    CsvPointSource& source = *source_or.value();
    Status status;
    EXPECT_EQ(Bits(DrainNext(&source, &status)), want);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(status.message(), want_message);
    ASSERT_TRUE(source.Rewind().ok());
    size_t blocks = 0;
    EXPECT_EQ(Bits(DrainBlocks(&source, &status, &blocks)), want);
    EXPECT_GE(blocks, 2u);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(status.message(), want_message);
    std::remove(path.c_str());
  }
}

// Over a pipe, Open() and Next() give the rows that have arrived without
// waiting for a block to fill. The writer holds back the rest until the
// reader has the first two rows, or for 10 s, which fails the test
// rather than hanging it.
TEST(CsvPointSourceBlockTest, SlowPipeGivesRowsAsTheyArrive) {
  const std::string path = TempCsv("birch_slow_fifo");
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  std::promise<void> have_rows;
  std::future<void> reader_has_rows = have_rows.get_future();
  bool writer_timed_out = false;
  std::thread writer([&] {
    std::ofstream f(path);  // blocks until the reader opens the pipe
    f << "x,y\n1,2\n3,4\n" << std::flush;
    writer_timed_out = reader_has_rows.wait_for(std::chrono::seconds(10)) ==
                       std::future_status::timeout;
    f << "5,6\n7,8\n";
  });
  std::vector<double> values;
  Status status;
  auto source_or = CsvPointSource::Open(path);
  if (source_or.ok()) {
    std::vector<double> row(2);
    double w = 0.0;
    for (int i = 0; i < 2 && source_or.value()->Next(row, &w); ++i) {
      values.insert(values.end(), row.begin(), row.end());
    }
  }
  have_rows.set_value();
  if (source_or.ok()) {
    const std::vector<double> rest = DrainNext(source_or.value().get(),
                                               &status);
    values.insert(values.end(), rest.begin(), rest.end());
  }
  writer.join();
  std::remove(path.c_str());
  ASSERT_TRUE(source_or.ok()) << source_or.status().ToString();
  EXPECT_FALSE(writer_timed_out)
      << "Open() or Next() waited for more than the lines that arrived";
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(values, (std::vector<double>{1, 2, 3, 4, 5, 6, 7, 8}));
}

}  // namespace
}  // namespace birch
