// Numeric CSV input. CsvPointSource is the one CSV reader, streaming a
// file block by block (BIRCH's single scan); ReadCsvPoints() drains it
// into a Dataset. Per line: fields split on ',', ' ', '\t' or '\r', each
// a whole strtod number; '#' starts a comment; blank lines, and lines
// that do not parse before the first data row (headers), are skipped.
// The first data row fixes the arity: a later line that does not parse
// or has another arity ends the stream with InvalidArgument naming its
// line, counted from the start of the file.
#ifndef BIRCH_BIRCH_DATASET_IO_H_
#define BIRCH_BIRCH_DATASET_IO_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "birch/dataset.h"
#include "birch/point_source.h"
#include "util/status.h"

namespace birch {

/// Parses the fields of one CSV line into `out`; false if one is not a
/// number (a blank or comment-only line gives an empty `out`). Fields go
/// through std::from_chars, and through strtod in place where
/// from_chars stops short (hex, a leading '+', out of range) or reads a
/// NaN, so values are bitwise strtod's; a NUL byte inside a field
/// rejects it. CsvPointSource decodes every line through this rule.
bool ParseCsvNumericRow(const std::string& line, std::vector<double>* out);

/// Drains a CsvPointSource over `path` into a dataset, failing with its
/// Open() or status() error.
StatusOr<Dataset> ReadCsvPoints(const std::string& path);

/// Streaming CSV source: reads the file without ever materializing the
/// dataset — BIRCH's single-scan access pattern over a file of arbitrary
/// size.
///
/// Blocks: ReadBlock() reads about kBlockBytes of raw text cut after the
/// last whole line (a longer line grows its block to its newline; the
/// file's last line needs none), counting lines so DecodeBlock() can
/// name a bad one; DecodeBlock() parses the block's lines on any thread.
/// Next() serves rows from blocks it decodes on the calling thread.
///
/// Pipes: one pass reads front to back, so a pipe works, and a read
/// returns what has arrived: Open() and Next() give the rows whose lines
/// are in without waiting for a block to fill.
///
/// Rewind() (Phase-4 re-scans) seeks straight to the first data row
/// Open() found, giving the rows and line numbers of a re-read from byte
/// 0. It needs a file that can seek: over a FIFO, socket or character
/// device it returns FailedPrecondition, which the clusterer reads as
/// "no Phase 4".
class CsvPointSource : public PointSource {
 public:
  /// Opens `path`, sniffing the dimensionality from the first data row:
  /// IOError if unreadable, InvalidArgument if it holds no data row.
  static StatusOr<std::unique_ptr<CsvPointSource>> Open(
      const std::string& path);

  ~CsvPointSource() override;
  CsvPointSource(const CsvPointSource&) = delete;
  CsvPointSource& operator=(const CsvPointSource&) = delete;

  size_t dim() const override { return dim_; }
  bool Next(std::span<double> out, double* weight) override;
  Status Rewind() override;
  Status status() const override { return status_; }
  bool ReadBlock(PointBlock* block) override;
  Status DecodeBlock(PointBlock* block) const override;

 private:
  explicit CsvPointSource(std::string path);

  std::string path_;
  int fd_ = -1;
  size_t dim_ = 0;
  bool seekable_ = true;  // not a FIFO, socket or character device
  // Where Open() found the first data row; Rewind() starts there.
  uint64_t data_offset_ = 0;
  uint64_t data_line_ = 0;
  // The reader: bytes read past the last whole line handed out, and
  // the number of lines before them.
  std::string carry_;
  uint64_t lines_ = 0;
  bool eof_ = false;
  // Next()'s decoded block and the next row it serves.
  PointBlock current_;
  size_t pos_ = 0;
  Status status_;
};

}  // namespace birch

#endif  // BIRCH_BIRCH_DATASET_IO_H_
