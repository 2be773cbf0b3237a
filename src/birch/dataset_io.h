// Numeric CSV input. CsvPointSource is the one CSV reader, streaming a
// file row by row (BIRCH's single scan); ReadCsvPoints() drains it into a
// Dataset. Per line: fields split on ',', ' ', '\t' or '\r', each a whole
// strtod number; '#' starts a comment; blank lines, and lines that do not
// parse before the first data row (headers), are skipped. The first data
// row fixes the arity: a later line that does not parse or has another
// arity ends the stream with InvalidArgument naming its line.
#ifndef BIRCH_BIRCH_DATASET_IO_H_
#define BIRCH_BIRCH_DATASET_IO_H_

#include <fstream>
#include <memory>
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
/// rejects it.
bool ParseCsvNumericRow(const std::string& line, std::vector<double>* out);

/// Drains a CsvPointSource over `path` into a dataset, failing with its
/// Open() or status() error.
StatusOr<Dataset> ReadCsvPoints(const std::string& path);

/// Streaming CSV source: reads the file one row at a time without ever
/// materializing the dataset — BIRCH's single-scan access pattern over
/// a file of arbitrary size. One pass reads front to back, so a pipe
/// works. Rewind() (Phase-4 re-scans) needs a file that can seek: over
/// a FIFO, socket or character device it returns FailedPrecondition,
/// which the clusterer reads as "no Phase 4".
class CsvPointSource : public PointSource {
 public:
  /// Opens `path`, sniffing the dimensionality from the first data row:
  /// IOError if unreadable, InvalidArgument if it holds no data row.
  static StatusOr<std::unique_ptr<CsvPointSource>> Open(
      const std::string& path);

  size_t dim() const override { return dim_; }
  bool Next(std::span<double> out, double* weight) override;
  Status Rewind() override;
  Status status() const override { return status_; }

 private:
  explicit CsvPointSource(std::string path);

  /// The next data row into row_ (any arity while dim_ is 0), or false.
  bool NextRow();

  std::string path_;
  size_t dim_ = 0;
  std::ifstream in_;
  std::string line_;
  std::vector<double> row_;
  size_t line_no_ = 0;
  bool saw_data_ = false;  // header only skippable before first data row
  bool row_pending_ = false;  // row_ holds Open()'s row, not yet returned
  bool seekable_ = true;  // not a FIFO, socket or character device
  Status status_;
};

}  // namespace birch

#endif  // BIRCH_BIRCH_DATASET_IO_H_
