// Streaming point sources. BIRCH is a single-scan algorithm; nothing
// in Phases 1-3 requires the dataset to be resident. A PointSource
// yields points one at a time so arbitrarily large inputs (files,
// generators, cursors) can be clustered inside the fixed memory
// budget — the paper's "very large databases" setting made concrete.
// (Phase 4 refinement needs a second scan; the clusterer rewinds the
// source for it when the source is rewindable.) The sharded Phase-1
// scan and the Phase-4 re-scan both read the source in blocks, so a
// worker pool can decode them (ScanBlocks, birch/block_scan.h); the
// serial Phase-1 scan reads it through Next().
#ifndef BIRCH_BIRCH_POINT_SOURCE_H_
#define BIRCH_BIRCH_POINT_SOURCE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "birch/dataset.h"
#include "util/status.h"

namespace birch {

/// A run of consecutive stream rows: PointSource::ReadBlock() fills it
/// in stream order, PointSource::DecodeBlock() turns it into rows.
struct PointBlock {
  /// Row-major values (size() * dim) and one weight per row.
  std::vector<double> values;
  std::vector<double> weights;
  /// Input still to decode, as the source's DecodeBlock() reads it
  /// (CsvPointSource: whole text lines, the first being file line
  /// `first_line`). Empty for a source that decodes while it reads.
  std::string text;
  uint64_t first_line = 0;

  size_t size() const { return weights.size(); }
};

/// Pull-based stream of weighted points.
///
/// Block contract: ReadBlock() reads the next run of the stream, in
/// order, on the calling thread. DecodeBlock() is const and safe to run
/// on any thread, concurrently with other blocks' DecodeBlock() and with
/// ReadBlock(). Reading every block and decoding each gives the rows
/// Next() gives, in the same order. Between two Rewind()s a caller reads
/// through Next() or through ReadBlock(), not both.
///
/// Pipes: a ReadBlock() over a pipe may block until its writer sends
/// more. Before each ReadBlock(), a block scan takes every block whose
/// decode has already finished, in stream order, so over an idle pipe
/// only the blocks still decoding wait for the next read.
class PointSource {
 public:
  /// Bytes a text block aims at (CsvPointSource).
  static constexpr size_t kBlockBytes = 256 * 1024;
  /// Rows the default ReadBlock() reads. A source that decodes while it
  /// reads gains nothing from large blocks, and a scan reads a live
  /// stream (one whose end comes from outside) only a few blocks ahead
  /// of the rows it has taken.
  static constexpr size_t kBlockRows = 256;

  virtual ~PointSource() = default;

  virtual size_t dim() const = 0;

  /// Fills `out` (size dim()) and `*weight`; returns false at the end
  /// of the stream or on an error, and status() says which.
  virtual bool Next(std::span<double> out, double* weight) = 0;

  /// Why Next() returned false: OK at the end of the stream, else the
  /// error (a malformed file row, a failed read). A source that wraps
  /// another forwards the inner one's.
  virtual Status status() const { return Status::OK(); }

  /// Expected total points, 0 if unknown (threshold heuristic hint).
  virtual uint64_t SizeHint() const { return 0; }

  /// Restarts the stream from the beginning (for Phase-4 re-scans).
  /// Default: FailedPrecondition, unsupported; Phase 4 is skipped.
  virtual Status Rewind() {
    return Status::FailedPrecondition("source is not rewindable");
  }

  /// Reads the next run of the stream into `block` (its previous
  /// contents replaced); false at the end of the stream or on an error,
  /// and status() says which. The default reads kBlockRows rows through
  /// Next() and leaves nothing to decode.
  virtual bool ReadBlock(PointBlock* block) {
    const size_t d = dim();
    block->values.resize(kBlockRows * d);
    block->weights.resize(kBlockRows);
    size_t n = 0;
    while (n < kBlockRows &&
           Next(std::span<double>(block->values).subspan(n * d, d),
                &block->weights[n])) {
      ++n;
    }
    block->values.resize(n * d);
    block->weights.resize(n);
    return n > 0;
  }

  /// Decodes what ReadBlock() left in `block` into its rows. On an
  /// error `block` holds the rows before the bad one. The default has
  /// nothing to decode.
  virtual Status DecodeBlock(PointBlock* /*block*/) const {
    return Status::OK();
  }
};

/// Adapter over an in-memory Dataset (rewindable).
class DatasetSource : public PointSource {
 public:
  /// `data` must outlive the source.
  explicit DatasetSource(const Dataset* data) : data_(data) {}

  size_t dim() const override { return data_->dim(); }
  uint64_t SizeHint() const override { return data_->size(); }

  bool Next(std::span<double> out, double* weight) override {
    if (pos_ >= data_->size()) return false;
    auto row = data_->Row(pos_);
    std::copy(row.begin(), row.end(), out.begin());
    *weight = data_->Weight(pos_);
    ++pos_;
    return true;
  }

  Status Rewind() override {
    pos_ = 0;
    return Status::OK();
  }

 private:
  const Dataset* data_;
  size_t pos_ = 0;
};

}  // namespace birch

#endif  // BIRCH_BIRCH_POINT_SOURCE_H_
