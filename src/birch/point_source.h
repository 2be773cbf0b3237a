// Streaming point sources. BIRCH is a single-scan algorithm; nothing
// in Phases 1-3 requires the dataset to be resident. A PointSource
// yields points one at a time so arbitrarily large inputs (files,
// generators, cursors) can be clustered inside the fixed memory
// budget — the paper's "very large databases" setting made concrete.
// (Phase 4 refinement needs a second scan; the clusterer rewinds the
// source for it when the source is rewindable.)
#ifndef BIRCH_BIRCH_POINT_SOURCE_H_
#define BIRCH_BIRCH_POINT_SOURCE_H_

#include <algorithm>
#include <span>
#include <string>

#include "birch/dataset.h"
#include "util/status.h"

namespace birch {

/// Pull-based stream of weighted points.
class PointSource {
 public:
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
