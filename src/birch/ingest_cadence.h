// The auto-checkpoint / auto-publish cadence of one Phase-1 stream,
// shared by the serial ingest path (BirchClusterer::AddBatch) and the
// sharded dealer (RunShardedPhase1). Both boundaries count points from
// the absolute start of the original stream, so a resumed run fires at
// the same positions as the uninterrupted one.
#ifndef BIRCH_BIRCH_INGEST_CADENCE_H_
#define BIRCH_BIRCH_INGEST_CADENCE_H_

#include <algorithm>
#include <cstdint>
#include <limits>

namespace birch {

/// The boundaries one stream position landed on.
struct CadenceDue {
  bool checkpoint = false;
  bool publish = false;
  bool any() const { return checkpoint || publish; }
};

class IngestCadence {
 public:
  static constexpr uint64_t kUnlimited = std::numeric_limits<uint64_t>::max();

  /// No boundaries at all.
  IngestCadence() = default;
  /// Boundaries every `checkpoint_every_n` and every `publish_every_n`
  /// points (0 = never), starting at stream `position`.
  IngestCadence(uint64_t checkpoint_every_n, uint64_t publish_every_n,
                uint64_t position = 0)
      : checkpoint_every_(checkpoint_every_n),
        publish_every_(publish_every_n),
        position_(position),
        next_checkpoint_(FirstAfter(checkpoint_every_n, position)),
        next_publish_(FirstAfter(publish_every_n, position)) {}

  /// Points that can be ingested before the next boundary is reached
  /// (kUnlimited when neither cadence is set).
  uint64_t Room() const {
    const uint64_t next = std::min(next_checkpoint_, next_publish_);
    return next == kUnlimited ? kUnlimited : next - position_;
  }

  /// Records `n` more ingested points (at most Room()) and reports
  /// which boundaries the new position lands on.
  CadenceDue Advance(uint64_t n) {
    position_ += n;
    CadenceDue due;
    if (position_ == next_checkpoint_) {
      due.checkpoint = true;
      next_checkpoint_ += checkpoint_every_;
    }
    if (position_ == next_publish_) {
      due.publish = true;
      next_publish_ += publish_every_;
    }
    return due;
  }

  uint64_t position() const { return position_; }

 private:
  static uint64_t FirstAfter(uint64_t every, uint64_t position) {
    return every == 0 ? kUnlimited : (position / every + 1) * every;
  }

  uint64_t checkpoint_every_ = 0;
  uint64_t publish_every_ = 0;
  uint64_t position_ = 0;
  uint64_t next_checkpoint_ = kUnlimited;
  uint64_t next_publish_ = kUnlimited;
};

}  // namespace birch

#endif  // BIRCH_BIRCH_INGEST_CADENCE_H_
