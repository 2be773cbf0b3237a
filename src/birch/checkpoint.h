// Durable checkpoint files for streaming ingest — the operational form
// of the paper's "stop and resume a scan" claim. A checkpoint captures
// one or more Phase1Freeze images (one per shard; serial runs write
// exactly one) plus a fingerprint of the options that produced them,
// framed and CRC32C-checksummed so torn, truncated, or bit-rotted
// files are detected as kCorruption — never silently decoded into a
// different clustering.
//
// File layout (all integers little-endian):
//   magic "BIRCHCP1" (8 bytes)
//   header section, then one section per freeze, then a footer section
// Section framing:
//   [u32 tag][u64 payload_bytes][payload][u32 crc32c(payload)]
// The footer closes the file; a missing or invalid footer means the
// writer died mid-write (truncation) and the file is rejected.
//
// Writes are atomic: the image is staged to "<path>.tmp" and renamed
// over `path`, so a crash during SaveCheckpoint leaves the previous
// checkpoint intact.
#ifndef BIRCH_BIRCH_CHECKPOINT_H_
#define BIRCH_BIRCH_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "birch/options.h"
#include "birch/phase1.h"
#include "util/status.h"

namespace birch {

/// Current on-disk format version. Readers reject versions they do not
/// know (InvalidArgument, not Corruption: the file is fine, we are old).
/// v2 added the CF-representation and scalar-width fingerprint fields
/// to the header and the tree image; v1 files predate them and are
/// rejected as unsupported. The width is always 64 now: a v2 file with
/// width 32 was written under the retired float32 CF storage and is
/// rejected the same way (InvalidArgument naming float32 storage).
///
/// Still v2: a trailing `page_codec` header field and compressed
/// freeze sections. The field is optional on read — v2 files written
/// before compression existed have no codec field and decode with
/// page_codec = 0 (raw sections), so old uncompressed checkpoints
/// still load. When page_codec != 0 every freeze-section payload is a
/// page envelope (pagestore/page_codec.h); the section CRC32C covers
/// the compressed image. The codec compresses these sections only:
/// the header, the footer and the run's outlier disk stay raw.
inline constexpr uint32_t kCheckpointVersion = 2;

/// In-memory form of one checkpoint file: the options fingerprint that
/// must match on restore, the resume offset, and the frozen builders.
struct CheckpointImage {
  uint32_t version = kCheckpointVersion;
  // --- Options fingerprint (validated by BirchClusterer::Restore) ---
  uint64_t dim = 0;
  uint64_t page_size = 0;
  uint32_t metric = 0;          // static_cast of DistanceMetric
  uint32_t threshold_kind = 0;  // static_cast of ThresholdKind
  /// static_cast of CfRepresentation: pages and freezes decode under
  /// this CF algebra. Restoring a checkpoint under the other
  /// representation is rejected (kInvalidArgument), never misread.
  uint32_t cf_representation = 0;
  /// Stored CF component width in bits: always 64 (doubles).
  uint32_t scalar_width = 64;
  /// static_cast of PageCodecKind: 0 = raw freeze sections; != 0 means
  /// the freeze sections are stored as compressed page envelopes under
  /// this codec. Part of the fingerprint — restoring under a different
  /// resources.page_codec is rejected, since the freeze sections are
  /// encoded under it.
  uint32_t page_codec = 0;
  /// 0 = serial image (exactly one freeze); N >= 1 = sharded image
  /// written by an N-shard run (exactly N freezes, shard order).
  uint32_t shard_count = 0;
  /// Points the checkpointed run had ingested; the resume offset into
  /// the original stream.
  uint64_t points_ingested = 0;
  std::vector<Phase1Freeze> freezes;

  /// The fingerprint of `options` (every field above shard_count), with
  /// no freezes: what SaveCheckpoint and the sharded checkpoint hook
  /// write, and what Restore holds a file to.
  static CheckpointImage For(const BirchOptions& options);

  /// OK when this image's fingerprint equals For(options); otherwise
  /// InvalidArgument naming the first field that differs.
  Status MatchesOptions(const BirchOptions& options) const;
};

/// Serializes `image` and atomically replaces `path` with it. IOError
/// on filesystem failure.
Status WriteCheckpointFile(const std::string& path,
                           const CheckpointImage& image);

/// Parses a checkpoint file. Corruption on bad magic, bad framing,
/// checksum mismatch, truncation, or a payload that does not decode;
/// InvalidArgument on an unknown format version; IOError when the file
/// cannot be read at all.
StatusOr<CheckpointImage> ReadCheckpointFile(const std::string& path);

}  // namespace birch

#endif  // BIRCH_BIRCH_CHECKPOINT_H_
