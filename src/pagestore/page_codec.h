// Transparent per-page compression for the PageStore (ROADMAP item 2,
// ZipCache-style). CF pages are highly compressible — runs of sorted,
// similar-magnitude doubles plus a zero tail — so every page can be
// stored as a compact "envelope" instead of page_size raw bytes. The
// store still charges each page its raw size, so compression shrinks
// the device image without changing what fits.
//
// Pipeline (applied inside PageStore::Write, undone in Read):
//
//   raw page bytes
//     -> XOR-delta over consecutive 64-bit words   (similar doubles ->
//        words that differ only in low mantissa bits)
//     -> byte-plane shuffle (transpose)            (gathers the now-
//        mostly-zero sign/exponent/high-mantissa bytes into long runs)
//     -> entropy stage (pluggable; built-in: zero run-length coding)
//     -> raw fallback when the pipeline does not beat the input, so the
//        stored size never exceeds raw + envelope header (ratio >= 1).
//
// Envelope layout (little-endian), CRC32C'd as stored — the checksum
// covers the *compressed* image, so bit rot inside a compressed payload
// is caught before the decoder ever sees it:
//
//   [u8 magic 0xC5][u8 version][u8 codec][u8 flags][u32 raw_len]
//   [u32 comp_len][payload: comp_len bytes]
//
// `flags` bit 0 set means the payload is the raw bytes verbatim (the
// fallback); `codec` then records which codec declined. The decoder is
// fully bounds-checked: a corrupt or adversarial envelope yields an
// error status, never out-of-bounds access (exercised under asan/ubsan).
#ifndef BIRCH_PAGESTORE_PAGE_CODEC_H_
#define BIRCH_PAGESTORE_PAGE_CODEC_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace birch {

/// Which codec a store (or checkpoint file) runs its pages through.
/// Values are persisted in page envelopes and checkpoint headers —
/// never renumber.
enum class PageCodecKind : uint8_t {
  kNone = 0,      // pages stored raw, envelope-free (the v1 format)
  kDeltaRle = 1,  // XOR-delta + byte-shuffle + zero-RLE entropy stage
};

/// Stable lowercase name ("none", "delta-rle") for flags and reports.
const char* PageCodecName(PageCodecKind kind);

/// Parses a PageCodecName back; false on unknown names.
bool ParsePageCodecName(std::string_view name, PageCodecKind* out);

/// A page compressor: the delta + byte-shuffle transform is shared, the
/// entropy stage behind Encode/Decode is what implementations plug in.
class PageCodec {
 public:
  virtual ~PageCodec() = default;

  virtual PageCodecKind kind() const = 0;

  /// Compresses `raw` into `*out` (payload only, no envelope). Returns
  /// false when the codec cannot beat storing `raw` verbatim — the
  /// caller then writes a raw-fallback envelope, which is what makes
  /// the ratio >= 1 guarantee unconditional.
  virtual bool Encode(std::span<const uint8_t> raw,
                      std::vector<uint8_t>* out) const = 0;

  /// Inverse of Encode: reconstructs exactly `raw_len` bytes into
  /// `*out`. Must be safe on arbitrary payload bytes: any mismatch
  /// (truncation, trailing garbage, wrong output size) is an error
  /// status, never UB.
  virtual Status Decode(std::span<const uint8_t> payload, size_t raw_len,
                        std::vector<uint8_t>* out) const = 0;
};

/// Static registry lookup; nullptr for kNone (no codec to run).
const PageCodec* GetPageCodec(PageCodecKind kind);

/// Fixed envelope header size in bytes.
inline constexpr size_t kPageEnvelopeHeaderBytes = 12;
inline constexpr uint8_t kPageEnvelopeMagic = 0xC5;
inline constexpr uint8_t kPageEnvelopeVersion = 1;

/// Encodes `raw` through `kind` into a self-describing envelope
/// (falling back to a raw payload when compression does not pay).
/// Output size is at most raw.size() + kPageEnvelopeHeaderBytes.
/// `kind` must not be kNone.
std::vector<uint8_t> EncodePageEnvelope(PageCodecKind kind,
                                        std::span<const uint8_t> raw);

/// Decodes an envelope produced by EncodePageEnvelope back into the
/// original raw bytes. Rejects bad magic/version/lengths/codec ids and
/// payloads that do not reconstruct exactly raw_len bytes with
/// kDataLoss — by the time this runs the CRC already passed, so any
/// inconsistency means the image is damaged (or was never an envelope).
Status DecodePageEnvelope(std::span<const uint8_t> stored,
                          std::vector<uint8_t>* raw);

/// True when the envelope payload was stored verbatim (codec declined).
/// Only meaningful on a buffer DecodePageEnvelope accepts.
bool PageEnvelopeIsRawFallback(std::span<const uint8_t> stored);

}  // namespace birch

#endif  // BIRCH_PAGESTORE_PAGE_CODEC_H_
