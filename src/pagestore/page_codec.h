// Compression for checkpoint files' freeze sections (birch/checkpoint.h)
// — it compresses nothing else. A freeze holds CF tree pages and spill
// records: runs of similar-magnitude doubles plus zero tails, which the
// delta-rle codec turns into a compact "envelope".
//
// Pipeline (EncodePageEnvelope; DecodePageEnvelope undoes it):
//
//   raw bytes
//     -> XOR-delta over consecutive 64-bit words   (similar doubles ->
//        words that differ only in low mantissa bits)
//     -> byte-plane shuffle (transpose)            (gathers the now-
//        mostly-zero sign/exponent/high-mantissa bytes into long runs)
//     -> zero run-length coding
//     -> raw fallback when the pipeline does not beat the input, so the
//        stored size never exceeds raw + envelope header (ratio >= 1).
//
// Envelope layout (little-endian). The checkpoint's section CRC32C
// covers the envelope as stored, so bit rot inside a compressed payload
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

/// Which codec a checkpoint file runs its freeze sections through.
/// Values are persisted in envelopes and checkpoint headers — never
/// renumber.
enum class PageCodecKind : uint8_t {
  kNone = 0,      // sections stored raw, envelope-free
  kDeltaRle = 1,  // XOR-delta + byte-shuffle + zero-RLE entropy stage
};

/// Stable lowercase name ("none", "delta-rle") for flags and reports.
const char* PageCodecName(PageCodecKind kind);

/// Parses a PageCodecName back; false on unknown names.
bool ParsePageCodecName(std::string_view name, PageCodecKind* out);

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
/// Safe on arbitrary bytes: never UB.
Status DecodePageEnvelope(std::span<const uint8_t> stored,
                          std::vector<uint8_t>* raw);

}  // namespace birch

#endif  // BIRCH_PAGESTORE_PAGE_CODEC_H_
