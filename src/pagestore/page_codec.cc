#include "pagestore/page_codec.h"

#include <cstring>
#include <string>

namespace birch {
namespace {

// ---------------------------------------------------------------------
// Shared transform: XOR-delta over 64-bit words, then a byte-plane
// shuffle (transpose). Both are exact inverses of themselves run in the
// opposite order, and both are defined for any length — bytes past the
// last full word ride along untransformed at the end of the buffer.

size_t WordCount(size_t n) { return n / 8; }

// raw -> [plane0 .. plane7][tail], with plane k holding byte k of every
// XOR-delta'd word.
void ForwardTransform(std::span<const uint8_t> raw,
                      std::vector<uint8_t>* out) {
  const size_t words = WordCount(raw.size());
  out->resize(raw.size());
  uint64_t prev = 0;
  for (size_t i = 0; i < words; ++i) {
    uint64_t w;
    std::memcpy(&w, raw.data() + i * 8, 8);
    const uint64_t delta = w ^ prev;
    prev = w;
    for (size_t plane = 0; plane < 8; ++plane) {
      (*out)[plane * words + i] =
          static_cast<uint8_t>((delta >> (plane * 8)) & 0xffu);
    }
  }
  const size_t tail = raw.size() - words * 8;
  if (tail > 0) {
    std::memcpy(out->data() + words * 8, raw.data() + words * 8, tail);
  }
}

void InverseTransform(std::span<const uint8_t> transformed,
                      std::vector<uint8_t>* out) {
  const size_t words = WordCount(transformed.size());
  out->resize(transformed.size());
  uint64_t prev = 0;
  for (size_t i = 0; i < words; ++i) {
    uint64_t delta = 0;
    for (size_t plane = 0; plane < 8; ++plane) {
      delta |= static_cast<uint64_t>(transformed[plane * words + i])
               << (plane * 8);
    }
    const uint64_t w = delta ^ prev;
    prev = w;
    std::memcpy(out->data() + i * 8, &w, 8);
  }
  const size_t tail = transformed.size() - words * 8;
  if (tail > 0) {
    std::memcpy(out->data() + words * 8, transformed.data() + words * 8,
                tail);
  }
}

// ---------------------------------------------------------------------
// Entropy stage: zero run-length coding. A zero byte is emitted as the
// pair {0x00, run_len 1..255}; any other byte is a one-byte literal.
// After the transform the sign/exponent/high-mantissa planes and the
// page's zero tail are long zero runs, which is where the ratio comes
// from.

void ZeroRleEncode(std::span<const uint8_t> in, std::vector<uint8_t>* out) {
  out->clear();
  out->reserve(in.size());
  size_t i = 0;
  while (i < in.size()) {
    const uint8_t b = in[i];
    if (b != 0) {
      out->push_back(b);
      ++i;
      continue;
    }
    size_t run = 1;
    while (run < 255 && i + run < in.size() && in[i + run] == 0) ++run;
    out->push_back(0);
    out->push_back(static_cast<uint8_t>(run));
    i += run;
  }
}

// Bounds-checked decode: every read and write is range-verified, and
// the output must land on exactly `expect` bytes with no input left
// over. Any violation means a damaged payload.
Status ZeroRleDecode(std::span<const uint8_t> in, size_t expect,
                     std::vector<uint8_t>* out) {
  out->clear();
  out->resize(expect, 0);
  size_t w = 0;
  size_t i = 0;
  while (i < in.size()) {
    const uint8_t b = in[i++];
    if (b != 0) {
      if (w >= expect) return Status::DataLoss("rle output overrun");
      (*out)[w++] = b;
      continue;
    }
    if (i >= in.size()) return Status::DataLoss("rle truncated zero run");
    const size_t run = in[i++];
    if (run == 0) return Status::DataLoss("rle zero-length run");
    if (w + run > expect) return Status::DataLoss("rle output overrun");
    w += run;  // output is pre-zeroed
  }
  if (w != expect) return Status::DataLoss("rle output underrun");
  return Status::OK();
}

// The delta-rle payload of `raw`; false when it does not beat storing
// `raw` verbatim, which is what makes the ratio >= 1 guarantee
// unconditional.
bool DeltaRleEncode(std::span<const uint8_t> raw, std::vector<uint8_t>* out) {
  std::vector<uint8_t> transformed;
  ForwardTransform(raw, &transformed);
  ZeroRleEncode(transformed, out);
  return out->size() < raw.size();
}

// Inverse of DeltaRleEncode: exactly `raw_len` bytes, or DataLoss.
Status DeltaRleDecode(std::span<const uint8_t> payload, size_t raw_len,
                      std::vector<uint8_t>* out) {
  // A zero run expands one payload pair to at most 255 bytes, so any
  // raw_len beyond 255x the payload is a lie — reject it before
  // allocating, or a crafted 12-byte envelope could demand a 4 GB
  // zeroed buffer just by maxing the u32 length field.
  if (raw_len > payload.size() * 255) {
    return Status::DataLoss("rle raw length implausible for payload");
  }
  std::vector<uint8_t> transformed;
  BIRCH_RETURN_IF_ERROR(ZeroRleDecode(payload, raw_len, &transformed));
  InverseTransform(transformed, out);
  return Status::OK();
}

constexpr uint8_t kFlagRawFallback = 0x01;

uint32_t LoadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 |
         static_cast<uint32_t>(p[3]) << 24;
}

void StoreU32(uint32_t v, uint8_t* p) {
  p[0] = static_cast<uint8_t>(v & 0xffu);
  p[1] = static_cast<uint8_t>((v >> 8) & 0xffu);
  p[2] = static_cast<uint8_t>((v >> 16) & 0xffu);
  p[3] = static_cast<uint8_t>((v >> 24) & 0xffu);
}

}  // namespace

const char* PageCodecName(PageCodecKind kind) {
  switch (kind) {
    case PageCodecKind::kNone:
      return "none";
    case PageCodecKind::kDeltaRle:
      return "delta-rle";
  }
  return "unknown";
}

bool ParsePageCodecName(std::string_view name, PageCodecKind* out) {
  if (name == "none") {
    *out = PageCodecKind::kNone;
    return true;
  }
  if (name == "delta-rle") {
    *out = PageCodecKind::kDeltaRle;
    return true;
  }
  return false;
}

std::vector<uint8_t> EncodePageEnvelope(PageCodecKind kind,
                                        std::span<const uint8_t> raw) {
  std::vector<uint8_t> payload;
  uint8_t flags = 0;
  if (kind != PageCodecKind::kDeltaRle || !DeltaRleEncode(raw, &payload)) {
    // Raw fallback: compression did not pay, store the bytes verbatim.
    payload.assign(raw.begin(), raw.end());
    flags = kFlagRawFallback;
  }
  std::vector<uint8_t> stored(kPageEnvelopeHeaderBytes + payload.size());
  stored[0] = kPageEnvelopeMagic;
  stored[1] = kPageEnvelopeVersion;
  stored[2] = static_cast<uint8_t>(kind);
  stored[3] = flags;
  StoreU32(static_cast<uint32_t>(raw.size()), stored.data() + 4);
  StoreU32(static_cast<uint32_t>(payload.size()), stored.data() + 8);
  if (!payload.empty()) {
    std::memcpy(stored.data() + kPageEnvelopeHeaderBytes, payload.data(),
                payload.size());
  }
  return stored;
}

Status DecodePageEnvelope(std::span<const uint8_t> stored,
                          std::vector<uint8_t>* raw) {
  if (stored.size() < kPageEnvelopeHeaderBytes) {
    return Status::DataLoss("page envelope shorter than its header");
  }
  if (stored[0] != kPageEnvelopeMagic) {
    return Status::DataLoss("page envelope magic mismatch");
  }
  if (stored[1] != kPageEnvelopeVersion) {
    return Status::DataLoss("unsupported page envelope version " +
                            std::to_string(stored[1]));
  }
  const uint8_t codec_id = stored[2];
  const uint8_t flags = stored[3];
  const size_t raw_len = LoadU32(stored.data() + 4);
  const size_t comp_len = LoadU32(stored.data() + 8);
  if (comp_len != stored.size() - kPageEnvelopeHeaderBytes) {
    return Status::DataLoss("page envelope payload length mismatch");
  }
  std::span<const uint8_t> payload =
      stored.subspan(kPageEnvelopeHeaderBytes, comp_len);
  if (flags & kFlagRawFallback) {
    if (comp_len != raw_len) {
      return Status::DataLoss("raw-fallback envelope length mismatch");
    }
    raw->assign(payload.begin(), payload.end());
    return Status::OK();
  }
  if (codec_id != static_cast<uint8_t>(PageCodecKind::kDeltaRle)) {
    return Status::DataLoss("page envelope names unknown codec " +
                            std::to_string(codec_id));
  }
  return DeltaRleDecode(payload, raw_len, raw);
}

}  // namespace birch
