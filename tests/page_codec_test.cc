// Tests for the page compression layer: codec round trips on random
// and adversarial inputs, the ratio >= 1 raw-fallback guarantee, and
// fully bounds-checked envelope decoding — corrupt or hostile bytes
// yield kDataLoss, never UB (this suite also runs under ASan/UBSan as
// page_codec_test.san).
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pagestore/page_codec.h"
#include "util/random.h"

namespace birch {
namespace {

std::vector<uint8_t> RandomBytes(Rng* rng, size_t n) {
  std::vector<uint8_t> out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng->Next() & 0xffu);
  return out;
}

// A CF-page-shaped payload: runs of similar-magnitude doubles followed
// by a zero tail — the case the delta + shuffle + RLE pipeline exists
// for. Must compress well below raw.
std::vector<uint8_t> CfLikePage(Rng* rng, size_t n_doubles, size_t page) {
  std::vector<double> vals(n_doubles);
  double base = 1000.0 + rng->NextDouble();
  for (auto& v : vals) v = base + rng->NextDouble() * 0.01;
  std::vector<uint8_t> out(page, 0);
  size_t n = std::min(page, n_doubles * sizeof(double));
  if (n > 0) std::memcpy(out.data(), vals.data(), n);
  return out;
}

// The envelope's flags byte; bit 0 set means the payload is stored
// verbatim (the codec declined).
bool IsRawFallback(const std::vector<uint8_t>& stored) {
  return stored.size() >= kPageEnvelopeHeaderBytes && (stored[3] & 0x01);
}

// A hand-built delta-rle payload in an otherwise valid envelope that
// claims `raw_len` decoded bytes.
std::vector<uint8_t> DeltaRleEnvelope(const std::vector<uint8_t>& payload,
                                      uint32_t raw_len) {
  std::vector<uint8_t> env(kPageEnvelopeHeaderBytes);
  env[0] = kPageEnvelopeMagic;
  env[1] = kPageEnvelopeVersion;
  env[2] = static_cast<uint8_t>(PageCodecKind::kDeltaRle);
  env[3] = 0;
  const uint32_t comp_len = static_cast<uint32_t>(payload.size());
  std::memcpy(env.data() + 4, &raw_len, 4);
  std::memcpy(env.data() + 8, &comp_len, 4);
  env.insert(env.end(), payload.begin(), payload.end());
  return env;
}

TEST(PageCodecTest, NamesRoundTrip) {
  for (auto k : {PageCodecKind::kNone, PageCodecKind::kDeltaRle}) {
    PageCodecKind back;
    ASSERT_TRUE(ParsePageCodecName(PageCodecName(k), &back));
    EXPECT_EQ(back, k);
  }
  PageCodecKind out;
  EXPECT_FALSE(ParsePageCodecName("zstd", &out));
  EXPECT_FALSE(ParsePageCodecName("", &out));
}

// Property: Decode(Encode(x)) == x for every input the codec accepts,
// across sizes that exercise the word/tail split (0, 1, 7, 8, 9 bytes,
// non-multiples of 8, typical page sizes).
TEST(PageCodecTest, EnvelopeRoundTripsAllSizesAndShapes) {
  Rng rng(31);
  const size_t sizes[] = {0, 1, 7, 8, 9, 15, 63, 64, 100, 1000, 1024, 4096};
  for (size_t n : sizes) {
    for (int variant = 0; variant < 3; ++variant) {
      std::vector<uint8_t> raw;
      switch (variant) {
        case 0:  // incompressible noise -> exercises raw fallback
          raw = RandomBytes(&rng, n);
          break;
        case 1:  // all zeros -> maximal compression
          raw.assign(n, 0);
          break;
        default:  // CF-like doubles + zero tail
          raw = CfLikePage(&rng, n / 16, n);
      }
      std::vector<uint8_t> stored =
          EncodePageEnvelope(PageCodecKind::kDeltaRle, raw);
      // Ratio >= 1 unconditionally: the envelope never exceeds raw
      // plus its fixed header.
      EXPECT_LE(stored.size(), raw.size() + kPageEnvelopeHeaderBytes)
          << "size " << n << " variant " << variant;
      std::vector<uint8_t> back;
      ASSERT_TRUE(DecodePageEnvelope(stored, &back).ok())
          << "size " << n << " variant " << variant;
      EXPECT_EQ(back, raw) << "size " << n << " variant " << variant;
    }
  }
}

TEST(PageCodecTest, CfLikePagesCompressWell) {
  Rng rng(77);
  std::vector<uint8_t> raw = CfLikePage(&rng, 32, 1024);
  std::vector<uint8_t> stored =
      EncodePageEnvelope(PageCodecKind::kDeltaRle, raw);
  EXPECT_FALSE(IsRawFallback(stored));
  // The zero tail alone guarantees a big win on this shape.
  EXPECT_LT(stored.size(), raw.size() / 2);
}

TEST(PageCodecTest, IncompressibleInputFallsBackRatioAtLeastOne) {
  Rng rng(123);
  std::vector<uint8_t> raw = RandomBytes(&rng, 1024);
  std::vector<uint8_t> stored =
      EncodePageEnvelope(PageCodecKind::kDeltaRle, raw);
  EXPECT_TRUE(IsRawFallback(stored));
  EXPECT_EQ(stored.size(), raw.size() + kPageEnvelopeHeaderBytes);
  std::vector<uint8_t> back;
  ASSERT_TRUE(DecodePageEnvelope(stored, &back).ok());
  EXPECT_EQ(back, raw);
}

// Random round trips across many seeds: the fuzz-shaped property pass.
TEST(PageCodecTest, RandomRoundTripProperty) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed);
    size_t n = 1 + static_cast<size_t>(rng.Next() % 2048);
    std::vector<uint8_t> raw = RandomBytes(&rng, n);
    // Sprinkle zero runs so both the literal and run paths fire.
    for (size_t i = 0; i + 16 < raw.size(); i += 64) {
      std::memset(raw.data() + i, 0, 16);
    }
    std::vector<uint8_t> stored =
        EncodePageEnvelope(PageCodecKind::kDeltaRle, raw);
    std::vector<uint8_t> back;
    ASSERT_TRUE(DecodePageEnvelope(stored, &back).ok()) << "seed " << seed;
    EXPECT_EQ(back, raw) << "seed " << seed;
  }
}

TEST(PageCodecTest, HeaderValidationRejectsDamage) {
  Rng rng(9);
  std::vector<uint8_t> raw = CfLikePage(&rng, 16, 256);
  std::vector<uint8_t> good =
      EncodePageEnvelope(PageCodecKind::kDeltaRle, raw);
  std::vector<uint8_t> back;

  // Shorter than the header.
  std::vector<uint8_t> tiny(good.begin(),
                            good.begin() + kPageEnvelopeHeaderBytes - 1);
  EXPECT_EQ(DecodePageEnvelope(tiny, &back).code(), StatusCode::kDataLoss);
  EXPECT_EQ(DecodePageEnvelope({}, &back).code(), StatusCode::kDataLoss);

  // Bad magic.
  std::vector<uint8_t> bad = good;
  bad[0] ^= 0xff;
  EXPECT_EQ(DecodePageEnvelope(bad, &back).code(), StatusCode::kDataLoss);

  // Unsupported version.
  bad = good;
  bad[1] = 0x7e;
  EXPECT_EQ(DecodePageEnvelope(bad, &back).code(), StatusCode::kDataLoss);

  // Unknown codec id.
  bad = good;
  bad[2] = 0x44;
  EXPECT_EQ(DecodePageEnvelope(bad, &back).code(), StatusCode::kDataLoss);

  // Payload-length field inconsistent with the buffer.
  bad = good;
  bad[8] ^= 0x01;
  EXPECT_EQ(DecodePageEnvelope(bad, &back).code(), StatusCode::kDataLoss);

  // Truncated payload.
  bad = good;
  bad.pop_back();
  EXPECT_EQ(DecodePageEnvelope(bad, &back).code(), StatusCode::kDataLoss);

  // Raw-fallback flag set but comp_len != raw_len.
  bad = good;
  bad[3] |= 0x01;
  EXPECT_EQ(DecodePageEnvelope(bad, &back).code(), StatusCode::kDataLoss);
}

// Every single-bit flip of a compressed envelope must decode to either
// OK (the flip hit a spot the format tolerates, e.g. inside a literal
// byte — the checkpoint's section CRC catches those before decode)
// or kDataLoss. Never a crash, never out-of-bounds — the .san variant
// of this test is the actual assertion of that.
TEST(PageCodecTest, BitFlippedEnvelopesNeverMisbehave) {
  Rng rng(55);
  std::vector<uint8_t> raw = CfLikePage(&rng, 24, 512);
  std::vector<uint8_t> good =
      EncodePageEnvelope(PageCodecKind::kDeltaRle, raw);
  ASSERT_FALSE(IsRawFallback(good));
  std::vector<uint8_t> back;
  for (size_t bit = 0; bit < good.size() * 8; ++bit) {
    std::vector<uint8_t> mut = good;
    mut[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    Status st = DecodePageEnvelope(mut, &back);
    if (st.ok()) {
      // A tolerated flip must still reconstruct exactly raw_len bytes.
      EXPECT_EQ(back.size(), raw.size()) << "bit " << bit;
    } else {
      EXPECT_EQ(st.code(), StatusCode::kDataLoss) << "bit " << bit;
    }
  }
}

// Adversarial RLE payloads: hand-built compressed streams that lie
// about lengths in every way the decoder checks for.
TEST(PageCodecTest, AdversarialRlePayloadsAreDataLoss) {
  std::vector<uint8_t> out;
  auto decode = [&out](const std::vector<uint8_t>& payload) {
    return DecodePageEnvelope(DeltaRleEnvelope(payload, 16), &out).code();
  };

  // Truncated zero run: a 0x00 marker with no run length after it.
  EXPECT_EQ(decode({0x01, 0x02, 0x00}), StatusCode::kDataLoss);

  // Zero-length run.
  EXPECT_EQ(decode({0x00, 0x00}), StatusCode::kDataLoss);

  // Run overruns the declared output size.
  EXPECT_EQ(decode({0x00, 0xff}), StatusCode::kDataLoss);

  // Literals overrun the output.
  EXPECT_EQ(decode(std::vector<uint8_t>(32, 0x5a)), StatusCode::kDataLoss);

  // Payload underruns the output (too few decoded bytes).
  EXPECT_EQ(decode({0x01}), StatusCode::kDataLoss);

  // Empty payload for a nonzero expectation.
  EXPECT_EQ(decode({}), StatusCode::kDataLoss);
}

// A crafted header whose u32 raw_len is maxed must be rejected before
// any allocation: zero-RLE expands at most 255x per payload byte, so a
// tiny payload can never legitimately decode to gigabytes. (This is
// the memory-exhaustion guard — without it a 12-byte envelope demands
// a 4 GB zeroed buffer.)
TEST(PageCodecTest, ImplausibleRawLengthIsRejectedWithoutAllocating) {
  std::vector<uint8_t> junk(kPageEnvelopeHeaderBytes + 4, 0x01);
  junk[0] = kPageEnvelopeMagic;
  junk[1] = kPageEnvelopeVersion;
  junk[2] = static_cast<uint8_t>(PageCodecKind::kDeltaRle);
  junk[3] = 0;
  uint32_t raw_len = 0xffffffffu;
  uint32_t comp_len = 4;
  std::memcpy(junk.data() + 4, &raw_len, 4);
  std::memcpy(junk.data() + 8, &comp_len, 4);
  std::vector<uint8_t> back;
  EXPECT_EQ(DecodePageEnvelope(junk, &back).code(), StatusCode::kDataLoss);
}

// Fuzz-shaped decode sweep: random garbage through the envelope path.
// Anything may be rejected; nothing may crash or read out of bounds.
TEST(PageCodecTest, RandomGarbageEnvelopesNeverCrash) {
  Rng rng(2026);
  std::vector<uint8_t> back;
  for (int i = 0; i < 500; ++i) {
    size_t n = static_cast<size_t>(rng.Next() % 300);
    std::vector<uint8_t> junk = RandomBytes(&rng, n);
    // Half the time, make the header plausible so the payload decoder
    // actually runs instead of the magic check rejecting everything.
    if (n >= kPageEnvelopeHeaderBytes && (i % 2) == 0) {
      junk[0] = kPageEnvelopeMagic;
      junk[1] = kPageEnvelopeVersion;
      junk[2] = static_cast<uint8_t>(PageCodecKind::kDeltaRle);
      junk[3] &= 0x01;
      uint32_t comp =
          static_cast<uint32_t>(n - kPageEnvelopeHeaderBytes);
      std::memcpy(junk.data() + 8, &comp, 4);
    }
    Status st = DecodePageEnvelope(junk, &back);
    if (!st.ok()) EXPECT_EQ(st.code(), StatusCode::kDataLoss);
  }
}

}  // namespace
}  // namespace birch
