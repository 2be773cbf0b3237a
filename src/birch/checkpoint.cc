#include "birch/checkpoint.h"

#include <cstdio>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "pagestore/crc32c.h"
#include "util/timer.h"

namespace birch {

namespace {

constexpr char kMagic[8] = {'B', 'I', 'R', 'C', 'H', 'C', 'P', '1'};

// Section tags.
constexpr uint32_t kHeaderTag = 1;
constexpr uint32_t kFreezeTag = 2;
constexpr uint32_t kFooterTag = 3;

/// The header's trailing codec field in files written with the retired
/// delta-rle checkpoint codec (compressed freeze sections).
constexpr uint32_t kRetiredDeltaRleCodec = 1;

/// Little-endian append-only encoder.
class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(uint8_t(v >> (8 * i)));
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(uint8_t(v >> (8 * i)));
  }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Bytes(const uint8_t* p, size_t n) { buf_.insert(buf_.end(), p, p + n); }
  void Doubles(const std::vector<double>& v) {
    for (double d : v) F64(d);
  }
  const std::vector<uint8_t>& data() const { return buf_; }

 private:
  std::vector<uint8_t> buf_;
};

/// Bounds-checked little-endian decoder. Every getter returns false on
/// underflow; the caller turns that into kCorruption.
class ByteReader {
 public:
  ByteReader(const uint8_t* p, size_t n) : p_(p), end_(p + n) {}

  size_t remaining() const { return static_cast<size_t>(end_ - p_); }
  bool done() const { return p_ == end_; }

  bool U8(uint8_t* v) {
    if (remaining() < 1) return false;
    *v = *p_++;
    return true;
  }
  bool U32(uint32_t* v) {
    if (remaining() < 4) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) *v |= uint32_t(*p_++) << (8 * i);
    return true;
  }
  bool U64(uint64_t* v) {
    if (remaining() < 8) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) *v |= uint64_t(*p_++) << (8 * i);
    return true;
  }
  bool F64(double* v) {
    uint64_t bits;
    if (!U64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  /// Reads `n` doubles; refuses counts larger than what is left.
  bool Doubles(uint64_t n, std::vector<double>* out) {
    if (remaining() / 8 < n) return false;
    out->resize(static_cast<size_t>(n));
    for (auto& d : *out) {
      if (!F64(&d)) return false;
    }
    return true;
  }
  bool Bytes(uint64_t n, std::vector<uint8_t>* out) {
    if (remaining() < n) return false;
    out->assign(p_, p_ + n);
    p_ += n;
    return true;
  }

 private:
  const uint8_t* p_;
  const uint8_t* end_;
};

void EncodeFreeze(const Phase1Freeze& f, ByteWriter* w) {
  // Tree image + node records.
  w->U64(f.image.root);
  w->U64(f.image.dim);
  w->U64(f.image.page_size);
  w->F64(f.image.threshold);
  w->U64(f.image.node_count);
  w->U64(f.image.leaf_entries);
  w->U64(f.image.height);
  w->U32(static_cast<uint32_t>(f.image.cf));
  w->U32(64);  // CF component width in bits
  w->U64(f.image.leaf_chain.size());
  for (PageId id : f.image.leaf_chain) w->U64(id);
  w->U64(f.image.records.size());
  for (const auto& record : f.image.records) {
    w->U64(record.size());
    w->Bytes(record.data(), record.size());
  }
  // Pending spill records.
  w->U64(f.outlier_records.size());
  w->Doubles(f.outlier_records);
  w->U64(f.delayed_records.size());
  w->Doubles(f.delayed_records);
  // Threshold history.
  w->U64(f.threshold_history.size());
  for (const auto& obs : f.threshold_history) {
    w->F64(obs.log_points);
    w->F64(obs.log_radius);
  }
  // Final outliers (dim+2 doubles each, CfVector wire form).
  w->U64(f.final_outliers.size());
  std::vector<double> cf_buf;
  for (const auto& e : f.final_outliers) {
    cf_buf.clear();
    e.SerializeTo(&cf_buf);
    w->Doubles(cf_buf);
  }
  // Counters.
  w->U64(f.stats.points_added);
  w->U64(f.stats.rebuilds);
  w->U64(f.stats.outlier_entries_spilled);
  w->U64(f.stats.outlier_entries_reabsorbed);
  w->U64(f.stats.points_delay_spilled);
  w->U64(f.stats.reabsorb_cycles);
  w->U64(f.stats.forced_inserts);
  w->F64(f.stats.final_threshold);
  w->U64(f.robustness.transient_io_errors);
  w->U64(f.robustness.io_retries);
  w->U64(f.robustness.simulated_backoff_us);
  w->U64(f.robustness.checksum_failures);
  w->U64(f.robustness.pages_lost);
  w->U64(f.robustness.records_lost);
  w->U64(f.robustness.degradation_events);
  w->U64(f.robustness.fallback_absorbed);
  w->U64(f.robustness.fallback_dropped);
  w->U8(f.robustness.outlier_disk_disabled ? 1 : 0);
  // Modes + fault stream.
  w->U8(f.delay_mode ? 1 : 0);
  w->U8(f.disk_enabled ? 1 : 0);
  for (uint64_t s : f.fault_rng.s) w->U64(s);
  w->U8(f.fault_rng.has_gauss ? 1 : 0);
  w->F64(f.fault_rng.cached_gauss);
  w->U64(f.fault_stats.transient_reads);
  w->U64(f.fault_stats.transient_writes);
  w->U64(f.fault_stats.pages_lost);
  w->U64(f.fault_stats.bits_flipped);
}

bool DecodeFreeze(ByteReader* r, Phase1Freeze* f) {
  uint64_t u = 0;
  uint8_t b = 0;
  if (!r->U64(&f->image.root)) return false;
  if (!r->U64(&u)) return false;
  f->image.dim = static_cast<size_t>(u);
  if (!r->U64(&u)) return false;
  f->image.page_size = static_cast<size_t>(u);
  if (!r->F64(&f->image.threshold)) return false;
  if (!r->U64(&u)) return false;
  f->image.node_count = static_cast<size_t>(u);
  if (!r->U64(&u)) return false;
  f->image.leaf_entries = static_cast<size_t>(u);
  if (!r->U64(&u)) return false;
  f->image.height = static_cast<size_t>(u);
  uint32_t rep = 0, width = 0;
  if (!r->U32(&rep) || rep > 1) return false;
  f->image.cf = static_cast<CfRepresentation>(rep);
  if (!r->U32(&width) || width != 64) return false;
  uint64_t count = 0;
  if (!r->U64(&count) || r->remaining() / 8 < count) return false;
  f->image.leaf_chain.resize(static_cast<size_t>(count));
  for (auto& id : f->image.leaf_chain) {
    if (!r->U64(&id)) return false;
  }
  if (!r->U64(&count)) return false;
  // A record costs at least its 8-byte length field; anything claiming
  // more records than the payload could frame is corrupt.
  if (r->remaining() / 8 < count) return false;
  f->image.records.resize(static_cast<size_t>(count));
  for (auto& record : f->image.records) {
    uint64_t bytes = 0;
    if (!r->U64(&bytes) || !r->Bytes(bytes, &record)) return false;
  }
  if (!r->U64(&count) || !r->Doubles(count, &f->outlier_records)) return false;
  if (!r->U64(&count) || !r->Doubles(count, &f->delayed_records)) return false;
  if (!r->U64(&count) || r->remaining() / 16 < count) return false;
  f->threshold_history.resize(static_cast<size_t>(count));
  for (auto& obs : f->threshold_history) {
    if (!r->F64(&obs.log_points) || !r->F64(&obs.log_radius)) return false;
  }
  if (!r->U64(&count)) return false;
  const size_t cf_doubles = CfVector::SerializedDoubles(f->image.dim);
  if (r->remaining() / 8 / cf_doubles < count) return false;
  f->final_outliers.clear();
  f->final_outliers.reserve(static_cast<size_t>(count));
  std::vector<double> cf_buf;
  for (uint64_t i = 0; i < count; ++i) {
    if (!r->Doubles(cf_doubles, &cf_buf)) return false;
    f->final_outliers.push_back(CfVector::Deserialize(
        std::span<const double>(cf_buf.data(), cf_doubles), f->image.dim,
        f->image.cf));
  }
  if (!r->U64(&f->stats.points_added)) return false;
  if (!r->U64(&f->stats.rebuilds)) return false;
  if (!r->U64(&f->stats.outlier_entries_spilled)) return false;
  if (!r->U64(&f->stats.outlier_entries_reabsorbed)) return false;
  if (!r->U64(&f->stats.points_delay_spilled)) return false;
  if (!r->U64(&f->stats.reabsorb_cycles)) return false;
  if (!r->U64(&f->stats.forced_inserts)) return false;
  if (!r->F64(&f->stats.final_threshold)) return false;
  if (!r->U64(&f->robustness.transient_io_errors)) return false;
  if (!r->U64(&f->robustness.io_retries)) return false;
  if (!r->U64(&f->robustness.simulated_backoff_us)) return false;
  if (!r->U64(&f->robustness.checksum_failures)) return false;
  if (!r->U64(&f->robustness.pages_lost)) return false;
  if (!r->U64(&f->robustness.records_lost)) return false;
  if (!r->U64(&f->robustness.degradation_events)) return false;
  if (!r->U64(&f->robustness.fallback_absorbed)) return false;
  if (!r->U64(&f->robustness.fallback_dropped)) return false;
  if (!r->U8(&b)) return false;
  f->robustness.outlier_disk_disabled = b != 0;
  if (!r->U8(&b)) return false;
  f->delay_mode = b != 0;
  if (!r->U8(&b)) return false;
  f->disk_enabled = b != 0;
  for (auto& s : f->fault_rng.s) {
    if (!r->U64(&s)) return false;
  }
  if (!r->U8(&b)) return false;
  f->fault_rng.has_gauss = b != 0;
  if (!r->F64(&f->fault_rng.cached_gauss)) return false;
  if (!r->U64(&f->fault_stats.transient_reads)) return false;
  if (!r->U64(&f->fault_stats.transient_writes)) return false;
  if (!r->U64(&f->fault_stats.pages_lost)) return false;
  if (!r->U64(&f->fault_stats.bits_flipped)) return false;
  return r->done();
}

void AppendSection(uint32_t tag, const ByteWriter& payload,
                   std::vector<uint8_t>* out) {
  ByteWriter frame;
  frame.U32(tag);
  frame.U64(payload.data().size());
  out->insert(out->end(), frame.data().begin(), frame.data().end());
  out->insert(out->end(), payload.data().begin(), payload.data().end());
  ByteWriter crc;
  crc.U32(Crc32c(std::span<const uint8_t>(payload.data())));
  out->insert(out->end(), crc.data().begin(), crc.data().end());
}

}  // namespace

CheckpointImage CheckpointImage::For(const BirchOptions& options) {
  CheckpointImage img;
  img.dim = options.dim;
  img.page_size = options.resources.page_size;
  img.metric = static_cast<uint32_t>(options.tree.metric);
  img.threshold_kind = static_cast<uint32_t>(options.tree.threshold_kind);
  img.cf_representation = static_cast<uint32_t>(options.tree.cf);
  return img;
}

Status CheckpointImage::MatchesOptions(const BirchOptions& options) const {
  const CheckpointImage want = For(options);
  const struct {
    const char* name;
    uint64_t written;
    uint64_t configured;
  } fields[] = {
      {"dim", dim, want.dim},
      {"page_size", page_size, want.page_size},
      {"distance metric", metric, want.metric},
      {"threshold kind", threshold_kind, want.threshold_kind},
      {"CF representation", cf_representation, want.cf_representation},
  };
  for (const auto& f : fields) {
    if (f.written != f.configured) {
      return Status::InvalidArgument(
          std::string("checkpoint was written with ") + f.name + " " +
          std::to_string(f.written) + ", options say " +
          std::to_string(f.configured));
    }
  }
  return Status::OK();
}

Status WriteCheckpointFile(const std::string& path,
                           const CheckpointImage& image) {
  TRACE_SPAN("checkpoint/save");
  Timer timer;
  if ((image.shard_count == 0 && image.freezes.size() != 1) ||
      (image.shard_count > 0 && image.freezes.size() != image.shard_count)) {
    return Status::InvalidArgument(
        "checkpoint image freeze count does not match its shard count");
  }
  std::vector<uint8_t> out(kMagic, kMagic + sizeof(kMagic));

  ByteWriter header;
  header.U32(image.version);
  header.U64(image.dim);
  header.U64(image.page_size);
  header.U32(image.metric);
  header.U32(image.threshold_kind);
  header.U32(image.cf_representation);
  header.U32(image.scalar_width);
  header.U32(image.shard_count);
  header.U64(image.points_ingested);
  // Trailing codec field, always 0 (raw freeze sections): builds that
  // could compress the sections read it, and reject a nonzero one.
  header.U32(0);
  AppendSection(kHeaderTag, header, &out);

  for (const Phase1Freeze& f : image.freezes) {
    ByteWriter payload;
    EncodeFreeze(f, &payload);
    AppendSection(kFreezeTag, payload, &out);
  }

  ByteWriter footer;
  footer.U32(static_cast<uint32_t>(image.freezes.size()));
  AppendSection(kFooterTag, footer, &out);

  // Stage + rename so a crash mid-write never destroys the previous
  // checkpoint.
  const std::string tmp = path + ".tmp";
  std::FILE* fp = std::fopen(tmp.c_str(), "wb");
  if (fp == nullptr) {
    return Status::IOError("cannot open " + tmp + " for writing");
  }
  const size_t written = std::fwrite(out.data(), 1, out.size(), fp);
  const bool flushed = std::fflush(fp) == 0;
  std::fclose(fp);
  if (written != out.size() || !flushed) {
    std::remove(tmp.c_str());
    return Status::IOError("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot rename " + tmp + " to " + path);
  }
  OBS_COUNTER_INC("checkpoint/writes");
  OBS_COUNTER_ADD("checkpoint/bytes_written", out.size());
  OBS_HISTOGRAM_RECORD("checkpoint/save_us", timer.Seconds() * 1e6);
  return Status::OK();
}

StatusOr<CheckpointImage> ReadCheckpointFile(const std::string& path) {
  TRACE_SPAN("checkpoint/restore");
  Timer timer;
  std::FILE* fp = std::fopen(path.c_str(), "rb");
  if (fp == nullptr) {
    return Status::IOError("cannot open " + path);
  }
  std::vector<uint8_t> bytes;
  uint8_t chunk[4096];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), fp)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  const bool read_error = std::ferror(fp) != 0;
  std::fclose(fp);
  if (read_error) {
    return Status::IOError("read failed on " + path);
  }

  if (bytes.size() < sizeof(kMagic) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption(path + " is not a BIRCH checkpoint (bad or "
                              "torn header)");
  }
  ByteReader r(bytes.data() + sizeof(kMagic), bytes.size() - sizeof(kMagic));

  // A section cursor: read frame, verify CRC, decode from a copy.
  auto read_section = [&r](uint32_t* tag,
                           std::vector<uint8_t>* payload) -> Status {
    uint64_t size = 0;
    if (!r.U32(tag) || !r.U64(&size)) {
      return Status::Corruption("checkpoint truncated mid-frame");
    }
    if (!r.Bytes(size, payload)) {
      return Status::Corruption("checkpoint truncated mid-section");
    }
    uint32_t stored_crc = 0;
    if (!r.U32(&stored_crc)) {
      return Status::Corruption("checkpoint truncated before section CRC");
    }
    if (Crc32c(std::span<const uint8_t>(*payload)) != stored_crc) {
      return Status::Corruption("checkpoint section failed CRC32C");
    }
    return Status::OK();
  };

  uint32_t tag = 0;
  std::vector<uint8_t> payload;
  BIRCH_RETURN_IF_ERROR(read_section(&tag, &payload));
  if (tag != kHeaderTag) {
    return Status::Corruption("checkpoint does not start with a header");
  }
  CheckpointImage image;
  {
    ByteReader h(payload.data(), payload.size());
    // Version first, checked before the rest of the header is decoded:
    // older layouts (v1 had no cf_representation / scalar_width) must
    // surface as "unsupported version", not as corruption or a
    // misdecoded fingerprint.
    if (!h.U32(&image.version)) {
      return Status::Corruption("checkpoint header payload malformed");
    }
    if (image.version != kCheckpointVersion) {
      return Status::InvalidArgument(
          "checkpoint format version " + std::to_string(image.version) +
          " is not supported (this build reads version " +
          std::to_string(kCheckpointVersion) + ")");
    }
    if (!h.U64(&image.dim) || !h.U64(&image.page_size) ||
        !h.U32(&image.metric) || !h.U32(&image.threshold_kind) ||
        !h.U32(&image.cf_representation) || !h.U32(&image.scalar_width) ||
        !h.U32(&image.shard_count) || !h.U64(&image.points_ingested)) {
      return Status::Corruption("checkpoint header payload malformed");
    }
    // Optional trailing codec field: files written before checkpoint
    // compression end exactly here; every other file carries 0 (raw
    // freeze sections) unless the retired delta-rle codec wrote it.
    uint32_t codec = 0;
    if (!h.done() && (!h.U32(&codec) || !h.done())) {
      return Status::Corruption("checkpoint header payload malformed");
    }
    if (image.scalar_width == 32) {
      return Status::InvalidArgument(
          "checkpoint was written with float32 CF storage, which this "
          "build no longer supports (CFs are stored as doubles)");
    }
    if (image.cf_representation > 1 || image.scalar_width != 64) {
      return Status::Corruption(
          "checkpoint header carries an impossible CF fingerprint");
    }
    if (codec == kRetiredDeltaRleCodec) {
      return Status::InvalidArgument(
          "checkpoint was written with the delta-rle checkpoint codec, "
          "which this build no longer reads; restore it with an earlier "
          "build and save it again uncompressed");
    }
    if (codec != 0) {
      return Status::Corruption("checkpoint header names unknown codec " +
                                std::to_string(codec));
    }
  }

  // The shard count is not trusted to size anything: a crafted header
  // may claim 2^32 - 1 shards, and the first missing section below
  // ends such a file as Corruption.
  const size_t expected =
      image.shard_count == 0 ? 1 : static_cast<size_t>(image.shard_count);
  for (size_t i = 0; i < expected; ++i) {
    BIRCH_RETURN_IF_ERROR(read_section(&tag, &payload));
    if (tag != kFreezeTag) {
      return Status::Corruption("checkpoint is missing a shard section");
    }
    Phase1Freeze f;
    ByteReader body(payload.data(), payload.size());
    if (!DecodeFreeze(&body, &f)) {
      return Status::Corruption("checkpoint shard payload malformed");
    }
    image.freezes.push_back(std::move(f));
  }

  BIRCH_RETURN_IF_ERROR(read_section(&tag, &payload));
  if (tag != kFooterTag) {
    return Status::Corruption("checkpoint footer missing (truncated file)");
  }
  {
    ByteReader f(payload.data(), payload.size());
    uint32_t footer_count = 0;
    if (!f.U32(&footer_count) || !f.done() ||
        footer_count != image.freezes.size()) {
      return Status::Corruption("checkpoint footer does not match contents");
    }
  }
  if (!r.done()) {
    return Status::Corruption("checkpoint has trailing bytes after footer");
  }
  OBS_COUNTER_INC("checkpoint/reads");
  OBS_HISTOGRAM_RECORD("checkpoint/restore_us", timer.Seconds() * 1e6);
  return image;
}

}  // namespace birch
