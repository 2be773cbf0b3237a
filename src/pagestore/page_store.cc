#include "pagestore/page_store.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "pagestore/crc32c.h"
#include "util/timer.h"

namespace birch {

PageStore::PageStore(const PageStoreOptions& options)
    : page_size_(options.page_size),
      capacity_bytes_(options.capacity_bytes),
      codec_(options.codec),
      hot_tier_bytes_(options.codec == PageCodecKind::kNone
                          ? 0
                          : options.hot_tier_bytes),
      injector_(options.faults) {
  assert(page_size_ > 0);
}

PageStore::PageStore(size_t page_size, size_t capacity_bytes,
                     const FaultOptions& faults)
    : PageStore(PageStoreOptions{page_size, capacity_bytes, faults,
                                 PageCodecKind::kNone, 0}) {}

IoStats& IoStats::operator+=(const IoStats& other) {
  pages_written += other.pages_written;
  pages_read += other.pages_read;
  pages_freed += other.pages_freed;
  checksum_failures += other.checksum_failures;
  lost_page_reads += other.lost_page_reads;
  transient_read_errors += other.transient_read_errors;
  transient_write_errors += other.transient_write_errors;
  raw_bytes_written += other.raw_bytes_written;
  stored_bytes_written += other.stored_bytes_written;
  compressed_writes += other.compressed_writes;
  raw_fallback_writes += other.raw_fallback_writes;
  envelope_decode_failures += other.envelope_decode_failures;
  hot_hits += other.hot_hits;
  hot_misses += other.hot_misses;
  hot_demotions += other.hot_demotions;
  return *this;
}

size_t PageStore::stored_bytes(PageId id) const {
  auto it = pages_.find(id);
  return it == pages_.end() ? 0 : it->second.bytes.size();
}

std::vector<uint8_t> PageStore::EncodeStored(std::span<const uint8_t> raw,
                                             bool* fallback) const {
  std::vector<uint8_t> stored = EncodePageEnvelope(codec_, raw);
  *fallback = PageEnvelopeIsRawFallback(stored);
  return stored;
}

void PageStore::HotInsert(PageId id, std::vector<uint8_t> raw) {
  if (hot_tier_bytes_ == 0) return;
  HotErase(id);
  // Demote least-recently-used pages until the new image fits: their
  // decompressed copy is dropped, the compressed cold image remains
  // the (CRC-protected) truth.
  while (!lru_.empty() && hot_bytes_ + raw.size() > hot_tier_bytes_) {
    PageId victim = lru_.back();
    auto vit = hot_.find(victim);
    hot_bytes_ -= vit->second.raw.size();
    lru_.pop_back();
    hot_.erase(vit);
    ++io_.hot_demotions;
    OBS_COUNTER_INC("pagestore/hot_demotions");
  }
  if (raw.size() > hot_tier_bytes_) return;  // tier smaller than a page
  hot_bytes_ += raw.size();
  lru_.push_front(id);
  hot_.emplace(id, HotEntry{lru_.begin(), std::move(raw)});
  OBS_GAUGE_SET("pagestore/hot_bytes", hot_bytes_);
}

void PageStore::HotErase(PageId id) {
  auto it = hot_.find(id);
  if (it == hot_.end()) return;
  hot_bytes_ -= it->second.raw.size();
  lru_.erase(it->second.lru_it);
  hot_.erase(it);
  OBS_GAUGE_SET("pagestore/hot_bytes", hot_bytes_);
}

StatusOr<PageId> PageStore::Allocate() {
  if (capacity_bytes_ != 0 && used_bytes() + page_size_ > capacity_bytes_) {
    return Status::OutOfDisk("page store at capacity (" +
                             std::to_string(capacity_bytes_) + " bytes)");
  }
  // A fresh page holds zeroes; with a codec that image is stored
  // compressed.
  Page page(0);
  if (codec_ == PageCodecKind::kNone) {
    page.bytes.assign(page_size_, 0);
  } else {
    bool fallback = false;
    page.bytes = EncodeStored(std::vector<uint8_t>(page_size_, 0),
                              &fallback);
  }
  page.crc = Crc32c(page.bytes);
  PageId id = next_id_++;
  pages_.emplace(id, std::move(page));
  OBS_COUNTER_INC("pagestore/pages_allocated");
  OBS_GAUGE_SET("pagestore/used_bytes", used_bytes());
  return id;
}

Status PageStore::Write(PageId id, std::span<const uint8_t> data) {
  auto it = pages_.find(id);
  if (it == pages_.end()) {
    return Status::NotFound("page " + std::to_string(id));
  }
  if (data.size() > page_size_) {
    return Status::InvalidArgument("write larger than page size");
  }
  if (injector_.InjectWriteTransient()) {
    ++io_.transient_write_errors;
    OBS_COUNTER_INC("pagestore/transient_write_errors");
    return Status::IOError("transient write fault on page " +
                           std::to_string(id));
  }
  Timer timer;
  Page& page = it->second;
  bool fallback = false;
  std::vector<uint8_t> stored;
  if (codec_ == PageCodecKind::kNone) {
    stored.assign(page_size_, 0);
    std::copy(data.begin(), data.end(), stored.begin());
  } else {
    // The logical page image is always the full page_size bytes: the
    // payload followed by a zeroed tail (mirroring the uncompressed
    // store, where short writes zero-fill the rest of the page).
    std::vector<uint8_t> raw(page_size_, 0);
    std::copy(data.begin(), data.end(), raw.begin());
    stored = EncodeStored(raw, &fallback);
  }
  page.bytes = std::move(stored);
  page.crc = Crc32c(page.bytes);
  page.lost = false;
  // A rewritten page's hot copy is stale; the next read re-decodes.
  HotErase(id);
  // Silent faults: the write reports success, the damage surfaces on
  // the next Read (as DataLoss, via the lost flag or the checksum).
  // Bit flips land in the *stored* image — with a codec that is the
  // compressed envelope, and the CRC over it is what catches the rot.
  if (injector_.InjectPageLoss()) {
    page.lost = true;
  } else {
    size_t bit = 0;
    if (injector_.InjectBitFlip(page.bytes.size() * 8, &bit)) {
      page.bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
  }
  ++io_.pages_written;
  OBS_COUNTER_INC("pagestore/pages_written");
  if (codec_ != PageCodecKind::kNone) {
    io_.raw_bytes_written += page_size_;
    io_.stored_bytes_written += page.bytes.size();
    if (fallback) {
      ++io_.raw_fallback_writes;
      OBS_COUNTER_INC("pagestore/raw_fallback_writes");
    } else {
      ++io_.compressed_writes;
    }
    OBS_COUNTER_ADD("pagestore/raw_bytes", page_size_);
    OBS_COUNTER_ADD("pagestore/compressed_bytes", page.bytes.size());
    OBS_GAUGE_SET("pagestore/compression_ratio",
                  static_cast<double>(io_.raw_bytes_written) /
                      static_cast<double>(io_.stored_bytes_written));
  }
  OBS_HISTOGRAM_RECORD("pagestore/write_us", timer.Seconds() * 1e6);
  return Status::OK();
}

Status PageStore::Read(PageId id, std::vector<uint8_t>* out) {
  auto it = pages_.find(id);
  if (it == pages_.end()) {
    return Status::NotFound("page " + std::to_string(id));
  }
  // Hot-tier hit: the decompressed image is already in DRAM — no
  // device access, no injector draw, no CRC/decode work.
  if (auto hit = hot_.find(id); hit != hot_.end()) {
    lru_.splice(lru_.begin(), lru_, hit->second.lru_it);
    hit->second.lru_it = lru_.begin();
    *out = hit->second.raw;
    ++io_.hot_hits;
    ++io_.pages_read;
    OBS_COUNTER_INC("pagestore/hot_hits");
    OBS_COUNTER_INC("pagestore/pages_read");
    return Status::OK();
  }
  if (injector_.InjectReadTransient()) {
    ++io_.transient_read_errors;
    OBS_COUNTER_INC("pagestore/transient_read_errors");
    return Status::IOError("transient read fault on page " +
                           std::to_string(id));
  }
  Timer timer;
  const Page& page = it->second;
  if (page.lost) {
    ++io_.lost_page_reads;
    OBS_COUNTER_INC("pagestore/lost_page_reads");
    return Status::DataLoss("page " + std::to_string(id) +
                            " was lost (write silently dropped)");
  }
  if (Crc32c(page.bytes) != page.crc) {
    ++io_.checksum_failures;
    OBS_COUNTER_INC("pagestore/checksum_failures");
    TRACE_INSTANT("pagestore/checksum_failure");
    return Status::DataLoss("checksum mismatch on page " +
                            std::to_string(id));
  }
  if (codec_ == PageCodecKind::kNone) {
    *out = page.bytes;
  } else {
    Status st = DecodePageEnvelope(page.bytes, out);
    if (!st.ok()) {
      // CRC passed but the envelope is inconsistent: either the store
      // has a bug or the image was tampered with beyond what a flip
      // looks like. Surface as data loss, never as decoder UB.
      ++io_.envelope_decode_failures;
      OBS_COUNTER_INC("pagestore/envelope_decode_failures");
      return Status::DataLoss("page " + std::to_string(id) +
                              " envelope undecodable: " + st.message());
    }
    ++io_.hot_misses;
    OBS_COUNTER_INC("pagestore/hot_misses");
    if (hot_tier_bytes_ > 0) HotInsert(id, *out);
  }
  ++io_.pages_read;
  OBS_COUNTER_INC("pagestore/pages_read");
  OBS_HISTOGRAM_RECORD("pagestore/read_us", timer.Seconds() * 1e6);
  return Status::OK();
}

Status PageStore::Free(PageId id) {
  auto it = pages_.find(id);
  if (it == pages_.end()) {
    return Status::NotFound("page " + std::to_string(id));
  }
  HotErase(id);
  pages_.erase(it);
  ++io_.pages_freed;
  OBS_COUNTER_INC("pagestore/pages_freed");
  OBS_GAUGE_SET("pagestore/used_bytes", used_bytes());
  return Status::OK();
}

Status PageStore::CorruptBitForTesting(PageId id, size_t bit) {
  auto it = pages_.find(id);
  if (it == pages_.end()) {
    return Status::NotFound("page " + std::to_string(id));
  }
  if (bit >= it->second.bytes.size() * 8) {
    return Status::InvalidArgument("bit index out of range");
  }
  it->second.bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  // Rot lives on the device: drop any cached decompressed copy so the
  // next Read actually faces the damaged image.
  HotErase(id);
  return Status::OK();
}

}  // namespace birch
