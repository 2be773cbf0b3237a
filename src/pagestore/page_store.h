// Simulated paged disk: page-granular read/write with capacity
// enforcement and I/O accounting. Stands in for the paper's "R bytes of
// disk space" used for outlier entries (Sec. 5.1.4); the behaviours that
// matter — outliers leaving the memory budget, re-absorption costing
// I/O, disk capacity running out — are preserved and measurable.
//
// The device is no longer assumed perfect: every page carries a CRC32C
// checksum verified on Read, and an optional seeded FaultInjector can
// make the store misbehave like a real disk — transient IOErrors,
// silently dropped writes (permanent page loss), and single-bit rot.
// Lost or corrupt pages surface as kDataLoss, which is not retryable;
// transient faults surface as kIOError, which is.
//
// With a PageCodec configured the store is compressed and tiered: pages
// live compressed in the cold store, CRC32C covers the compressed
// image, and an LRU hot tier of up to `hot_tier_bytes` decompressed
// pages absorbs repeat reads. The codec is transparent by construction:
// Write still takes raw bytes, Read still returns the raw page_size
// image, and capacity charges every page its raw page_size, so exactly
// the same allocations succeed or fail with or without compression.
#ifndef BIRCH_PAGESTORE_PAGE_STORE_H_
#define BIRCH_PAGESTORE_PAGE_STORE_H_

#include <cstdint>
#include <list>
#include <span>
#include <unordered_map>
#include <vector>

#include "pagestore/fault_injector.h"
#include "pagestore/page.h"
#include "pagestore/page_codec.h"
#include "util/status.h"

namespace birch {

/// Cumulative I/O counters for a PageStore.
struct IoStats {
  uint64_t pages_written = 0;
  uint64_t pages_read = 0;
  uint64_t pages_freed = 0;
  /// Reads that found a checksum mismatch (bit rot caught by CRC32C).
  uint64_t checksum_failures = 0;
  /// Reads of pages whose write was silently dropped.
  uint64_t lost_page_reads = 0;
  /// Injected transient failures surfaced to callers as kIOError.
  uint64_t transient_read_errors = 0;
  uint64_t transient_write_errors = 0;
  /// Compression accounting (zero unless a codec is configured): raw
  /// page bytes presented to Write vs envelope bytes actually stored.
  uint64_t raw_bytes_written = 0;
  uint64_t stored_bytes_written = 0;
  /// Writes where the codec beat raw vs writes that fell back to a
  /// verbatim payload (the ratio >= 1 guarantee in action).
  uint64_t compressed_writes = 0;
  uint64_t raw_fallback_writes = 0;
  /// Reads of envelopes that passed CRC but failed to decode (possible
  /// only via hostile inputs or store bugs; surfaced as kDataLoss).
  uint64_t envelope_decode_failures = 0;
  /// Hot-tier accounting: reads served from the decompressed DRAM
  /// cache, reads that had to decode the cold image, and evictions of a
  /// decompressed copy back to compressed-only residency.
  uint64_t hot_hits = 0;
  uint64_t hot_misses = 0;
  uint64_t hot_demotions = 0;

  /// Field-wise sum: the traffic of several stores (one per shard) as
  /// one run's.
  IoStats& operator+=(const IoStats& other);
};

/// Construction-time configuration for a PageStore.
struct PageStoreOptions {
  /// Logical page size in bytes; must be > 0.
  size_t page_size = 1024;
  /// Cold-store budget; 0 means unlimited. Every page is charged its
  /// raw page_size, with or without a codec.
  size_t capacity_bytes = 0;
  /// Fault model; defaults to the fault-free device.
  FaultOptions faults;
  /// Per-page compression; kNone stores raw page images (v1 format).
  PageCodecKind codec = PageCodecKind::kNone;
  /// DRAM budget for decompressed pages (LRU). 0 = no hot tier, every
  /// read decodes. Ignored when codec == kNone (raw pages are their own
  /// hot copy). Not charged against capacity_bytes: capacity models the
  /// cold device, the hot tier models DRAM in front of it.
  size_t hot_tier_bytes = 0;
};

/// An in-memory map of PageId -> Page posing as a disk. Capacity is
/// enforced in bytes; Allocate fails with OutOfDisk when full.
class PageStore {
 public:
  explicit PageStore(const PageStoreOptions& options);

  /// Legacy spelling of the uncompressed store.
  /// capacity_bytes == 0 means unlimited; page_size must be > 0.
  PageStore(size_t page_size, size_t capacity_bytes = 0,
            const FaultOptions& faults = FaultOptions{});

  size_t page_size() const { return page_size_; }
  size_t capacity_bytes() const { return capacity_bytes_; }
  /// Bytes charged against capacity: num_pages() * page_size().
  size_t used_bytes() const { return pages_.size() * page_size_; }
  size_t num_pages() const { return pages_.size(); }
  PageCodecKind codec() const { return codec_; }
  size_t hot_tier_bytes() const { return hot_tier_bytes_; }
  /// Decompressed bytes currently resident in the hot tier.
  size_t hot_bytes() const { return hot_bytes_; }
  const IoStats& io_stats() const { return io_; }
  const FaultStats& fault_stats() const { return injector_.stats(); }

  /// Bytes page `id` occupies on the device (envelope size with a
  /// codec, page_size without); 0 if the page is not allocated.
  size_t stored_bytes(PageId id) const;

  /// Allocates a zeroed page; fails with OutOfDisk at capacity.
  StatusOr<PageId> Allocate();

  /// Writes `data` (at most page_size bytes; shorter writes are
  /// zero-padded to the full page) and refreshes the checksum, which
  /// covers the stored image — the compressed envelope when a codec is
  /// configured. May fail with kIOError (transient, page untouched —
  /// retry), or "succeed" while the injector drops or corrupts the
  /// stored image (discovered on the next Read).
  Status Write(PageId id, std::span<const uint8_t> data);

  /// Reads the full raw page into `out` (resized to page_size). Cold
  /// reads verify CRC32C and decode the envelope; hot-tier hits return
  /// the cached decompressed image directly. Fails with kIOError on a
  /// transient fault and kDataLoss on a lost page, checksum mismatch,
  /// or undecodable envelope.
  Status Read(PageId id, std::vector<uint8_t>* out);

  /// Releases a page back to the store (lost pages included — freeing
  /// reclaims the capacity even though the bytes are gone).
  Status Free(PageId id);

  /// True if `id` is currently allocated.
  bool Contains(PageId id) const { return pages_.count(id) > 0; }

  /// Test hook: flips one stored bit without updating the checksum,
  /// exactly what the bit-rot fault does. `bit` < stored_bytes(id) * 8.
  /// Also demotes the page from the hot tier so the next Read sees the
  /// damaged device image, as a real re-read would.
  Status CorruptBitForTesting(PageId id, size_t bit);

  /// Checkpoint support: the injector's RNG/counters are part of a
  /// resumable run's state (a restored run must keep failing the way
  /// the original would have).
  FaultInjector* mutable_injector() { return &injector_; }

 private:
  /// Builds the stored image for a raw (already padded) page.
  std::vector<uint8_t> EncodeStored(std::span<const uint8_t> raw,
                                    bool* fallback) const;
  void HotInsert(PageId id, std::vector<uint8_t> raw);
  void HotErase(PageId id);

  size_t page_size_;
  size_t capacity_bytes_;
  PageCodecKind codec_;
  size_t hot_tier_bytes_;
  PageId next_id_ = 0;
  std::unordered_map<PageId, Page> pages_;

  /// Hot tier: decompressed page images, most-recently-used first.
  struct HotEntry {
    std::list<PageId>::iterator lru_it;
    std::vector<uint8_t> raw;
  };
  std::list<PageId> lru_;
  std::unordered_map<PageId, HotEntry> hot_;
  size_t hot_bytes_ = 0;

  IoStats io_;
  FaultInjector injector_;
};

}  // namespace birch

#endif  // BIRCH_PAGESTORE_PAGE_STORE_H_
