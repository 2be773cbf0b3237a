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
#ifndef BIRCH_PAGESTORE_PAGE_STORE_H_
#define BIRCH_PAGESTORE_PAGE_STORE_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "pagestore/fault_injector.h"
#include "pagestore/page.h"
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

  /// Field-wise sum: the traffic of several stores (one per shard) as
  /// one run's.
  IoStats& operator+=(const IoStats& other);
};

/// An in-memory map of PageId -> Page posing as a disk. Capacity is
/// enforced in bytes; Allocate fails with OutOfDisk when full.
class PageStore {
 public:
  /// capacity_bytes == 0 means unlimited; page_size must be > 0.
  PageStore(size_t page_size, size_t capacity_bytes = 0,
            const FaultOptions& faults = FaultOptions{});

  size_t page_size() const { return page_size_; }
  size_t capacity_bytes() const { return capacity_bytes_; }
  /// Bytes charged against capacity: num_pages() * page_size().
  size_t used_bytes() const { return pages_.size() * page_size_; }
  size_t num_pages() const { return pages_.size(); }
  const IoStats& io_stats() const { return io_; }
  const FaultStats& fault_stats() const { return injector_.stats(); }

  /// Allocates a zeroed page; fails with OutOfDisk at capacity.
  StatusOr<PageId> Allocate();

  /// Writes `data` (at most page_size bytes; shorter writes are
  /// zero-padded to the full page) and refreshes the checksum. May fail
  /// with kIOError (transient, page untouched — retry), or "succeed"
  /// while the injector drops or corrupts the stored image (discovered
  /// on the next Read).
  Status Write(PageId id, std::span<const uint8_t> data);

  /// Reads the full page into `out` (resized to page_size), verifying
  /// its CRC32C. Fails with kIOError on a transient fault and kDataLoss
  /// on a lost page or checksum mismatch.
  Status Read(PageId id, std::vector<uint8_t>* out);

  /// Releases a page back to the store (lost pages included — freeing
  /// reclaims the capacity even though the bytes are gone).
  Status Free(PageId id);

  /// True if `id` is currently allocated.
  bool Contains(PageId id) const { return pages_.count(id) > 0; }

  /// Test hook: flips one stored bit without updating the checksum,
  /// exactly what the bit-rot fault does. `bit` < page_size() * 8.
  Status CorruptBitForTesting(PageId id, size_t bit);

  /// Checkpoint support: the injector's RNG/counters are part of a
  /// resumable run's state (a restored run must keep failing the way
  /// the original would have).
  FaultInjector* mutable_injector() { return &injector_; }

 private:
  size_t page_size_;
  size_t capacity_bytes_;
  PageId next_id_ = 0;
  std::unordered_map<PageId, Page> pages_;
  IoStats io_;
  FaultInjector injector_;
};

}  // namespace birch

#endif  // BIRCH_PAGESTORE_PAGE_STORE_H_
