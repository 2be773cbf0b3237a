// Fixed-size page abstraction for the simulated disk.
#ifndef BIRCH_PAGESTORE_PAGE_H_
#define BIRCH_PAGESTORE_PAGE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace birch {

/// Identifies a page within a PageStore.
using PageId = uint64_t;

inline constexpr PageId kInvalidPageId = static_cast<PageId>(-1);

/// Has no effect: the outlier disk and checkpoint files store raw
/// bytes. Kept, with its one value, only as the type of the option
/// fields the end-to-end benchmark still assigns.
enum class PageCodecKind : uint8_t { kNone = 0 };

/// A page is an owned page_size byte buffer plus the CRC32C of those
/// bytes, recomputed on every Write and verified on every Read.
struct Page {
  explicit Page(size_t size) : bytes(size, 0) {}
  std::vector<uint8_t> bytes;
  uint32_t crc = 0;
  /// Set by the fault injector: the write was silently dropped and the
  /// contents are unrecoverable (reads return DataLoss).
  bool lost = false;
};

}  // namespace birch

#endif  // BIRCH_PAGESTORE_PAGE_H_
