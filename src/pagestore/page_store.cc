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

PageStore::PageStore(size_t page_size, size_t capacity_bytes,
                     const FaultOptions& faults)
    : page_size_(page_size),
      capacity_bytes_(capacity_bytes),
      injector_(faults) {
  assert(page_size_ > 0);
}

IoStats& IoStats::operator+=(const IoStats& other) {
  pages_written += other.pages_written;
  pages_read += other.pages_read;
  pages_freed += other.pages_freed;
  checksum_failures += other.checksum_failures;
  lost_page_reads += other.lost_page_reads;
  transient_read_errors += other.transient_read_errors;
  transient_write_errors += other.transient_write_errors;
  return *this;
}

StatusOr<PageId> PageStore::Allocate() {
  if (capacity_bytes_ != 0 && used_bytes() + page_size_ > capacity_bytes_) {
    return Status::OutOfDisk("page store at capacity (" +
                             std::to_string(capacity_bytes_) + " bytes)");
  }
  Page page(page_size_);
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
  // A short write zero-fills the rest of the page.
  std::fill(std::copy(data.begin(), data.end(), page.bytes.begin()),
            page.bytes.end(), 0);
  page.crc = Crc32c(page.bytes);
  page.lost = false;
  // Silent faults: the write reports success, the damage surfaces on
  // the next Read (as DataLoss, via the lost flag or the checksum).
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
  OBS_HISTOGRAM_RECORD("pagestore/write_us", timer.Seconds() * 1e6);
  return Status::OK();
}

Status PageStore::Read(PageId id, std::vector<uint8_t>* out) {
  auto it = pages_.find(id);
  if (it == pages_.end()) {
    return Status::NotFound("page " + std::to_string(id));
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
  *out = page.bytes;
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
  return Status::OK();
}

}  // namespace birch
