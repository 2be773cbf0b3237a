#include "birch/block_scan.h"

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <utility>
#include <vector>

namespace birch {

namespace {

/// A block's place in the window. A slot is kFree until a block is read
/// into it, kQueued until a worker or the calling thread claims its
/// decode, kRunning while that one decodes, and kDone until the calling
/// thread has taken it.
enum class SlotState { kFree, kQueued, kRunning, kDone };

struct Slot {
  PointBlock block;
  Status status;  // DecodeBlock()'s
  // Both guarded by the scan's mutex. `ticket` numbers the block in the
  // slot, so a task whose block the calling thread decoded, and whose
  // slot now holds a later block, leaves that block alone.
  uint64_t ticket = 0;
  SlotState state = SlotState::kFree;
};

}  // namespace

size_t BlockScanWindow(const exec::ThreadPool* pool) {
  return pool == nullptr ? 1 : 2 * static_cast<size_t>(pool->size());
}

Status ScanBlocks(PointSource* source, exec::ThreadPool* pool,
                  const BlockDecodeFn& decode, const BlockTakeFn& take,
                  BlockScanStats* stats) {
  const size_t window = BlockScanWindow(pool);
  std::vector<Slot> slots(window);
  std::mutex mu;
  std::condition_variable changed;
  size_t tasks = 0;        // submitted tasks not yet returned; guarded by `mu`
  bool cancelled = false;  // guarded by `mu`

  // Decodes a slot its caller claimed (kRunning), then marks it kDone.
  auto run = [&](size_t index) {
    Slot& slot = slots[index];
    Status st = source->DecodeBlock(&slot.block);
    if (decode) decode(index, slot.block);
    std::lock_guard<std::mutex> lock(mu);
    slot.status = std::move(st);
    slot.state = SlotState::kDone;
    changed.notify_one();
  };

  size_t head = 0;  // slots [head, head + in_flight) hold blocks, oldest first
  size_t in_flight = 0;
  uint64_t tickets = 0;
  bool reading = true;
  Status status;
  Status read_status;
  std::chrono::steady_clock::duration waited{};
  while (status.ok()) {
    const bool can_read = reading && in_flight < window;
    if (in_flight > 0) {
      // Take the oldest block if it is decoded; if no block can be read
      // first, wait for it, or decode it here when no worker has started.
      Slot& oldest = slots[head];
      bool ready = false;
      bool claimed = false;
      {
        std::unique_lock<std::mutex> lock(mu);
        if (oldest.state == SlotState::kDone) {
          ready = true;
        } else if (!can_read && oldest.state == SlotState::kQueued) {
          oldest.state = SlotState::kRunning;
          claimed = true;
        } else if (!can_read) {
          const auto start = std::chrono::steady_clock::now();
          changed.wait(lock,
                       [&oldest] { return oldest.state == SlotState::kDone; });
          waited += std::chrono::steady_clock::now() - start;
          ready = true;
        }
      }
      if (claimed) {
        run(head);
        ready = true;
      }
      if (ready) {
        status = take(head, oldest.block);
        if (status.ok()) status = oldest.status;
        {
          std::lock_guard<std::mutex> lock(mu);
          oldest.state = SlotState::kFree;
        }
        head = (head + 1) % window;
        --in_flight;
        continue;
      }
    }
    if (!can_read) break;  // read to the end and everything taken
    const size_t index = (head + in_flight) % window;
    Slot& slot = slots[index];
    if (!source->ReadBlock(&slot.block)) {
      reading = false;
      read_status = source->status();
      continue;
    }
    ++in_flight;
    ++stats->blocks;
    uint64_t ticket = 0;
    {
      std::lock_guard<std::mutex> lock(mu);
      ticket = ++tickets;
      slot.ticket = ticket;
      slot.state = pool == nullptr ? SlotState::kRunning : SlotState::kQueued;
      if (pool != nullptr) ++tasks;
    }
    if (pool == nullptr) {
      run(index);
      continue;
    }
    pool->Submit([&, index, ticket] {
      std::unique_lock<std::mutex> lock(mu);
      Slot& mine = slots[index];
      if (!cancelled && mine.ticket == ticket &&
          mine.state == SlotState::kQueued) {
        mine.state = SlotState::kRunning;
        lock.unlock();
        run(index);
        lock.lock();
      }
      if (--tasks == 0) changed.notify_one();
    });
  }
  if (status.ok()) status = read_status;
  // After a failure the blocks still queued are dropped; the ones being
  // decoded finish. Tasks touch `slots` and this frame until they return.
  {
    std::unique_lock<std::mutex> lock(mu);
    cancelled = true;
    changed.wait(lock, [&tasks] { return tasks == 0; });
  }
  stats->wait_us += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(waited).count());
  return status;
}

}  // namespace birch
