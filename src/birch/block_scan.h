// The ordered block pipeline both streamed scans of a PointSource run:
// the sharded Phase-1 dealer (RunShardedPhase1) and the streamed
// Phase-4 re-scan (StreamingRefine). Read in order, decode anywhere,
// take in order: the calling thread reads the source's blocks in stream
// order, pool workers decode them, and the calling thread takes each
// decoded block in stream order, so whatever it folds or deals is the
// serial scan's at every thread count.
#ifndef BIRCH_BIRCH_BLOCK_SCAN_H_
#define BIRCH_BIRCH_BLOCK_SCAN_H_

#include <cstddef>
#include <cstdint>
#include <functional>

#include "birch/point_source.h"
#include "exec/thread_pool.h"
#include "util/status.h"

namespace birch {

/// What one ScanBlocks() call did, for its caller's obs counters.
struct BlockScanStats {
  /// Blocks read.
  uint64_t blocks = 0;
  /// Microseconds the calling thread waited for the oldest block's
  /// decode: near zero when reading and taking bound the scan.
  uint64_t wait_us = 0;
};

/// Blocks in flight at once: two per pool worker, one without a pool.
/// ScanBlocks() numbers its slots [0, window) for per-block state.
size_t BlockScanWindow(const exec::ThreadPool* pool);

/// Runs `decode` on a block's slot and block right after its
/// DecodeBlock(), on the same thread, whatever the decode's status (the
/// block then holds the rows before the bad one).
using BlockDecodeFn = std::function<void(size_t slot, const PointBlock&)>;
/// The calling thread's in-order step over one decoded block.
using BlockTakeFn = std::function<Status(size_t slot, const PointBlock&)>;

/// Reads `source` to its end in blocks and calls `take` on each block,
/// in stream order, on the calling thread.
///
/// `pool` workers run DecodeBlock() and then `decode` (may be empty),
/// with up to BlockScanWindow(pool) blocks in flight; without a pool
/// the calling thread runs them inline, one block at a time. When the
/// window is full and no worker has started the oldest block, the
/// calling thread decodes it itself. Before each ReadBlock() it takes
/// every block whose decode has already finished, so over an idle pipe
/// only the blocks still decoding wait for the next read. No pool task
/// waits on anything.
///
/// The first failure in stream order stops the scan: `take`'s status,
/// else the block's decode status (its rows before the bad one are
/// taken first), else the failed read's. Every in-flight task finishes
/// before the call returns.
Status ScanBlocks(PointSource* source, exec::ThreadPool* pool,
                  const BlockDecodeFn& decode, const BlockTakeFn& take,
                  BlockScanStats* stats);

}  // namespace birch

#endif  // BIRCH_BIRCH_BLOCK_SCAN_H_
