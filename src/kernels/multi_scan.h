// Fused multi-query scans: N conjunctive filters evaluated in ONE pass over
// the chunk grid.
//
// Many in-flight queries hit the same table with different ranges. Running
// each one as its own scan streams the same bytes from memory N times. The
// fused scan walks the grid once; per chunk (2048 rows, resident in L1 after
// the first member touches it) it evaluates every member's predicate before
// moving on, so the table's bytes travel the memory hierarchy once per batch
// instead of once per query.
//
// Bit-identity contract: each member's work is the exact per-chunk sequence
// its solo scan would have run — same ChunkScanState prediction sequence,
// same strategy decisions, same lane feeding order (see scan_internal.h).
// Only the interleaving across members changes, and members never share
// accumulators or masks, so every member's result is bit-identical to
// running it alone, under any batch composition.
//
// Two entry points:
//   * MultiScanBlock    — filter + aggregate over one shard-grid block (the
//     shard worker's fused exact partials).
//   * MultiEvaluateMask — fused 0/1 row masks (the sample-side pass the
//     service's and the shard worker's batches share across members).

#ifndef AQPP_KERNELS_MULTI_SCAN_H_
#define AQPP_KERNELS_MULTI_SCAN_H_

#include <vector>

#include "kernels/scan.h"
#include "kernels/scan_internal.h"

namespace aqpp {
namespace kernels {

// One member of a fused in-memory scan. `pred` must be bound against the
// same row universe the scan covers and must outlive the call; `values` is
// the member's aggregation input (may be empty for ScanProfile::kCount).
struct MultiScanMember {
  const BoundPredicate* pred = nullptr;
  ValueRef values;
  ScanProfile profile = ScanProfile::kCount;
};

// Fused scan of rows [begin, end) — one shard-grid block — for all members,
// chunk-interleaved, accumulating into accs[member] (length members.size()).
// Sequential; callers own parallelism and merging. Used per block by the
// shard worker's exact partial lanes.
void MultiScanBlock(const std::vector<MultiScanMember>& members, size_t begin,
                    size_t end, ScanStrategy strategy,
                    internal::ShardAccum* accs);

// One pass over `table` computing every member conjunction's 0/1 row mask;
// EvaluateMask is the one-member call. Per-member results isolate binding
// errors (one bad member does not poison its siblings), and a member's mask
// does not depend on the other members.
std::vector<Result<std::vector<uint8_t>>> MultiEvaluateMask(
    const Table& table,
    const std::vector<std::vector<RangeCondition>>& member_conds);

}  // namespace kernels
}  // namespace aqpp

#endif  // AQPP_KERNELS_MULTI_SCAN_H_
