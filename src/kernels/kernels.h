// Typed, chunked, branch-light scan kernels over raw column storage.
//
// Every sample-side estimate, ground-truth scan, selectivity probe, and cube
// binning pass bottoms out here. The layer replaces per-row accessor calls
// (`Column::GetInt64` / `GetDouble`) with per-condition passes over the
// contiguous `Int64Data()` / `DoubleData()` spans, evaluated chunk by chunk
// into -1/0 word masks that AND-combine across conditions and short-circuit
// on empty chunks.
//
// Determinism contract (the service ResultCache and the identification
// layer's bit-identical-at-any-thread-count guarantee depend on it):
//   * Chunk (kChunkRows) and shard (kShardRows) boundaries are fixed
//     constants, independent of the thread count.
//   * Floating-point accumulation uses kAccumulatorLanes fixed lanes; row i
//     of a chunk feeds lane i % kAccumulatorLanes regardless of how the
//     chunk's selection was produced.
//   * Shard-local results are merged in shard-index order on the calling
//     thread, never in completion order.
// Together these make every scan result a pure function of (data,
// predicate), bit-identical run-to-run and across thread counts.

#ifndef AQPP_KERNELS_KERNELS_H_
#define AQPP_KERNELS_KERNELS_H_

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "expr/query.h"
#include "storage/table.h"

namespace aqpp {
namespace kernels {

// Rows per predicate/aggregation chunk. Chunk-local buffers (one int64 mask
// word per row plus a selection vector) stay L1-resident at this size.
constexpr size_t kChunkRows = 2048;

// Rows per parallel shard; must be a multiple of kChunkRows. Shards are the
// unit of work distribution AND of ordered floating-point merging, so this
// is a determinism constant, not a tuning knob.
constexpr size_t kShardRows = kChunkRows * 32;

// Fixed number of interleaved floating-point accumulator lanes. Row i of a
// chunk accumulates into lane i % kAccumulatorLanes; lanes are reduced in
// lane order at the end of a scan. Eight 64-bit lanes fill one AVX-512
// register (two AVX2 registers), which is what lets the masked accumulation
// loops vectorize without reassociating the per-lane addition order.
constexpr size_t kAccumulatorLanes = 8;

// A range condition resolved against raw column storage.
struct BoundCondition {
  const int64_t* data = nullptr;  // column codes, length = table rows
  int64_t lo = 0;
  int64_t hi = 0;
};

// A conjunction of bound conditions with bind-time classification applied.
struct BoundPredicate {
  std::vector<BoundCondition> conds;
  // True when some condition can match no row (lo > hi, or the range is
  // disjoint from the column's value domain): the scan is empty without
  // touching any data.
  bool never_matches = false;
};

// The aggregation input of a scan: either a double span or an int64 span
// (converted on the fly, matching Column::GetDouble's cast), or neither for
// COUNT-only scans.
struct ValueRef {
  const double* dbl = nullptr;
  const int64_t* i64 = nullptr;

  static ValueRef FromColumn(const Column& col) {
    ValueRef v;
    if (col.type() == DataType::kDouble) {
      v.dbl = col.DoubleData().data();
    } else {
      v.i64 = col.Int64Data().data();
    }
    return v;
  }
  bool empty() const { return dbl == nullptr && i64 == nullptr; }
};

// Lazily computed per-column min/max over a table's ordinal columns,
// shareable across scans of the same table. Used at bind time to drop
// conditions that cover the whole column domain (the full-range fast path)
// and to prove disjoint conditions empty. Thread-safe.
class ColumnStatsCache {
 public:
  explicit ColumnStatsCache(const Table* table) : table_(table) {}

  struct MinMax {
    int64_t min;
    int64_t max;
  };

  // Stats for an ordinal column; nullptr for double or empty columns.
  const MinMax* Get(size_t column);

 private:
  const Table* table_;
  std::mutex mu_;
  std::unordered_map<size_t, MinMax> stats_;
};

// Bind-time classification of one inclusive range [lo, hi] against a value
// domain. `mm` is the column's observed [min, max] when known (whole-column
// stats at bind time, a single extent's zone map at scan time) or nullptr.
// Shared by BindConditions and the extent-source scan so in-memory and
// out-of-core paths elide and prune with identical rules.
enum class ConditionClass {
  kNeverMatches,  // empty range, or disjoint from the domain
  kFullRange,     // covers the whole domain: the condition can be dropped
  kEffective,     // must be evaluated
};
ConditionClass ClassifyCondition(int64_t lo, int64_t hi,
                                 const ColumnStatsCache::MinMax* mm);

// Resolves `conds` against `table`: validates that every referenced column
// is ordinal and in range, drops conditions that cover the full column
// domain (always for the open int64 range; with `stats`, also for ranges
// that cover the column's observed [min, max]), and flags predicates that
// can match nothing.
Result<BoundPredicate> BindConditions(const Table& table,
                                      const std::vector<RangeCondition>& conds,
                                      ColumnStatsCache* stats = nullptr);

// ---- Chunk-level selection kernels ----------------------------------------
// `mask` holds one word per row: -1 (all bits set) for selected rows, 0
// otherwise, so masked accumulation is a bitwise AND instead of a branch.
// All return the number of selected rows in [0, n).

// mask[i] = -(lo <= data[i] <= hi); overwrites.
size_t FillMask(const int64_t* data, size_t n, int64_t lo, int64_t hi,
                int64_t* mask);

// mask[i] &= -(lo <= data[i] <= hi).
size_t AndMask(const int64_t* data, size_t n, int64_t lo, int64_t hi,
               int64_t* mask);

// Row-at-a-time reference implementation of the two kernels above (the
// ScanStrategy::kScalarRows oracle); bit-identical mask output.
size_t FillMaskScalar(const BoundPredicate& pred, size_t begin, size_t end,
                      int64_t* mask);

// Compresses a -1/0 mask into ascending chunk-local row offsets; returns the
// selection length.
size_t MaskToSelection(const int64_t* mask, size_t n, uint32_t* sel);

// Fused single-condition filter: writes the ascending chunk-local offsets of
// rows with lo <= data[i] <= hi straight into `sel`, skipping the mask
// materialization and compress pass entirely. Identical output to
// FillMask + MaskToSelection.
size_t FillSelection(const int64_t* data, size_t n, int64_t lo, int64_t hi,
                     uint32_t* sel);

// Single-condition match count with no mask writes (COUNT-only scans).
size_t CountRange(const int64_t* data, size_t n, int64_t lo, int64_t hi);

// Evaluates a bound predicate over chunk rows [begin, end) of the table
// (mask buffer of length end - begin); returns the match count. Applies the
// conditions in order, short-circuiting once a chunk's count reaches zero.
size_t EvaluateChunk(const BoundPredicate& pred, size_t begin, size_t end,
                     int64_t* mask);

// ---- Whole-table mask -----------------------------------------------------

// Chunked replacement for RangePredicate::EvaluateMask: 0/1 byte mask of
// length table.num_rows(). Same validation semantics (ordinal columns only).
// A one-member MultiEvaluateMask (kernels/multi_scan.h).
Result<std::vector<uint8_t>> EvaluateMask(
    const Table& table, const std::vector<RangeCondition>& conds);

}  // namespace kernels
}  // namespace aqpp

#endif  // AQPP_KERNELS_KERNELS_H_
