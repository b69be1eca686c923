// Incremental maintenance under data appends (Appendix C, "Data Updates").
//
// AQP++ has two materialized artifacts to keep fresh when rows are appended:
//
//  * the BP-Cube — maintained by `CubeMaintainer`: appended batches are
//    buffered; queries read the buffered rows exactly (they are few);
//    when the buffer crosses a threshold, a delta cube is built over it
//    (one small scan + d prefix passes) and *added* onto the main cube —
//    exact, because prefix summation is linear;
//  * the uniform sample — maintained by `ReservoirMaintainer` with Vitter's
//    algorithm R continued across batches, keeping the sample an exact
//    uniform draw of everything seen so far.
//
// Deletions and in-place updates are out of scope, as in the paper.

#ifndef AQPP_CORE_MAINTENANCE_H_
#define AQPP_CORE_MAINTENANCE_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "cube/prefix_cube.h"
#include "sampling/sample.h"
#include "storage/table.h"

namespace aqpp {

struct CubeMaintainerOptions {
  // Pending rows beyond which Absorb() folds the buffer into the cube.
  size_t compact_threshold = 64 * 1024;
};

// Keeps a BP-Cube consistent with a growing table.
class CubeMaintainer {
 public:
  // `cube` is taken over (shared). `reference_table` supplies the schema and
  // the dictionary codings that batches are translated into; only its
  // metadata is read.
  CubeMaintainer(std::shared_ptr<PrefixCube> cube,
                 std::shared_ptr<Table> reference_table,
                 CubeMaintainerOptions options = {});

  // Ingests an appended batch (same schema as the base table). Values of
  // partition columns beyond the last cut are rejected: the cube's domain
  // coverage guarantee (footnote 5) cannot be silently broken.
  Status Absorb(const Table& batch);

  // Exact aggregate over the box, including all absorbed-but-uncompacted
  // rows (cube read + a scan of the pending buffer).
  double BoxValue(const PreAggregate& pre, size_t measure) const;

  // Folds the pending buffer into the cube (builds and merges a delta
  // cube). Idempotent when nothing is pending.
  Status Compact();

  size_t pending_rows() const {
    return pending_ == nullptr ? 0 : pending_->num_rows();
  }
  size_t total_absorbed_rows() const { return total_absorbed_; }
  const PrefixCube& cube() const { return *cube_; }

  // Invoked after every Absorb() that changed state. The service layer
  // registers result-cache invalidation here, so an appended batch can
  // never leave stale cached aggregates servable.
  void set_update_observer(std::function<void()> observer) {
    observer_ = std::move(observer);
  }

 private:
  std::shared_ptr<PrefixCube> cube_;
  std::shared_ptr<Table> reference_;
  CubeMaintainerOptions options_;
  std::shared_ptr<Table> pending_;
  size_t total_absorbed_ = 0;
  std::function<void()> observer_;
};

// Keeps a fixed-size uniform sample representative of base + appends.
//
// The maintained sample's rows table is rewritten in place (copied first
// while it is still shared with the sample it was handed); weights are
// N_seen / n after every batch. STRING columns are supported as long as
// appended values already exist in the sample's dictionary (new categories
// would invalidate the alphabetical ordinal coding used by cubes; the
// maintainer rejects them).
class ReservoirMaintainer {
 public:
  // `sample` must be a uniform fixed-size sample of the base table.
  ReservoirMaintainer(Sample sample, uint64_t seed = 99);

  // Streams an appended batch through the reservoir.
  Status Absorb(const Table& batch);

  // The maintained sample (valid after any number of Absorb calls).
  const Sample& sample() const { return sample_; }

  size_t rows_seen() const { return rows_seen_; }

  // Invoked after every Absorb() (see CubeMaintainer::set_update_observer).
  void set_update_observer(std::function<void()> observer) {
    observer_ = std::move(observer);
  }

 private:
  Sample sample_;
  size_t rows_seen_;
  Rng rng_;
  std::function<void()> observer_;
};

}  // namespace aqpp

#endif  // AQPP_CORE_MAINTENANCE_H_
