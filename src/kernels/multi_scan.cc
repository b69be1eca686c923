#include "kernels/multi_scan.h"

#include <algorithm>
#include <utility>

namespace aqpp {
namespace kernels {

void MultiScanBlock(const std::vector<MultiScanMember>& members, size_t begin,
                    size_t end, ScanStrategy strategy,
                    internal::ShardAccum* accs) {
  // One scratch pair serves every member: each member's chunk pass writes
  // mask/sel before reading them, so no state leaks between members.
  alignas(64) int64_t mask[kChunkRows];
  alignas(64) uint32_t sel[kChunkRows];
  // Per-member prediction state, fresh at block start — exactly the state a
  // solo ScanShardTyped over the same span would carry.
  std::vector<internal::ChunkScanState> states(members.size());
  for (size_t base = begin; base < end; base += kChunkRows) {
    const size_t stop = std::min(end, base + kChunkRows);
    for (size_t i = 0; i < members.size(); ++i) {
      const MultiScanMember& m = members[i];
      if (m.pred == nullptr || m.pred->never_matches) continue;
      if (m.values.dbl != nullptr || m.profile == ScanProfile::kCount) {
        internal::ScanChunk<double>(*m.pred, m.values.dbl, base, stop,
                                    m.profile, strategy, states[i], accs[i],
                                    mask, sel);
      } else {
        internal::ScanChunk<int64_t>(*m.pred, m.values.i64, base, stop,
                                     m.profile, strategy, states[i], accs[i],
                                     mask, sel);
      }
    }
  }
}

std::vector<Result<std::vector<uint8_t>>> MultiEvaluateMask(
    const Table& table,
    const std::vector<std::vector<RangeCondition>>& member_conds) {
  const size_t q = member_conds.size();
  const size_t n = table.num_rows();
  std::vector<Status> statuses(q, Status::OK());
  std::vector<BoundPredicate> preds(q);
  std::vector<std::vector<uint8_t>> masks(q);
  std::vector<uint8_t> active(q, 0);
  size_t num_active = 0;
  for (size_t i = 0; i < q; ++i) {
    auto bound = BindConditions(table, member_conds[i]);
    if (!bound.ok()) {
      statuses[i] = bound.status();
      continue;
    }
    preds[i] = std::move(*bound);
    masks[i].assign(n, 0);
    if (preds[i].never_matches) continue;  // zero-filled, as solo
    if (preds[i].conds.empty()) {
      std::fill(masks[i].begin(), masks[i].end(), uint8_t{1});
      continue;
    }
    active[i] = 1;
    ++num_active;
  }
  if (num_active > 0) {
    int64_t mask[kChunkRows];
    for (size_t base = 0; base < n; base += kChunkRows) {
      const size_t end = std::min(n, base + kChunkRows);
      const size_t m = end - base;
      for (size_t i = 0; i < q; ++i) {
        if (!active[i]) continue;
        const size_t count = EvaluateChunk(preds[i], base, end, mask);
        if (count == 0) continue;  // mask bytes stay zero
        uint8_t* o = masks[i].data() + base;
        for (size_t j = 0; j < m; ++j) {
          o[j] = static_cast<uint8_t>(mask[j] & 1);
        }
      }
    }
  }
  std::vector<Result<std::vector<uint8_t>>> out;
  out.reserve(q);
  for (size_t i = 0; i < q; ++i) {
    if (statuses[i].ok()) {
      out.emplace_back(std::move(masks[i]));
    } else {
      out.emplace_back(statuses[i]);
    }
  }
  return out;
}

}  // namespace kernels
}  // namespace aqpp
