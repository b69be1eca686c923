#include "kernels/kernels.h"

#include <algorithm>
#include <limits>

#include "kernels/multi_scan.h"

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace aqpp {
namespace kernels {

const ColumnStatsCache::MinMax* ColumnStatsCache::Get(size_t column) {
  if (column >= table_->num_columns()) return nullptr;
  const Column& col = table_->column(column);
  if (col.type() == DataType::kDouble || col.size() == 0) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = stats_.find(column);
  if (it == stats_.end()) {
    const std::vector<int64_t>& data = col.Int64Data();
    int64_t mn = data[0], mx = data[0];
    for (int64_t v : data) {
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
    it = stats_.emplace(column, MinMax{mn, mx}).first;
  }
  return &it->second;
}

ConditionClass ClassifyCondition(int64_t lo, int64_t hi,
                                 const ColumnStatsCache::MinMax* mm) {
  if (lo > hi) return ConditionClass::kNeverMatches;
  // The open int64 range always covers the domain; with stats, any range
  // containing the observed [min, max] does too.
  if (lo == std::numeric_limits<int64_t>::min() &&
      hi == std::numeric_limits<int64_t>::max()) {
    return ConditionClass::kFullRange;
  }
  if (mm != nullptr) {
    if (lo <= mm->min && hi >= mm->max) return ConditionClass::kFullRange;
    if (hi < mm->min || lo > mm->max) return ConditionClass::kNeverMatches;
  }
  return ConditionClass::kEffective;
}

Result<BoundPredicate> BindConditions(const Table& table,
                                      const std::vector<RangeCondition>& conds,
                                      ColumnStatsCache* stats) {
  BoundPredicate out;
  out.conds.reserve(conds.size());
  for (const auto& c : conds) {
    if (c.column >= table.num_columns()) {
      return Status::InvalidArgument("condition references missing column");
    }
    const Column& col = table.column(c.column);
    if (col.type() == DataType::kDouble) {
      return Status::InvalidArgument(
          "range conditions require an ordinal column; '" +
          table.schema().column(c.column).name + "' is DOUBLE");
    }
    // Stats are consulted (and lazily computed) only for conditions the
    // range alone can't classify.
    ConditionClass cls = ClassifyCondition(c.lo, c.hi, nullptr);
    if (cls == ConditionClass::kEffective && stats != nullptr) {
      cls = ClassifyCondition(c.lo, c.hi, stats->Get(c.column));
    }
    switch (cls) {
      case ConditionClass::kNeverMatches:
        out.never_matches = true;
        continue;
      case ConditionClass::kFullRange:
        continue;
      case ConditionClass::kEffective:
        break;
    }
    out.conds.push_back({col.Int64Data().data(), c.lo, c.hi});
  }
  return out;
}

#if defined(__AVX512F__)
// Range test for 8 rows: all-ones lane where lo <= data[i] <= hi.
inline __mmask8 RangeMask8(const __m512i v, const __m512i vlo,
                           const __m512i vhi) {
  return _mm512_cmple_epi64_mask(vlo, v) & _mm512_cmple_epi64_mask(v, vhi);
}
#endif

size_t FillMask(const int64_t* data, size_t n, int64_t lo, int64_t hi,
                int64_t* mask) {
  size_t i = 0;
  size_t count = 0;
#if defined(__AVX512F__)
  const __m512i vlo = _mm512_set1_epi64(lo);
  const __m512i vhi = _mm512_set1_epi64(hi);
  const __m512i ones = _mm512_set1_epi64(-1);
  for (; i + 8 <= n; i += 8) {
    const __mmask8 m = RangeMask8(_mm512_loadu_si512(data + i), vlo, vhi);
    _mm512_storeu_si512(mask + i,
                        _mm512_maskz_mov_epi64(m, ones));
    count += static_cast<size_t>(__builtin_popcount(m));
  }
#endif
  int64_t neg_count = 0;
  for (; i < n; ++i) {
    int64_t m = -static_cast<int64_t>(data[i] >= lo && data[i] <= hi);
    mask[i] = m;
    neg_count += m;
  }
  return count + static_cast<size_t>(-neg_count);
}

size_t AndMask(const int64_t* data, size_t n, int64_t lo, int64_t hi,
               int64_t* mask) {
  size_t i = 0;
  size_t count = 0;
#if defined(__AVX512F__)
  const __m512i vlo = _mm512_set1_epi64(lo);
  const __m512i vhi = _mm512_set1_epi64(hi);
  const __m512i zero = _mm512_setzero_si512();
  for (; i + 8 <= n; i += 8) {
    const __mmask8 in = RangeMask8(_mm512_loadu_si512(data + i), vlo, vhi);
    const __m512i prev = _mm512_loadu_si512(mask + i);
    const __m512i out = _mm512_maskz_mov_epi64(in, prev);
    _mm512_storeu_si512(mask + i, out);
    count += static_cast<size_t>(
        __builtin_popcount(_mm512_cmpneq_epi64_mask(out, zero)));
  }
#endif
  int64_t neg_count = 0;
  for (; i < n; ++i) {
    int64_t m = mask[i] & -static_cast<int64_t>(data[i] >= lo && data[i] <= hi);
    mask[i] = m;
    neg_count += m;
  }
  return count + static_cast<size_t>(-neg_count);
}

size_t FillMaskScalar(const BoundPredicate& pred, size_t begin, size_t end,
                      int64_t* mask) {
  size_t count = 0;
  for (size_t i = begin; i < end; ++i) {
    bool match = !pred.never_matches;
    for (const auto& c : pred.conds) {
      int64_t v = c.data[i];
      if (v < c.lo || v > c.hi) {
        match = false;
        break;
      }
    }
    mask[i - begin] = -static_cast<int64_t>(match);
    count += match;
  }
  return count;
}

size_t MaskToSelection(const int64_t* mask, size_t n, uint32_t* sel) {
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    sel[k] = static_cast<uint32_t>(i);
    k += static_cast<size_t>(mask[i] & 1);
  }
  return k;
}

size_t FillSelection(const int64_t* data, size_t n, int64_t lo, int64_t hi,
                     uint32_t* sel) {
  size_t k = 0;
  size_t i = 0;
#if defined(__AVX512F__)
  // vpcompressd writes the offsets of selected lanes contiguously in
  // ascending lane order — the same output the scalar loop below produces,
  // 16 rows per iteration. Only the AVX512F subset is required.
  const __m512i vlo = _mm512_set1_epi64(lo);
  const __m512i vhi = _mm512_set1_epi64(hi);
  __m512i vidx = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                   13, 14, 15);
  const __m512i vstep = _mm512_set1_epi32(16);
  for (; i + 16 <= n; i += 16) {
    const __m512i v0 = _mm512_loadu_si512(data + i);
    const __m512i v1 = _mm512_loadu_si512(data + i + 8);
    const __mmask8 m0 = _mm512_cmple_epi64_mask(vlo, v0) &
                        _mm512_cmple_epi64_mask(v0, vhi);
    const __mmask8 m1 = _mm512_cmple_epi64_mask(vlo, v1) &
                        _mm512_cmple_epi64_mask(v1, vhi);
    const __mmask16 m =
        static_cast<__mmask16>(m0) | static_cast<__mmask16>(m1 << 8);
    _mm512_mask_compressstoreu_epi32(sel + k, m, vidx);
    k += static_cast<size_t>(__builtin_popcount(m));
    vidx = _mm512_add_epi32(vidx, vstep);
  }
#endif
  for (; i < n; ++i) {
    sel[k] = static_cast<uint32_t>(i);
    k += static_cast<size_t>(data[i] >= lo && data[i] <= hi);
  }
  return k;
}

size_t CountRange(const int64_t* data, size_t n, int64_t lo, int64_t hi) {
  size_t i = 0;
  size_t count = 0;
#if defined(__AVX512F__)
  const __m512i vlo = _mm512_set1_epi64(lo);
  const __m512i vhi = _mm512_set1_epi64(hi);
  for (; i + 16 <= n; i += 16) {
    const __mmask8 m0 = RangeMask8(_mm512_loadu_si512(data + i), vlo, vhi);
    const __mmask8 m1 = RangeMask8(_mm512_loadu_si512(data + i + 8), vlo, vhi);
    count += static_cast<size_t>(__builtin_popcount(
        static_cast<unsigned>(m0) | (static_cast<unsigned>(m1) << 8)));
  }
#endif
  int64_t neg_count = 0;
  for (; i < n; ++i) {
    neg_count += -static_cast<int64_t>(data[i] >= lo && data[i] <= hi);
  }
  return count + static_cast<size_t>(-neg_count);
}

size_t EvaluateChunk(const BoundPredicate& pred, size_t begin, size_t end,
                     int64_t* mask) {
  const size_t n = end - begin;
  if (pred.never_matches) {
    std::fill(mask, mask + n, int64_t{0});
    return 0;
  }
  if (pred.conds.empty()) {
    std::fill(mask, mask + n, int64_t{-1});
    return n;
  }
  size_t count = FillMask(pred.conds[0].data + begin, n, pred.conds[0].lo,
                          pred.conds[0].hi, mask);
  for (size_t c = 1; c < pred.conds.size() && count > 0; ++c) {
    count = AndMask(pred.conds[c].data + begin, n, pred.conds[c].lo,
                    pred.conds[c].hi, mask);
  }
  return count;
}

Result<std::vector<uint8_t>> EvaluateMask(
    const Table& table, const std::vector<RangeCondition>& conds) {
  return std::move(MultiEvaluateMask(table, {conds}).front());
}

}  // namespace kernels
}  // namespace aqpp
