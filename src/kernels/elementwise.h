// Branch-free elementwise kernels over sample-sized arrays.
//
// The progressive prefix executor walks the dense AQP++ difference series
// y_i = A_i * (cond_q(i) - cond_pre(i)) in a shuffled row order, so it
// forms the whole series up front. The kernel is arithmetically identical
// to the row loop it replaces (same expression, same evaluation order).

#ifndef AQPP_KERNELS_ELEMENTWISE_H_
#define AQPP_KERNELS_ELEMENTWISE_H_

#include <cstddef>
#include <cstdint>

namespace aqpp {
namespace kernels {

// y[i] = (v ? v[i] : 1.0) * (q[i] - p[i]); p may be null (treated as zero).
void DifferenceSeries(const double* v, const uint8_t* q, const uint8_t* p,
                      size_t n, double* y);

}  // namespace kernels
}  // namespace aqpp

#endif  // AQPP_KERNELS_ELEMENTWISE_H_
