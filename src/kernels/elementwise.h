// Branch-free elementwise kernels over sample-sized arrays.
//
// These back the sample-side estimator and the progressive prefix executor:
// masking measures and forming the AQP++ difference series
// y_i = A_i * (cond_q(i) - cond_pre(i)). Each kernel is arithmetically
// identical to the row loop it replaces (same expression, same evaluation
// order), so estimates are bit-for-bit unchanged.

#ifndef AQPP_KERNELS_ELEMENTWISE_H_
#define AQPP_KERNELS_ELEMENTWISE_H_

#include <cstddef>
#include <cstdint>

namespace aqpp {
namespace kernels {

// y[i] = v[i] * mask[i] (mask is 0/1 bytes).
void MaskedMeasure(const double* v, const uint8_t* mask, size_t n, double* y);

// y[i] = mask[i] as double.
void MaskToDouble(const uint8_t* mask, size_t n, double* y);

// y[i] = (v ? v[i] : 1.0) * (q[i] - p[i]); p may be null (treated as zero).
void DifferenceSeries(const double* v, const uint8_t* q, const uint8_t* p,
                      size_t n, double* y);

}  // namespace kernels
}  // namespace aqpp

#endif  // AQPP_KERNELS_ELEMENTWISE_H_
