#include "kernels/elementwise.h"

namespace aqpp {
namespace kernels {

void DifferenceSeries(const double* v, const uint8_t* q, const uint8_t* p,
                      size_t n, double* y) {
  for (size_t i = 0; i < n; ++i) {
    double diff = static_cast<double>(q[i]) -
                  (p != nullptr ? static_cast<double>(p[i]) : 0.0);
    y[i] = (v != nullptr ? v[i] : 1.0) * diff;
  }
}

}  // namespace kernels
}  // namespace aqpp
