#include "oracle.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

double eq11_exponential_gamma(double lambda, double cost, double recovery,
                              double work) {
  const double k01 = cost + work;
  const double p01 = std::exp(-lambda * k01);
  const double p02 = -std::expm1(-lambda * k01);
  const double k21 = cost + recovery + work;  // L = C
  const double p21 = std::exp(-lambda * k21);
  const double p22 = -std::expm1(-lambda * k21);
  if (!(p21 > 0.0)) return std::numeric_limits<double>::infinity();
  if (!(p02 > 0.0)) return k01;
  const double k02 = 1.0 / lambda - k01 * p01 / p02;
  const double k22 = p22 > 0.0 ? 1.0 / lambda - k21 * p21 / p22 : 0.0;
  return p01 * k01 + p02 * (k02 + (p22 / p21) * k22 + k21);
}

OracleOptimum eq11_exponential_optimum(double lambda, double cost,
                                       double recovery, double t_min,
                                       double t_max) {
  const auto ratio = [&](double log_t) {
    const double t = std::exp(log_t);
    return eq11_exponential_gamma(lambda, cost, recovery, t) / t;
  };
  const double lo = std::log(t_min);
  const double hi = std::log(t_max);
  constexpr int kScan = 2000;
  int best = 0;
  double best_v = std::numeric_limits<double>::infinity();
  for (int i = 0; i <= kScan; ++i) {
    const double v = ratio(lo + (hi - lo) * i / kScan);
    if (v < best_v) {
      best_v = v;
      best = i;
    }
  }
  double a = lo + (hi - lo) * std::max(best - 1, 0) / kScan;
  double b = lo + (hi - lo) * std::min(best + 1, kScan) / kScan;
  const double g = (std::sqrt(5.0) - 1.0) / 2.0;
  double c = b - g * (b - a);
  double d = a + g * (b - a);
  double fc = ratio(c);
  double fd = ratio(d);
  while (b - a > 1e-10) {
    if (fc < fd) {
      b = d;
      d = c;
      fd = fc;
      c = b - g * (b - a);
      fc = ratio(c);
    } else {
      a = c;
      c = d;
      fc = fd;
      d = a + g * (b - a);
      fd = ratio(d);
    }
  }
  const double x = 0.5 * (a + b);
  return {std::exp(x), ratio(x)};
}

double young_interval(double lambda, double cost) {
  return std::sqrt(2.0 * cost / lambda);
}

}  // namespace perfbench
