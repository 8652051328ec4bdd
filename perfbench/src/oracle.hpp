// Reference computations written from the paper, not from the library:
// the correctness checks compare the program against these.
#pragma once

namespace perfbench {

/// Eq. 11 of the paper (Vaidya's three-state interval model) for
/// exponentially distributed availability with rate `lambda`, checkpoint
/// cost C, recovery cost R and latency L = C:
///
///   Γ(T) = P01·K01 + P02·(K02 + (P22/P21)·K22 + K21)
///   P01 = e^{−λ(C+T)}, K01 = C+T, P02 = 1 − P01,
///   K02 = E[X | X < C+T] = 1/λ − (C+T)·P01/P02,
///   P21 = e^{−λ(L+R+T)}, K21 = L+R+T, P22 = 1 − P21,
///   K22 = E[X | X < L+R+T] = 1/λ − K21·P21/P22.
///
/// The exponential is memoryless, so the machine's age drops out.
[[nodiscard]] double eq11_exponential_gamma(double lambda, double cost,
                                            double recovery, double work);

struct OracleOptimum {
  double work = 0.0;    ///< argmin of Γ(T)/T
  double ratio = 0.0;   ///< Γ(T)/T at the argmin
};

/// Minimize Γ(T)/T over T in [t_min, t_max] by a dense log-spaced scan
/// followed by golden-section refinement in log T to a relative width of
/// 1e-10. The objective is unimodal in T for the exponential family.
[[nodiscard]] OracleOptimum eq11_exponential_optimum(double lambda,
                                                     double cost,
                                                     double recovery,
                                                     double t_min,
                                                     double t_max);

/// Young's first-order optimum sqrt(2·C/λ), valid when λC ≪ 1.
[[nodiscard]] double young_interval(double lambda, double cost);

}  // namespace perfbench
