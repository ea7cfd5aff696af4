//===- sacbench/Stats.h - Order statistics for the benchmark ----*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The few order statistics the benchmark reports, kept in one header so
/// the self-test (`sacbench --selftest-stats`) checks exactly the code the
/// measurements use.
///
///   percentile      linear interpolation between closest ranks (the
///                   "type 7" rule numpy and most tools default to)
///   quartiles       Python's statistics.quantiles(data, n=4), default
///                   'exclusive' method, so spreads printed here agree
///                   with the acceptance rule computed in Python
///   tailPercentile  the highest ladder percentile that still leaves at
///                   least ten samples beyond it
///
//===----------------------------------------------------------------------===//

#ifndef SACBENCH_STATS_H
#define SACBENCH_STATS_H

#include <algorithm>
#include <array>
#include <cstddef>
#include <vector>

namespace sacbench {

/// The \p P-th percentile (0..100) of \p V; 0 for an empty vector.
inline double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Rank = P / 100.0 * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Rank);
  if (Lo + 1 >= V.size())
    return V.back();
  double Frac = Rank - static_cast<double>(Lo);
  return V[Lo] + (V[Lo + 1] - V[Lo]) * Frac;
}

inline double median(const std::vector<double> &V) {
  return percentile(V, 50.0);
}

/// Q1, Q2, Q3 as Python's statistics.quantiles(V, n=4) computes them
/// (method 'exclusive').  A single sample is returned for all three.
inline std::array<double, 3> quartiles(std::vector<double> V) {
  if (V.empty())
    return {0.0, 0.0, 0.0};
  if (V.size() == 1)
    return {V[0], V[0], V[0]};
  std::sort(V.begin(), V.end());
  const long N = static_cast<long>(V.size());
  const long M = N + 1;
  std::array<double, 3> Q{};
  for (long I = 1; I <= 3; ++I) {
    // Python clamps the rank into [1, n-1] before taking the remainder,
    // so Delta may leave [0, 4) for tiny inputs; the formula is the same.
    long J = std::clamp(I * M / 4, 1L, N - 1);
    long Delta = I * M - J * 4;
    Q[I - 1] = (V[J - 1] * static_cast<double>(4 - Delta) +
                V[J] * static_cast<double>(Delta)) /
               4.0;
  }
  return Q;
}

/// The highest percentile of {50, 90, 95, 99, 99.9} with at least ten of
/// \p Samples beyond it; 50 when there are too few samples for any.
inline double tailPercentile(size_t Samples) {
  static constexpr double Ladder[] = {99.9, 99.0, 95.0, 90.0};
  for (double P : Ladder)
    if (static_cast<double>(Samples) * (100.0 - P) / 100.0 >= 10.0 - 1e-9)
      return P;
  return 50.0;
}

} // namespace sacbench

#endif // SACBENCH_STATS_H
