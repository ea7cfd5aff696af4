//===- support/InlinePartials.h - Small-count partials buffer --*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stack-backed storage for per-block reduction partials.
///
/// Every deterministic reduction (fold, blockReduce) needs one partial
/// slot per block, and the block count is almost always the worker count
/// — a handful.  A std::vector there puts a malloc/free on the GetDT
/// path of every step; this buffer keeps small counts (<= InlineCap) in
/// stack storage and only falls back to the heap for large counts (a
/// team wider than the cap).
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_SUPPORT_INLINEPARTIALS_H
#define SACFD_SUPPORT_INLINEPARTIALS_H

#include <algorithm>
#include <cstddef>
#include <vector>

namespace sacfd {

/// A fixed-size sequence of \p N copies of an initial value, stored
/// inline for N <= InlineCap.  T must be default-constructible and
/// copy-assignable (reduction partial types are).
template <typename T, size_t InlineCap = 32> class InlinePartials {
public:
  InlinePartials(size_t N, const T &Init) : N(N) {
    if (N <= InlineCap)
      std::fill_n(Small, N, Init);
    else
      Big.assign(N, Init);
  }

  size_t size() const { return N; }
  T *data() { return N <= InlineCap ? Small : Big.data(); }
  const T *data() const { return N <= InlineCap ? Small : Big.data(); }

  T &operator[](size_t I) { return data()[I]; }
  const T &operator[](size_t I) const { return data()[I]; }
  T &front() { return data()[0]; }
  const T &front() const { return data()[0]; }

  T *begin() { return data(); }
  T *end() { return data() + N; }
  const T *begin() const { return data(); }
  const T *end() const { return data() + N; }

private:
  size_t N;
  T Small[InlineCap];
  std::vector<T> Big;
};

} // namespace sacfd

#endif // SACFD_SUPPORT_INLINEPARTIALS_H
