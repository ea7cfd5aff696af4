//===- array/Layout.h - Field memory-layout descriptor ---------*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The field memory-layout vocabulary shared by FieldPool, Field, and the
/// kernels:: layer.
///
/// Fields are stored SoA: each conserved component in its own contiguous
/// plane, so the inner kernels see unit-stride streams the compiler can
/// vectorize.  Cons<Dim> records survive only as the interchange format
/// (checkpoints, snapshots, shard mailboxes).  Every pooled buffer is
/// aligned to kFieldAlign and planes are tail-padded to a whole number of
/// alignment blocks, so each component plane starts on a 64-byte
/// boundary regardless of the cell count.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_ARRAY_LAYOUT_H
#define SACFD_ARRAY_LAYOUT_H

#include <cstddef>

namespace sacfd {

/// The one in-memory field layout.  Kept as a tag only so that
/// sacbench/sacbench.cpp, which spells `Layout::SoA`, keeps compiling;
/// nothing in the library passes or branches on it.
enum class Layout : unsigned char { SoA };

/// Alignment of every pooled buffer, and the SoA plane boundary.  One
/// cache line; wide enough for any vector ISA this code targets.
inline constexpr size_t kFieldAlign = 64;

/// Doubles per alignment block.
inline constexpr size_t kAlignDoubles = kFieldAlign / sizeof(double);

/// Rounds an element count up to a whole number of alignment blocks so
/// consecutive SoA planes all start kFieldAlign-aligned.
constexpr size_t paddedCount(size_t N) {
  return (N + kAlignDoubles - 1) / kAlignDoubles * kAlignDoubles;
}

} // namespace sacfd

#endif // SACFD_ARRAY_LAYOUT_H
