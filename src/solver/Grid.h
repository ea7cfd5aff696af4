//===- solver/Grid.h - Uniform Cartesian grids with ghost cells -*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The computational domain: "the computational domain is divided into a
/// number of grid cells" (Section 3) — a uniform Cartesian grid of Nx (x
/// Ny) cells padded by ghost layers for the reconstruction stencils and
/// boundary conditions.
///
/// Interior indices run [0, cells) per axis; storage indices include the
/// ghost padding.  Storage is the Shape the field NDArray is allocated
/// with, so the array layer and the fused loop nests index identically.
///
/// A grid may be a row slice of a larger global grid (sharded domain
/// decomposition): it then keeps the *global* bounds and cell counts for
/// all physical geometry (dx, cellCenter) while cells()/storageShape()
/// describe the local slice.  Because dx and cellCenter evaluate exactly
/// the same expressions as on the global grid, every coordinate a slice
/// produces is bit-identical to the global grid's value for the same
/// global cell.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_SOLVER_GRID_H
#define SACFD_SOLVER_GRID_H

#include "array/Shape.h"

#include <array>
#include <cassert>
#include <cstddef>

namespace sacfd {

/// Uniform Cartesian grid in \p Dim dimensions with ghost padding.
template <unsigned Dim> class Grid {
public:
  static_assert(Dim >= 1 && Dim <= MaxRank, "unsupported dimension");

  Grid() = default;

  /// \param CellCounts interior cells per axis.
  /// \param Lo, Hi physical bounds of the domain.
  /// \param GhostLayers padding cells on each side of each axis.
  Grid(std::array<size_t, Dim> CellCounts, std::array<double, Dim> Lo,
       std::array<double, Dim> Hi, unsigned GhostLayers)
      : CellCounts(CellCounts), GlobalCellCounts(CellCounts), LoBound(Lo),
        HiBound(Hi), GhostLayers(GhostLayers) {
    for (unsigned A = 0; A < Dim; ++A) {
      assert(CellCounts[A] > 0 && "empty axis");
      assert(Hi[A] > Lo[A] && "degenerate domain");
    }
  }

  /// A row-block slice of \p Global along axis 0: local interior rows
  /// [\p Begin, \p Begin + \p Count) of the global interior.  The slice
  /// keeps the global bounds and counts for geometry, so dx() and
  /// cellCenter() are bitwise the global grid's values.  Slicing a slice
  /// composes the offsets.
  static Grid rowSlice(const Grid &Global, size_t Begin, size_t Count) {
    assert(Count > 0 && Begin + Count <= Global.CellCounts[0] &&
           "row slice out of range");
    Grid G = Global;
    G.CellCounts[0] = Count;
    G.IndexOffset[0] += static_cast<std::ptrdiff_t>(Begin);
    return G;
  }

  /// Square grid over [0, Extent]^Dim convenience constructor.
  static Grid square(size_t CellsPerAxis, double Extent,
                     unsigned GhostLayers) {
    std::array<size_t, Dim> N;
    std::array<double, Dim> Lo, Hi;
    for (unsigned A = 0; A < Dim; ++A) {
      N[A] = CellsPerAxis;
      Lo[A] = 0.0;
      Hi[A] = Extent;
    }
    return Grid(N, Lo, Hi, GhostLayers);
  }

  unsigned ghost() const { return GhostLayers; }
  /// The same grid padded by \p Layers ghost layers per side.
  Grid withGhost(unsigned Layers) const {
    Grid G = *this;
    G.GhostLayers = Layers;
    return G;
  }
  size_t cells(unsigned Axis) const {
    assert(Axis < Dim && "axis out of range");
    return CellCounts[Axis];
  }
  double lo(unsigned Axis) const { return LoBound[Axis]; }
  double hi(unsigned Axis) const { return HiBound[Axis]; }

  /// Interior cells per axis of the global grid this one slices (equal
  /// to cells() for an unsliced grid).
  size_t globalCells(unsigned Axis) const {
    assert(Axis < Dim && "axis out of range");
    return GlobalCellCounts[Axis];
  }

  /// Offset of local interior index 0 within the global interior (zero
  /// for an unsliced grid).
  std::ptrdiff_t indexOffset(unsigned Axis) const {
    assert(Axis < Dim && "axis out of range");
    return IndexOffset[Axis];
  }

  /// Cell width along \p Axis (a global-grid property; identical on
  /// every slice of the same grid).
  double dx(unsigned Axis) const {
    assert(Axis < Dim && "axis out of range");
    return (HiBound[Axis] - LoBound[Axis]) /
           static_cast<double>(GlobalCellCounts[Axis]);
  }

  /// Shape of the field storage (interior plus ghosts).
  Shape storageShape() const {
    Shape S = Shape::uniform(Dim, 0);
    for (unsigned A = 0; A < Dim; ++A)
      S.dim(A) = CellCounts[A] + 2 * static_cast<size_t>(GhostLayers);
    return S;
  }

  /// Shape of the interior region.
  Shape interiorShape() const {
    Shape S = Shape::uniform(Dim, 0);
    for (unsigned A = 0; A < Dim; ++A)
      S.dim(A) = CellCounts[A];
    return S;
  }

  size_t interiorCount() const { return interiorShape().count(); }

  /// Maps an interior index to the corresponding storage index.
  Index toStorage(const Index &Interior) const {
    assert(Interior.Rank == Dim && "rank mismatch");
    Index S = Interior;
    for (unsigned A = 0; A < Dim; ++A)
      S.Coord[A] += static_cast<std::ptrdiff_t>(GhostLayers);
    return S;
  }

  /// Physical center of interior cell \p I along \p Axis (also valid for
  /// ghost cells via negative / past-the-end indices).
  double cellCenter(unsigned Axis, std::ptrdiff_t I) const {
    return LoBound[Axis] +
           (static_cast<double>(I + IndexOffset[Axis]) + 0.5) * dx(Axis);
  }

  friend bool operator==(const Grid &A, const Grid &B) {
    return A.CellCounts == B.CellCounts &&
           A.GlobalCellCounts == B.GlobalCellCounts &&
           A.IndexOffset == B.IndexOffset && A.LoBound == B.LoBound &&
           A.HiBound == B.HiBound && A.GhostLayers == B.GhostLayers;
  }

private:
  std::array<size_t, Dim> CellCounts = {};
  /// Cell counts of the grid this one slices; == CellCounts when global.
  std::array<size_t, Dim> GlobalCellCounts = {};
  /// Global interior index of local interior index 0 per axis.
  std::array<std::ptrdiff_t, Dim> IndexOffset = {};
  /// Bounds of the *global* domain (geometry is global; the local
  /// extent is CellCounts with IndexOffset into it).
  std::array<double, Dim> LoBound = {};
  std::array<double, Dim> HiBound = {};
  unsigned GhostLayers = 0;
};

} // namespace sacfd

#endif // SACFD_SOLVER_GRID_H
