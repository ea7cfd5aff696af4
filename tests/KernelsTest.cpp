//===- tests/KernelsTest.cpp - kernels:: scalar/SIMD bit-identity ---------===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
//
// The contract of the kernel layer, asserted bit-for-bit on SoA runs:
//   1. simdimpl:: == scalarimpl:: on every kernel, over ragged run
//      lengths (tails shorter than any vector width included);
//   2. scalarimpl:: == the reference per-cell arithmetic the engines
//      always ran (Cons operators, numericalFlux), so routing a stage
//      through kernels:: cannot move a single bit;
//   3. non-finite states (the step-guard's world) keep 1 and 2 true.
// reconstructFaces is additionally held to reconstructFaceStates, and
// through fluxFaces to the per-face numericalFlux pipeline.
//
//===----------------------------------------------------------------------===//

#include "kernels/Kernels.h"

#include "array/Layout.h"

#include "gtest/gtest.h"

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

using namespace sacfd;
using namespace sacfd::kernels;

namespace {

// Ragged lengths: below, at, and astride every plausible vector width.
const size_t kLengths[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 64, 97};

/// SoA image (padded planes) of a vector of Cons records.
template <unsigned Dim> struct Buffers {
  std::vector<double> Soa;
  size_t Plane = 0;

  explicit Buffers(const std::vector<Cons<Dim>> &Cells)
      : Soa(NumVars<Dim> * paddedCount(Cells.size()), 0.0),
        Plane(paddedCount(Cells.size())) {
    for (size_t I = 0; I < Cells.size(); ++I)
      for (unsigned K = 0; K < NumVars<Dim>; ++K)
        Soa[K * Plane + I] = Cells[I].comp(K);
  }

  Run<Dim> soa() { return soaRun<Dim>(Soa.data(), Plane, 0); }
  double comp(size_t I, unsigned K) const { return Soa[K * Plane + I]; }
};

// Deterministic state soup: mostly physical states across many decades,
// sprinkled with near-vacuum and a few broken (NaN / negative-density)
// cells so the guard's world is covered too.
template <unsigned Dim>
std::vector<Cons<Dim>> randomStates(size_t N, uint64_t Seed,
                                    bool IncludeBroken) {
  std::mt19937_64 Rng(Seed);
  std::uniform_real_distribution<double> Mag(-3.0, 3.0);
  std::uniform_real_distribution<double> Uni(0.0, 1.0);
  Gas G;
  std::vector<Cons<Dim>> Out(N);
  for (size_t I = 0; I < N; ++I) {
    Prim<Dim> W;
    W.Rho = std::pow(10.0, Mag(Rng));
    W.P = std::pow(10.0, Mag(Rng));
    for (unsigned D = 0; D < Dim; ++D)
      W.Vel[D] = 20.0 * (Uni(Rng) - 0.5);
    Out[I] = toCons(W, G);
    if (IncludeBroken && Uni(Rng) < 0.1) {
      double Bad = Uni(Rng) < 0.5 ? std::numeric_limits<double>::quiet_NaN()
                                  : -W.Rho;
      Out[I].setComp(static_cast<unsigned>(Rng() % NumVars<Dim>), Bad);
    }
  }
  return Out;
}

/// Asserts the first \p N cells of \p Got equal the Cons references
/// \p Ref bit for bit.
///
/// With \p AnyNaN a NaN reference accepts any NaN: when two NaNs meet in
/// one operation (an input NaN and one generated by, say, 0 * inf), which
/// one survives depends on the operand order the compiler picked, not on
/// the source, so NaN sign and payload are not part of the contract.
template <unsigned Dim>
void expectBitEqual(const std::vector<Cons<Dim>> &Ref, const Buffers<Dim> &Got,
                    size_t N, const std::string &What, bool AnyNaN = false) {
  for (size_t I = 0; I < N; ++I)
    for (unsigned K = 0; K < NumVars<Dim>; ++K) {
      double X = Ref[I].comp(K);
      double Y = Got.comp(I, K);
      if (AnyNaN && std::isnan(X) && std::isnan(Y))
        continue;
      ASSERT_EQ(std::memcmp(&X, &Y, sizeof X), 0)
          << What << " N=" << N << " cell " << I << " comp " << K << ": "
          << X << " != " << Y;
    }
}

std::string label(const char *Kernel, bool Simd) {
  return std::string(Kernel) + (Simd ? " simd" : " scalar");
}

// -------------------------------------------------------------------------
// sspUpdate: scalar == simd == the engines' Cons arithmetic.

template <unsigned Dim> void checkSspUpdate(uint64_t Seed, bool Broken) {
  const double A = 0.75, B = 0.25, Dt = 1.3e-3;
  for (size_t N : kLengths) {
    auto U0 = randomStates<Dim>(N, Seed, Broken);
    auto Un = randomStates<Dim>(N, Seed + 1, Broken);
    auto Rs = randomStates<Dim>(N, Seed + 2, Broken);

    // Reference: the ArraySolver update expression.
    std::vector<Cons<Dim>> Ref(N);
    for (size_t I = 0; I < N; ++I)
      Ref[I] = Un[I] * A + (U0[I] + Rs[I] * Dt) * B;

    for (bool Simd : {false, true}) {
      Buffers<Dim> Bu(U0), Bn(Un), Br(Rs);
      sspUpdate<Dim>(Bu.soa(), ConstRun<Dim>(Bn.soa()),
                     ConstRun<Dim>(Br.soa()), A, B, Dt, N, Simd);
      expectBitEqual(Ref, Bu, N, label("sspUpdate", Simd));
    }
  }
}

TEST(Kernels, SspUpdateBitIdentity1D) { checkSspUpdate<1>(7, false); }
TEST(Kernels, SspUpdateBitIdentity2D) { checkSspUpdate<2>(11, false); }
TEST(Kernels, SspUpdateBrokenStates) { checkSspUpdate<2>(17, true); }

// -------------------------------------------------------------------------
// maxEigen: scalar == simd == the per-cell max chain.

template <unsigned Dim> void checkMaxEigen(uint64_t Seed, bool Broken) {
  Gas G;
  double InvDx[3] = {10.0, 20.0, 40.0};
  for (size_t N : kLengths) {
    auto U = randomStates<Dim>(N, Seed, Broken);

    // Reference: the engines' sequential chain.
    double Ref = 0.0;
    for (size_t I = 0; I < N; ++I) {
      Prim<Dim> W = toPrim(U[I], G);
      double Ev = 0.0;
      for (unsigned D = 0; D < Dim; ++D)
        Ev += maxWaveSpeed(W, G, D) * InvDx[D];
      Ref = std::max(Ref, Ev);
    }

    for (bool Simd : {false, true}) {
      Buffers<Dim> Bu(U);
      double Got =
          maxEigen<Dim>(ConstRun<Dim>(Bu.soa()), G, InvDx, 0.0, N, Simd);
      ASSERT_EQ(std::memcmp(&Got, &Ref, sizeof Ref), 0)
          << label("maxEigen", Simd) << " N=" << N << " got " << Got
          << " want " << Ref;
    }
  }
}

TEST(Kernels, MaxEigenBitIdentity1D) { checkMaxEigen<1>(23, false); }
TEST(Kernels, MaxEigenBitIdentity2D) { checkMaxEigen<2>(29, false); }
TEST(Kernels, MaxEigenBrokenStates) { checkMaxEigen<2>(37, true); }

// -------------------------------------------------------------------------
// fluxFaces: scalar == numericalFlux reference; simd == scalar, per
// solver kind, per axis, ragged lengths, broken states included.

template <unsigned Dim>
void checkFluxFaces(RiemannKind Kind, uint64_t Seed, bool Broken) {
  Gas G;
  for (size_t N : kLengths) {
    auto L = randomStates<Dim>(N, Seed, Broken);
    auto R = randomStates<Dim>(N, Seed + 5, Broken);
    for (unsigned Axis = 0; Axis < Dim; ++Axis) {
      std::vector<Cons<Dim>> Ref(N);
      for (size_t I = 0; I < N; ++I)
        Ref[I] = numericalFlux(Kind, L[I], R[I], G, Axis);

      for (bool Simd : {false, true}) {
        Buffers<Dim> Bl(L), Br(R), Bf{std::vector<Cons<Dim>>(N)};
        fluxFaces<Dim>(ConstRun<Dim>(Bl.soa()), ConstRun<Dim>(Br.soa()),
                       Bf.soa(), G, Axis, Kind, N, Simd);
        expectBitEqual(Ref, Bf, N,
                       label("fluxFaces", Simd) + " " +
                           riemannKindName(Kind) +
                           " axis=" + std::to_string(Axis));
      }
    }
  }
}

TEST(Kernels, FluxRusanov1D) { checkFluxFaces<1>(RiemannKind::Rusanov, 41, false); }
TEST(Kernels, FluxRusanov2D) { checkFluxFaces<2>(RiemannKind::Rusanov, 43, false); }
TEST(Kernels, FluxHll1D) { checkFluxFaces<1>(RiemannKind::Hll, 47, false); }
TEST(Kernels, FluxHll2D) { checkFluxFaces<2>(RiemannKind::Hll, 53, false); }
TEST(Kernels, FluxHllc1D) { checkFluxFaces<1>(RiemannKind::Hllc, 59, false); }
TEST(Kernels, FluxHllc2D) { checkFluxFaces<2>(RiemannKind::Hllc, 61, false); }
TEST(Kernels, FluxRoe2D) { checkFluxFaces<2>(RiemannKind::Roe, 71, false); }
TEST(Kernels, FluxHllcBrokenStates) {
  checkFluxFaces<2>(RiemannKind::Hllc, 73, true);
}
TEST(Kernels, FluxRusanovBrokenStates) {
  checkFluxFaces<2>(RiemannKind::Rusanov, 79, true);
}

// -------------------------------------------------------------------------
// reconstructFaces: scalar == per-face reconstructFaceStates, simd ==
// scalar, and either feeding fluxFaces == numericalFlux on the reference
// face states — every scheme menu entry, every axis, both lane layouts
// (unit stride: the window runs along the lanes, as in last-axis sweeps;
// a ragged row pitch: the window runs across rows), ragged lengths.

/// Face-row test bed: window cell K of lane I is cell I + K * Stride of
/// Cells, so the kernel's run starts at cell 3 * Stride.
template <unsigned Dim> struct FaceRow {
  size_t Stride;
  std::vector<Cons<Dim>> Cells;

  size_t cell(size_t Lane, unsigned K) const { return Lane + K * Stride; }
};

template <unsigned Dim>
FaceRow<Dim> faceRow(size_t N, size_t Stride, uint64_t Seed, bool Broken) {
  Gas G;
  FaceRow<Dim> Row{Stride, randomStates<Dim>(5 * Stride + N, Seed, Broken)};
  auto State = [&](double Rho, double U, double P) {
    Prim<Dim> W;
    W.Rho = Rho;
    for (unsigned D = 0; D < Dim; ++D)
      W.Vel[D] = U / (D + 1);
    W.P = P;
    return toCons(W, G);
  };
  // A lane straddling a strong shock: window cells 0..2 on the high
  // side, 3..5 on the low side.
  size_t Shock = N / 3;
  for (unsigned K = 0; K < 6; ++K)
    Row.Cells[Row.cell(Shock, K)] =
        K < 3 ? State(5.0, 3.0, 1e4) : State(0.125, 0.0, 0.1);
  // A near-vacuum lane (the last, so it sits in the ragged tail) whose
  // face neighbours carry a slightly negative pressure: the Roe sound
  // speed hits the C2 <= 0 clamp, and primitive reconstructions take
  // the positivity fallback.
  for (unsigned K = 2; K < 4; ++K)
    Row.Cells[Row.cell(N - 1, K)] = State(1e-9, 3.0, -1e-12);
  return Row;
}

template <unsigned Dim>
void checkReconstructFaces(uint64_t Seed, bool Broken) {
  Gas G;
  const ReconstructionKind Kinds[] = {
      ReconstructionKind::PiecewiseConstant, ReconstructionKind::Tvd2,
      ReconstructionKind::Tvd3, ReconstructionKind::Weno3,
      ReconstructionKind::Weno5};
  const LimiterKind Limiters[] = {LimiterKind::MinMod, LimiterKind::Superbee,
                                  LimiterKind::VanLeer, LimiterKind::Mc};
  size_t ClampLanes = 0, FallbackLanes = 0;
  for (size_t N : kLengths)
    for (size_t Stride : {size_t(1), N + 3}) {
      FaceRow<Dim> Row = faceRow<Dim>(N, Stride, Seed + N, Broken);
      Buffers<Dim> Bu(Row.Cells);
      ConstRun<Dim> U = advance(ConstRun<Dim>(Bu.soa()),
                                static_cast<ptrdiff_t>(3 * Stride));
      for (unsigned Axis = 0; Axis < Dim; ++Axis)
        for (ReconstructionKind Kind : Kinds)
          for (LimiterKind Lim : Limiters)
            for (ReconstructVariables Vars :
                 {ReconstructVariables::Characteristic,
                  ReconstructVariables::Primitive}) {
              std::vector<Cons<Dim>> RefL(N), RefR(N), RefF(N);
              for (size_t I = 0; I < N; ++I) {
                std::array<Cons<Dim>, 6> Stencil;
                for (unsigned K = 0; K < 6; ++K)
                  Stencil[K] = Row.Cells[Row.cell(I, K)];
                FaceStates<Dim> FS = reconstructFaceStates(Kind, Lim, Vars,
                                                           Stencil, G, Axis);
                RefL[I] = FS.L;
                RefR[I] = FS.R;
                RefF[I] = numericalFlux(RiemannKind::Hllc, FS.L, FS.R, G,
                                        Axis);
                if (Kind == ReconstructionKind::Weno3 &&
                    Lim == LimiterKind::MinMod && Axis == 0) {
                  Prim<Dim> Wl = toPrim(Stencil[2], G);
                  Prim<Dim> Wr = toPrim(Stencil[3], G);
                  if (Vars == ReconstructVariables::Characteristic &&
                      roeAverage(Wl, Wr, G).C == 0.0)
                    ++ClampLanes;
                  if (Vars == ReconstructVariables::Primitive) {
                    std::array<double, 6> W;
                    for (unsigned K = 0; K < 6; ++K)
                      W[K] = toPrim(Stencil[K], G).P;
                    if (reconstructFace(Kind, Lim, W).L <= 0.0)
                      ++FallbackLanes;
                  }
                }
              }

              std::string What =
                  std::string(reconstructionKindName(Kind)) + "/" +
                  limiterKindName(Lim) +
                  (Vars == ReconstructVariables::Primitive ? "/primitive"
                                                           : "/char") +
                  " axis=" + std::to_string(Axis) +
                  " stride=" + std::to_string(Stride);
              for (bool Simd : {false, true}) {
                Buffers<Dim> Bl{std::vector<Cons<Dim>>(N)},
                    Br{std::vector<Cons<Dim>>(N)},
                    Bf{std::vector<Cons<Dim>>(N)};
                reconstructFaces<Dim>(U, static_cast<ptrdiff_t>(Stride),
                                      Bl.soa(), Br.soa(), G, Axis, Kind, Lim,
                                      Vars, N, Simd);
                expectBitEqual(RefL, Bl, N,
                               label("reconstructFaces L", Simd) + " " + What,
                               Broken);
                expectBitEqual(RefR, Br, N,
                               label("reconstructFaces R", Simd) + " " + What,
                               Broken);
                fluxFaces<Dim>(ConstRun<Dim>(Bl.soa()),
                               ConstRun<Dim>(Br.soa()), Bf.soa(), G, Axis,
                               RiemannKind::Hllc, N, Simd);
                expectBitEqual(RefF, Bf, N,
                               label("reconstructFaces+fluxFaces", Simd) +
                                   " " + What,
                               Broken);
              }
            }
    }
  // The hostile lanes really are exercised.
  EXPECT_GT(ClampLanes, 0u);
  EXPECT_GT(FallbackLanes, 0u);
}

TEST(Kernels, ReconstructFacesBitIdentity1D) { checkReconstructFaces<1>(107, false); }
TEST(Kernels, ReconstructFacesBitIdentity2D) { checkReconstructFaces<2>(109, false); }
TEST(Kernels, ReconstructFacesBrokenStates) { checkReconstructFaces<2>(127, true); }

// -------------------------------------------------------------------------
// copy / zero / divergence accumulation.

template <unsigned Dim> void checkCopyZeroDiv(uint64_t Seed) {
  for (size_t N : kLengths) {
    auto Src = randomStates<Dim>(N, Seed, false);
    auto Lo = randomStates<Dim>(N, Seed + 1, false);
    auto Hi = randomStates<Dim>(N, Seed + 2, false);
    auto R0 = randomStates<Dim>(N, Seed + 3, false);
    const double InvDx = 123.5;

    std::vector<Cons<Dim>> Ref = R0;
    for (size_t I = 0; I < N; ++I)
      Ref[I] -= (Hi[I] - Lo[I]) * InvDx;

    for (bool Simd : {false, true}) {
      Buffers<Dim> Bs(Src), Bd{std::vector<Cons<Dim>>(N)};
      copyState<Dim>(ConstRun<Dim>(Bs.soa()), Bd.soa(), N, Simd);
      expectBitEqual(Src, Bd, N, label("copyState", Simd));

      // Zeroing starts from nonzero states (the copy above) and must
      // write +0.0 to every cell, ragged tail included.
      zeroState<Dim>(Bd.soa(), N, Simd);
      expectBitEqual(std::vector<Cons<Dim>>(N), Bd, N,
                     label("zeroState", Simd));

      Buffers<Dim> Br(R0), Bl(Lo), Bh(Hi);
      accumDivergence<Dim>(Br.soa(), ConstRun<Dim>(Bl.soa()),
                           ConstRun<Dim>(Bh.soa()), InvDx, N, Simd);
      expectBitEqual(Ref, Br, N, label("accumDivergence", Simd));
    }
  }
}

TEST(Kernels, CopyZeroDivergence1D) { checkCopyZeroDiv<1>(83); }
TEST(Kernels, CopyZeroDivergence2D) { checkCopyZeroDiv<2>(89); }

// Overlapping Lo/Hi views of one face line — the engines' usage.
TEST(Kernels, DivergenceOverlappingFaceLine) {
  constexpr unsigned Dim = 2;
  for (size_t N : kLengths) {
    auto Faces = randomStates<Dim>(N + 1, 101, false);
    auto R0 = randomStates<Dim>(N, 103, false);
    const double InvDx = 50.0;
    std::vector<Cons<Dim>> Ref = R0;
    for (size_t I = 0; I < N; ++I)
      Ref[I] -= (Faces[I + 1] - Faces[I]) * InvDx;

    for (bool Simd : {false, true}) {
      Buffers<Dim> Bf(Faces), Br(R0);
      ConstRun<Dim> Lo(Bf.soa());
      accumDivergence<Dim>(Br.soa(), Lo, advance(Lo, 1), InvDx, N, Simd);
      expectBitEqual(Ref, Br, N, label("overlap divergence", Simd));
    }
  }
}

TEST(Kernels, ReportsAcceleration) {
  // Informational: the CI log shows whether this build's SIMD TU really
  // got the host-ISA flags.
  SUCCEED() << "simdAccelerated() = " << simdAccelerated();
}

} // namespace
