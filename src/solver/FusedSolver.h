//===- solver/FusedSolver.h - Fortran-style loop-nest engine ---*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Fortran original: explicit loop nests over raw storage.
///
/// This engine is the performance shape of the paper's Fortran-90 code
/// under an auto-parallelizing compiler:
///   - hand-fused stride-arithmetic loops, no intermediate whole-array
///     temporaries beyond the per-axis flux line buffer (fast on one
///     core — the left edge of Fig. 4);
///   - every loop nest is its own parallel region dispatched through the
///     Backend, the way -autopar parallelizes each DO loop independently.
///     One 2D RK3 time step issues 26 regions (8 per stage: 4 boundary
///     sides, RHS zeroing, 2 axis sweeps, the update; plus the snapshot
///     copy and the GetDT reduction; the runtime.regions counter reads
///     26 per step on a traced run); with the fork-join backend each of
///     those pays the thread-team setup cost, which is the scaling
///     collapse of Fig. 4.
///
/// The loop bodies themselves are the shared kernels:: layer: snapshot,
/// RHS zeroing, the SSP update, the GetDT reduction and the face sweeps
/// (reconstruction, Riemann flux, divergence) run as contiguous line
/// runs — so the hot loops execute the vectorized kernel build over the
/// field's SoA planes.  The last-axis sweep runs along its lines; the 2D
/// axis-0 sweep is restructured into row runs, so no sweep gathers per
/// face.
///
/// On a TaskBackend the engine additionally offers a dependency-DAG step
/// mode (enableDagStepping): one step becomes per-tile snapshot, flux and
/// update tasks linked by exact data dependencies, so a tile can run
/// stage s+1 while a distant tile is still in stage s — no global
/// barrier between the 26 regions.  The GetDT reduction rides along as
/// per-tile max-eigenvalue tasks released by each tile's final update,
/// merged in row-major tile order; the merged value is cached and served
/// by the next computeDt() call, overlapping GetDT with independent
/// work instead of dedicating a barrier-bounded region to it.
///
/// The numerics (reconstruction, Riemann solver, stage table) are shared
/// with ArraySolver, so for identical settings the two engines produce
/// bit-identical fields.  The DAG mode preserves that: sub-range seam
/// faces are recomputed from the same stencils, per-cell arithmetic
/// order within the RHS is fixed by tile-local axis ordering, and the
/// max-reduction is grouping-independent — so fields stay bit-identical
/// to serial at every worker count.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_SOLVER_FUSEDSOLVER_H
#define SACFD_SOLVER_FUSEDSOLVER_H

#include "runtime/BlockReduce.h"
#include "runtime/TaskBackend.h"
#include "solver/EulerSolver.h"

#include <algorithm>
#include <optional>
#include <vector>

namespace sacfd {

/// The Fortran-style engine: fused stride-based loop nests.
template <unsigned Dim> class FusedSolver final : public EulerSolver<Dim> {
public:
  FusedSolver(Problem<Dim> Prob, SchemeConfig Scheme, Backend &Exec,
              bool Simd = true)
      : EulerSolver<Dim>(std::move(Prob), Scheme, Exec, Simd) {}

  const char *engineName() const override { return "fused"; }

  /// Switches stepWithDt to the dependency-DAG pipeline.  Requires the
  /// backend to support DAG dispatch (Backend::taskBackend).
  /// \returns false (leaving the loop mode active) when unsupported.
  bool enableDagStepping() {
    DagExec = this->Exec.taskBackend();
    return DagExec != nullptr;
  }

  /// True when steps run as a task DAG rather than barrier-ed regions.
  bool dagStepping() const { return DagExec != nullptr; }

  /// The DAG step mode's tile decomposition of a (Lines x Cells) update
  /// space: 32 x 128 tiles (a band of lines tall enough to amortize task
  /// overhead, a contiguous run long enough to stream), clipped to the
  /// extents.  The grain the DAG was measured with (EXPERIMENTS A7); it
  /// depends on the extents alone, never the worker count, so the step
  /// graph and its telemetry are identical at every worker count.
  static TileGrid stepDagTiles(size_t Lines, size_t Cells) {
    return TileGrid(Lines, Cells, 32, 128);
  }

  /// The Fortran GetDT: nested DO loops, line-block maxima in parallel,
  /// then a serial max over blocks.  The max chain is exact under any
  /// grouping, so every worker count and the DAG mode's per-tile partials
  /// produce bit-identical dt.
  /// In DAG mode the previous step already merged the per-tile maxima
  /// (cache keyed on the clock, invalidated by onClockRestored), so this
  /// usually returns without touching the field.
  double computeDt() override {
    if (DagExec && DtCacheValid && this->Steps == DtCacheSteps &&
        this->Time == DtCacheTime)
      return this->dtFromMaxEigen(CachedEvMax);
    static const unsigned SpanGetDt = telemetry::spanId("solver.get_dt");
    telemetry::ScopedSpan Span(SpanGetDt);

    // Lines run along the last (contiguous) axis.
    constexpr unsigned LineAxis = Dim - 1;
    size_t Lines = this->lineCount(LineAxis);

    double EvMax = blockReduce(
        Lines, this->Exec, 0.0,
        [&](size_t LineBegin, size_t LineEnd) {
          return maxEigenRange(LineBegin, LineEnd, 0, this->N[LineAxis]);
        },
        [](double A, double B) { return std::max(A, B); });
    return this->dtFromMaxEigen(EvMax);
  }

protected:
  void stepWithDt(double Dt) override {
    if (DagExec) {
      stepWithDtDag(Dt);
      return;
    }
    static const unsigned SpanSnapshot = telemetry::spanId("solver.snapshot");
    static const unsigned SpanBoundary = telemetry::spanId("solver.boundary");
    static const unsigned SpanFlux = telemetry::spanId("solver.flux");
    static const unsigned SpanUpdate = telemetry::spanId("solver.update");
    const Grid<Dim> &G = this->Prob.Domain;
    size_t StorageCount = this->U.shape().count();
    size_t InteriorCount = G.interiorCount();

    // QN = QP: whole-array snapshot (one parallel region, as the
    // auto-parallelizer emits for a Fortran array assignment).  Both
    // scratch buffers are leased on first use; every element is written
    // before being read, so the uninit mode applies.
    acquireStepBuffers();
    {
      telemetry::ScopedSpan S(SpanSnapshot);
      this->Exec.parallelFor(0, StorageCount, [&](size_t B, size_t E) {
        kernels::copyState<Dim>(this->U.crun(B), Un.run(B), E - B,
                                this->SimdEnabled);
      });
    }

    for (const SspStage &Stage : sspStages(this->Scheme.Integrator)) {
      {
        telemetry::ScopedSpan S(SpanBoundary);
        this->fillGhosts(this->Time);
      }

      {
        // RHS zeroing plus the directional sweeps (reconstruction +
        // Riemann fluxes + divergence, one region per axis).
        telemetry::ScopedSpan S(SpanFlux);
        this->Exec.parallelFor(0, InteriorCount, [&](size_t B, size_t E) {
          kernels::zeroState<Dim>(Res.run(B), E - B, this->SimdEnabled);
        });
        for (unsigned Axis = 0; Axis < Dim; ++Axis)
          // Workers split the lines; every line sweeps all its cells.
          this->Exec.parallelFor(
              0, this->lineCount(Axis),
              [&, Axis](size_t LineBegin, size_t LineEnd) {
                sweepRange(Axis, LineBegin, LineEnd, 0, this->N[Axis]);
              });
      }

      // Update loop (one region): U = A*Un + B*(U + dt*Res) on interior.
      constexpr unsigned LineAxis = Dim - 1;
      telemetry::ScopedSpan UpdateSpan(SpanUpdate);
      this->Exec.parallelFor(
          0, this->lineCount(LineAxis), [&](size_t LB, size_t LE) {
            updateRange(Stage.PrevWeight, Stage.StageWeight, Dt, LB, LE, 0,
                        this->N[LineAxis]);
          });
    }
  }

  void onClockRestored() override { DtCacheValid = false; }

private:
  void acquireStepBuffers() {
    const Grid<Dim> &G = this->Prob.Domain;
    if (Un.shape() != this->U.shape())
      Un = Field<Dim>(this->Pool, this->U.shape(), FieldInit::Uninit);
    if (Res.shape() != G.interiorShape())
      Res = Field<Dim>(this->Pool, G.interiorShape(), FieldInit::Uninit);
  }

  /// One directional sweep over lines [LineBegin, LineEnd) x cells
  /// [CellBegin, CellEnd): per line, compute all bounding face fluxes
  /// into a scratch buffer, then accumulate the flux differences into
  /// the RHS.  This is the fused Fortran structure: flux and difference
  /// in one pass over the line, no global flux array.  Each cell's
  /// update reads faces I and I+1 computed from the same stencils
  /// regardless of the sub-range, so line-split and tile-decomposed
  /// (DAG) sweeps are bit-identical (sub-range boundary faces are
  /// recomputed, not communicated).
  ///
  /// Both sweeps run on the kernels over contiguous face rows: the last
  /// axis along its lines, the 2D axis-0 sweep restructured into row runs.
  void sweepRange(unsigned Axis, size_t LineBegin, size_t LineEnd,
                  size_t CellBegin, size_t CellEnd) {
    if (Axis == Dim - 1)
      sweepRangeKernelLastAxis(LineBegin, LineEnd, CellBegin, CellEnd);
    else if constexpr (Dim == 2)
      sweepRangeKernelAxis0(LineBegin, LineEnd, CellBegin, CellEnd);
  }

  /// Kernel form of the last-axis sweep: per line, one faceFluxRow over
  /// the bounding faces (unit-stride SoA scratch, so the SIMD kernels
  /// apply), then one accumDivergence run into the RHS.  The kernels
  /// mirror reconstructFaceStates and numericalFlux term for term, so the
  /// face values are the reference's bits.
  void sweepRangeKernelLastAxis(size_t LineBegin, size_t LineEnd,
                                size_t CellBegin, size_t CellEnd) {
    constexpr unsigned Axis = Dim - 1;
    const double InvDx = 1.0 / this->Prob.Domain.dx(Axis);
    size_t LocalFaces = (CellEnd - CellBegin) + 1;
    kernels::Run<Dim> FluxRow = fluxScratchRow<Dim>(0, 3, LocalFaces);
    kernels::Run<Dim> Ls = fluxScratchRow<Dim>(1, 3, LocalFaces);
    kernels::Run<Dim> Rs = fluxScratchRow<Dim>(2, 3, LocalFaces);
    for (size_t Line = LineBegin; Line != LineEnd; ++Line) {
      // Face f (local) has its right-hand cell at storage Base + f; cell
      // Base - 1 is the ghost neighbor when CellBegin == 0.
      size_t Base = this->lineStorageBase(Axis, Line) + CellBegin;
      this->faceFluxRow(Axis, Base, FluxRow, Ls, Rs, LocalFaces);
      size_t RBase = this->lineInteriorBase(Axis, Line) + CellBegin;
      kernels::ConstRun<Dim> Lo = FluxRow;
      kernels::accumDivergence<Dim>(Res.run(RBase), Lo,
                                    kernels::advance(Lo, 1), InvDx,
                                    CellEnd - CellBegin, this->SimdEnabled);
    }
  }

  /// Kernel form of the 2D axis-0 sweep.  The sweep space is transposed
  /// (lines = columns, cells = rows), so contiguous runs go across the
  /// line range: face row f is computed once into a rolling two-row
  /// scratch, and cell row i consumes face rows i and i+1.  Same face
  /// values, same single accumulation per cell as the last-axis sweep.
  void sweepRangeKernelAxis0(size_t LineBegin, size_t LineEnd,
                             size_t CellBegin, size_t CellEnd) {
    static_assert(Dim == 2, "axis-0 kernel sweep is the 2D restructure");
    const double InvDx = 1.0 / this->Prob.Domain.dx(0);
    const size_t S0 = this->StorageStride[0];
    size_t W = LineEnd - LineBegin;

    // Storage offset of the R-side cell row of face row f: interior row
    // f, columns [LineBegin, LineEnd).
    auto FaceRowBase = [&](size_t F) {
      return (this->Ng + F) * S0 + this->Ng + LineBegin;
    };

    kernels::Run<Dim> Rows[2] = {fluxScratchRow<Dim>(0, 4, W),
                                 fluxScratchRow<Dim>(1, 4, W)};
    kernels::Run<Dim> Ls = fluxScratchRow<Dim>(2, 4, W);
    kernels::Run<Dim> Rs = fluxScratchRow<Dim>(3, 4, W);
    this->faceFluxRow(0, FaceRowBase(CellBegin), Rows[0], Ls, Rs, W);
    for (size_t I = CellBegin; I != CellEnd; ++I) {
      kernels::Run<Dim> &Lo = Rows[(I - CellBegin) % 2];
      kernels::Run<Dim> &Hi = Rows[(I - CellBegin + 1) % 2];
      this->faceFluxRow(0, FaceRowBase(I + 1), Hi, Ls, Rs, W);
      size_t RBase = I * this->N[1] + LineBegin;
      kernels::accumDivergence<Dim>(Res.run(RBase), Lo, Hi, InvDx, W,
                                    this->SimdEnabled);
    }
  }

  /// U = A*Un + B*(U + dt*Res) over lines [LB, LE) x cells [CB, CE) of
  /// the update space (lines along the last axis) — one SSP kernel run
  /// per line.
  void updateRange(double A, double B, double Dt, size_t LB, size_t LE,
                   size_t CB, size_t CE) {
    constexpr unsigned LineAxis = Dim - 1;
    for (size_t Line = LB; Line != LE; ++Line) {
      size_t SBase = this->lineStorageBase(LineAxis, Line) + CB;
      size_t RBase = Line * this->N[LineAxis] + CB;
      kernels::sspUpdate<Dim>(this->U.run(SBase), Un.crun(SBase),
                              Res.crun(RBase), A, B, Dt, CE - CB,
                              this->SimdEnabled);
    }
  }

  /// Max CFL eigenvalue over lines [LineBegin, LineEnd) x cells
  /// [CellBegin, CellEnd) of the update space (the GetDT kernel body).
  double maxEigenRange(size_t LineBegin, size_t LineEnd, size_t CellBegin,
                       size_t CellEnd) const {
    constexpr unsigned LineAxis = Dim - 1;
    const Grid<Dim> &G = this->Prob.Domain;
    double InvDx[Dim];
    for (unsigned A = 0; A < Dim; ++A)
      InvDx[A] = 1.0 / G.dx(A);
    double Acc = 0.0;
    for (size_t Line = LineBegin; Line != LineEnd; ++Line) {
      size_t Base = this->lineStorageBase(LineAxis, Line) + CellBegin;
      Acc = kernels::maxEigen<Dim>(this->U.crun(Base), this->Prob.G, InvDx,
                                   Acc, CellEnd - CellBegin,
                                   this->SimdEnabled);
    }
    return Acc;
  }

  //===--------------------------------------------------------------------===//
  // Dependency-DAG step mode (TaskBackend only)
  //
  // The interior is carved once into a TileGrid over the update space
  // (lines x cells-along-last-axis; dimensions from stepDagTiles).  One
  // step becomes, per tile T:
  //
  //   Snap(T)                 copy U -> Un on T's interior cells
  //   per stage s:
  //     Bnd(s)                ghost fill, serial inside one task
  //     Flux(s, axis, T)      zero T's RHS (first axis only), then the
  //                           directional sweep restricted to T
  //     Upd(s, T)             the SSP update on T
  //   DtPart(T)               max eigenvalue over T (next step's GetDT)
  //   DtMerge                 row-major-ordered max over the tile partials
  //
  // Edges encode exact data dependencies, including the anti-dependencies
  // "every flux task reading a tile's U runs before that tile's update
  // overwrites it" and "a stage's boundary task waits for the previous
  // stage's updates of every edge-band tile".  Ghost-reading flux tasks
  // depend on their stage's boundary task; interior tiles don't, which is
  // precisely the pipelining headroom.  Determinism: seam faces are
  // recomputed from the same stencils, the per-cell RHS sequence
  // (zero, -axis0, -axis1) is fixed by the tile-local flux chain, and the
  // dt merge is an exact max in tile order — so any steal order yields
  // bit-identical fields and telemetry gauges.
  //===--------------------------------------------------------------------===//

  enum DagNodeKind : uint64_t {
    KSnap = 0,
    KBnd = 1,
    KFlux = 2,
    KUpd = 3,
    KDtPart = 4,
    KDtMerge = 5,
  };

  static uint64_t dagPayload(DagNodeKind Kind, unsigned Axis, size_t Stage,
                             size_t TileIndex) {
    return static_cast<uint64_t>(Kind) | (static_cast<uint64_t>(Axis) << 3) |
           (static_cast<uint64_t>(Stage) << 6) |
           (static_cast<uint64_t>(TileIndex) << 16);
  }

  /// Tile-row/col index of interior coordinate \p C along an axis with
  /// nominal tile size \p TileDim (TileGrid tiles cover
  /// [i*TileDim, min((i+1)*TileDim, Extent))).
  static size_t tileIndexOf(size_t C, size_t TileDim) { return C / TileDim; }

  /// True when \p R contains interior cells within Ng of any domain
  /// face — the cells applyBoundaries reads (and, for periodic, copies
  /// from the opposite band, which is also covered).
  bool rectTouchesEdgeBand(const TileRect &R, const TileGrid &G) const {
    if (Dim >= 2 && (R.RowBegin < this->Ng || R.RowEnd + this->Ng > G.rows()))
      return true;
    return R.ColBegin < this->Ng || R.ColEnd + this->Ng > G.cols();
  }

  /// The update-space tile indices whose U cells a flux task over tile
  /// \p Ti along \p Axis reads (its own tile plus up to a 3-cell stencil
  /// reach into neighbors), appended to \p Out.  \p GhostRead reports
  /// whether the clamped stencil extends into ghost cells.
  void fluxReadTiles(const TileGrid &G, unsigned Axis, size_t Ti,
                     std::vector<size_t> &Out, bool &GhostRead) const {
    TileRect R = G.rect(Ti);
    constexpr unsigned LineAxis = Dim - 1;
    if (Axis == LineAxis) {
      // Sweep along columns: reads cols [ColBegin-3, ColEnd+2] of its
      // own tile rows.
      size_t Lo = R.ColBegin < 3 ? 0 : R.ColBegin - 3;
      size_t Hi = std::min(R.ColEnd + 2, G.cols() - 1);
      GhostRead = R.ColBegin < 3 || R.ColEnd + 2 > G.cols() - 1;
      size_t TRow = Ti / G.colTiles();
      for (size_t TC = tileIndexOf(Lo, G.tileCols());
           TC <= tileIndexOf(Hi, G.tileCols()); ++TC)
        Out.push_back(TRow * G.colTiles() + TC);
      return;
    }
    // 2D axis-0 sweep along rows: reads rows [RowBegin-3, RowEnd+2] of
    // its own tile columns.
    size_t Lo = R.RowBegin < 3 ? 0 : R.RowBegin - 3;
    size_t Hi = std::min(R.RowEnd + 2, G.rows() - 1);
    GhostRead = R.RowBegin < 3 || R.RowEnd + 2 > G.rows() - 1;
    size_t TCol = Ti % G.colTiles();
    for (size_t TR = tileIndexOf(Lo, G.tileRows());
         TR <= tileIndexOf(Hi, G.tileRows()); ++TR)
      Out.push_back(TR * G.colTiles() + TCol);
  }

  void buildStepDag() {
    constexpr unsigned LineAxis = Dim - 1;
    DagGrid = stepDagTiles(this->lineCount(LineAxis), this->N[LineAxis]);
    const TileGrid &G = *DagGrid;
    size_t K = G.count();
    DtPartials.assign(K, 0.0);
    Dag.clear();

    const auto &Stages = sspStages(this->Scheme.Integrator);
    std::vector<size_t> Snap(K), PrevUpd(K), Upd(K), LastFlux(K);
    std::vector<size_t> Reads;

    for (size_t Ti = 0; Ti < K; ++Ti)
      Snap[Ti] = Dag.add(dagPayload(KSnap, 0, 0, Ti));

    for (size_t S = 0; S < Stages.size(); ++S) {
      size_t Bnd = Dag.add(dagPayload(KBnd, 0, S, 0));
      if (S > 0)
        for (size_t Ti = 0; Ti < K; ++Ti)
          if (rectTouchesEdgeBand(G.rect(Ti), G))
            Dag.addDep(PrevUpd[Ti], Bnd);

      for (size_t Ti = 0; Ti < K; ++Ti) {
        Upd[Ti] = Dag.add(dagPayload(KUpd, 0, S, Ti));
        if (S == 0)
          // Stage 0 overwrites U that Snap still reads (and reads Un
          // that Snap writes); later stages inherit the order through
          // the flux chain.
          Dag.addDep(Snap[Ti], Upd[Ti]);
      }

      for (unsigned Axis = 0; Axis < Dim; ++Axis)
        for (size_t Ti = 0; Ti < K; ++Ti) {
          size_t F = Dag.add(dagPayload(KFlux, Axis, S, Ti));
          if (Axis > 0)
            // Per-cell RHS sequence: zero, -axis0, -axis1 — same order
            // as the loop mode, hence bit-identical accumulation.
            Dag.addDep(LastFlux[Ti], F);
          LastFlux[Ti] = F;
          bool GhostRead = false;
          Reads.clear();
          fluxReadTiles(G, Axis, Ti, Reads, GhostRead);
          for (size_t R : Reads) {
            if (S > 0)
              Dag.addDep(PrevUpd[R], F); // U produced by previous stage
            Dag.addDep(F, Upd[R]);       // before R's update overwrites U
          }
          if (GhostRead)
            Dag.addDep(Bnd, F); // ghosts filled by this stage's boundary
        }
      PrevUpd = Upd;
    }

    // Next step's GetDT: per-tile partials released tile-by-tile as the
    // final-stage updates land, merged in row-major tile order.
    size_t Merge = Dag.add(dagPayload(KDtMerge, 0, 0, 0));
    for (size_t Ti = 0; Ti < K; ++Ti) {
      size_t P = Dag.add(dagPayload(KDtPart, 0, 0, Ti));
      Dag.addDep(PrevUpd[Ti], P);
      Dag.addDep(P, Merge);
    }
  }

  void runDagNode(uint64_t Payload, double Dt) {
    const TileGrid &G = *DagGrid;
    auto Kind = static_cast<DagNodeKind>(Payload & 0x7);
    auto Axis = static_cast<unsigned>((Payload >> 3) & 0x7);
    auto Stage = static_cast<size_t>((Payload >> 6) & 0x3FF);
    auto Ti = static_cast<size_t>(Payload >> 16);
    constexpr unsigned LineAxis = Dim - 1;

    switch (Kind) {
    case KSnap: {
      TileRect R = G.rect(Ti);
      for (size_t Line = R.RowBegin; Line != R.RowEnd; ++Line) {
        size_t Base = this->lineStorageBase(LineAxis, Line) + R.ColBegin;
        kernels::copyState<Dim>(this->U.crun(Base), Un.run(Base),
                                R.ColEnd - R.ColBegin, this->SimdEnabled);
      }
      return;
    }
    case KBnd:
      // Runs serially inside this one task (nested parallelFor calls
      // from a task body execute inline).  Same start-of-step Time for
      // every stage, matching the loops mode bit for bit.
      this->fillGhosts(this->Time);
      return;
    case KFlux: {
      TileRect R = G.rect(Ti);
      if (Axis == 0) {
        // First axis of the stage zeroes this tile's RHS before
        // accumulating into it.
        for (size_t Line = R.RowBegin; Line != R.RowEnd; ++Line) {
          size_t Base = Line * this->N[LineAxis] + R.ColBegin;
          kernels::zeroState<Dim>(Res.run(Base), R.ColEnd - R.ColBegin,
                                  this->SimdEnabled);
        }
      }
      if (Axis == LineAxis)
        sweepRange(Axis, R.RowBegin, R.RowEnd, R.ColBegin, R.ColEnd);
      else
        // The 2D axis-0 sweep space is (lines = cols, cells = rows);
        // the update-space tile maps onto it transposed.
        sweepRange(Axis, R.ColBegin, R.ColEnd, R.RowBegin, R.RowEnd);
      return;
    }
    case KUpd: {
      TileRect R = G.rect(Ti);
      const SspStage &St = sspStages(this->Scheme.Integrator)[Stage];
      updateRange(St.PrevWeight, St.StageWeight, Dt, R.RowBegin, R.RowEnd,
                  R.ColBegin, R.ColEnd);
      return;
    }
    case KDtPart: {
      TileRect R = G.rect(Ti);
      DtPartials[Ti] = maxEigenRange(R.RowBegin, R.RowEnd, R.ColBegin,
                                     R.ColEnd);
      return;
    }
    case KDtMerge: {
      double M = 0.0;
      for (double V : DtPartials)
        M = std::max(M, V);
      DagEvMax = M;
      return;
    }
    }
  }

  void stepWithDtDag(double Dt) {
    static const unsigned SpanStep = telemetry::spanId("solver.step_dag");
    telemetry::ScopedSpan Span(SpanStep);
    acquireStepBuffers();
    if (!DagGrid)
      buildStepDag();
    DagExec->runDag(Dag,
                    [&](uint64_t Payload) { runDagNode(Payload, Dt); });
    // The DAG already reduced next step's max eigenvalue; serve it from
    // the cache when the clock arrives where this step put it.
    CachedEvMax = DagEvMax;
    DtCacheValid = true;
    DtCacheSteps = this->Steps + 1;
    DtCacheTime = this->Time + Dt;
  }

  /// Snapshot (QN) and RHS scratch, leased from the solver pool on first
  /// step and held for the solver's lifetime.
  Field<Dim> Un;
  Field<Dim> Res;

  /// Non-null when DAG stepping is enabled (the backend, downcast once).
  TaskBackend *DagExec = nullptr;
  /// The reusable step graph and its tile decomposition.
  TaskDag Dag;
  std::optional<TileGrid> DagGrid;
  /// Per-tile GetDT partials (indexed by tile, merged in tile order).
  std::vector<double> DtPartials;
  /// Where the DtMerge task parks the merged maximum.
  double DagEvMax = 0.0;
  /// One-step dt cache: valid when the clock matches (Steps, Time)
  /// recorded at the end of the producing step.
  double CachedEvMax = 0.0;
  bool DtCacheValid = false;
  unsigned DtCacheSteps = 0;
  double DtCacheTime = 0.0;
};

} // namespace sacfd

#endif // SACFD_SOLVER_FUSEDSOLVER_H
