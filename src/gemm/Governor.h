//===- Governor.h - Shape- and load-aware thread allocation ---------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The process-wide arbiter deciding how many threads one GEMM call gets
/// when several Engine callers (or the gemmd daemon's executors) share the
/// machine. A fixed EXO_GEMM_THREADS oversubscribes under concurrency —
/// N callers each claim every core — and wastes barrier time on small
/// shapes. The governor instead grants a per-call team width at
/// plan-execution time from two inputs (docs/CONCURRENCY.md has the full
/// contract and decision table):
///
///   1. Shape: governorWidthForShape (Planner.h) — a work floor
///      (EXO_GEMM_GOVERNOR_MIN_WORK flops per extra thread) composed with
///      the machine's measured strong-scaling curve when one is stored
///      (PriorDb::lookupCurve, seeded by `bench_threads --store-curve`).
///   2. Load: live pool occupancy via ThreadPool::tryReserve, plus the
///      governor's own extra-thread budget, so the sum of granted widths
///      across concurrent callers never exceeds the ceiling:
///
///          sum over live grants of (width - 1)  <=  ceiling - 1
///
///      with ceiling = EXO_GEMM_GOVERNOR_MAX (default: the hardware
///      thread count).
///
/// acquire() never blocks: under contention a call is granted a narrower
/// team (down to width 1, the sequential driver) instead of queuing. The
/// plan itself is *not* consulted per width — plan keys stay
/// team-size-invariant and results are bitwise identical at every granted
/// width by the thread-count-invariance guarantee (Gemm.h), so a grant
/// changes scheduling only, never output.
///
//===----------------------------------------------------------------------===//

#ifndef GEMM_GOVERNOR_H
#define GEMM_GOVERNOR_H

#include "gemm/ThreadPool.h"

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

namespace gemm {

struct GovernorCurvePoint;

/// Monotonic decision counters, surfaced through EngineStats and
/// `ukr_cachectl stats`.
struct GovernorStats {
  uint64_t Grants = 0;           ///< acquire() calls
  uint64_t ShapeClamped = 0;     ///< width cut by the shape model
  uint64_t OccupancyClamped = 0; ///< width cut by budget/pool occupancy
  uint64_t FullWidth = 0;        ///< granted the full plan width
  uint64_t WidthSum = 0;         ///< sum of granted widths (avg = /Grants)
};

/// See file comment.
class Governor {
public:
  /// One granted team: the caller plus Res.Count reserved workers. RAII —
  /// destruction returns unused workers and the budget. Move-free: bind it
  /// to a stack local around detail::executeGemm (which consumes Res but
  /// not the budget; the budget outlives execution by design, so the sum
  /// invariant covers running teams, not just reservations).
  class Grant {
  public:
    Grant() = default;
    ~Grant();
    Grant(const Grant &) = delete;
    Grant &operator=(const Grant &) = delete;

    int64_t width() const { return Width; }
    ThreadPool::Reservation &reservation() { return Res; }
    /// True when the shape model (not occupancy) set the width.
    bool shapeClamped() const { return ShapeClamp; }
    bool occupancyClamped() const { return OccClamp; }

  private:
    friend class Governor;
    Governor *Gov = nullptr;
    ThreadPool::Reservation Res;
    int64_t Width = 1;
    bool ShapeClamp = false;
    bool OccClamp = false;
  };

  /// The process-wide governor: ceiling from EXO_GEMM_GOVERNOR_MAX (else
  /// hardware_concurrency), work floor from EXO_GEMM_GOVERNOR_MIN_WORK,
  /// scaling curve from PriorDb::global(). Env is read once.
  static Governor &global();

  /// A governor with explicit parameters (tests; no env, no curve unless
  /// given). MinWorkFlops <= 0 disables the work floor.
  Governor(int64_t Ceiling, int64_t MinWorkFlops);

  /// Decides and reserves a team for one (m, n, k) call whose plan was
  /// built at \p PlanWidth (the grant never exceeds it — the plan's
  /// workspace and barrier sizing are the hard cap). Never blocks. The
  /// resulting width is 1 + (workers actually reserved).
  void acquire(int64_t M, int64_t N, int64_t K, int64_t PlanWidth,
               Grant &G);

  /// As acquire(), for work already expressed as total flops (the batched
  /// cross-item path: a chunk of small items shares the team, so the
  /// chunk's aggregate work drives the width model).
  void acquireFlops(double Flops, int64_t PlanWidth, Grant &G);

  int64_t ceiling() const { return Ceiling; }
  int64_t minWorkFlops() const { return MinWorkFlops; }

  /// Extra threads currently granted process-wide (<= ceiling - 1).
  int64_t outstandingExtra() const {
    return Outstanding.load(std::memory_order_relaxed);
  }

  GovernorStats stats() const;

  /// Whether EXO_GEMM_GOVERNOR enables governed dispatch for Engines left
  /// at EngineConfig::Governor = -1 (read per call so tests can flip it;
  /// unset or 0 = off, preserving the paper's fixed-team methodology).
  static bool enabledByEnv();

private:
  Governor(); // global() only: reads env + curve
  void releaseBudget(int64_t Extra);

  int64_t Ceiling = 1;
  int64_t MinWorkFlops = 0;
  std::optional<std::vector<GovernorCurvePoint>> Curve;
  std::atomic<int64_t> Outstanding{0}; ///< extra threads granted
  std::atomic<uint64_t> NGrants{0}, NShapeClamped{0}, NOccClamped{0},
      NFullWidth{0}, NWidthSum{0};
};

} // namespace gemm

#endif // GEMM_GOVERNOR_H
