//===- Governor.cpp -------------------------------------------------------===//

#include "gemm/Governor.h"

#include "exo/support/Env.h"
#include "gemm/Planner.h"
#include "gemm/PriorDb.h"
#include "obs/Obs.h"

#include <cstdlib>
#include <thread>

using namespace gemm;

namespace {
int64_t hardwareWidth() {
  unsigned N = std::thread::hardware_concurrency();
  return static_cast<int64_t>(N > 0 ? N : 1);
}
} // namespace

Governor::Governor(int64_t CeilingIn, int64_t MinWorkFlopsIn)
    : Ceiling(CeilingIn > 0 ? CeilingIn : 1),
      MinWorkFlops(MinWorkFlopsIn) {}

Governor::Governor() {
  // Ceiling: the aggregate extra-thread budget across every concurrent
  // caller. Default: one team member per hardware thread — N callers then
  // share the machine instead of each claiming it whole.
  Ceiling = exo::envInt("EXO_GEMM_GOVERNOR_MAX",
                        std::getenv("EXO_GEMM_GOVERNOR_MAX"),
                        /*Default=*/hardwareWidth(), /*Min=*/1,
                        /*Max=*/1 << 20);
  // Work floor: flops that justify one extra team member. The default —
  // 2 MFLOP, a 100x100x100 problem — is the scale where packing and one
  // barrier round stop dominating a core's runtime.
  MinWorkFlops = exo::envInt("EXO_GEMM_GOVERNOR_MIN_WORK",
                             std::getenv("EXO_GEMM_GOVERNOR_MIN_WORK"),
                             /*Default=*/int64_t(1) << 21, /*Min=*/0,
                             /*Max=*/int64_t(1) << 60);
  // The measured strong-scaling curve, when bench_threads has stored one
  // for this machine. Read once: the curve is static per machine.
  Curve = PriorDb::global().lookupCurve();
}

Governor &Governor::global() {
  static Governor G;
  return G;
}

bool Governor::enabledByEnv() {
  const char *V = std::getenv("EXO_GEMM_GOVERNOR");
  return V && *V && std::atoi(V) != 0;
}

void Governor::releaseBudget(int64_t Extra) {
  if (Extra > 0)
    Outstanding.fetch_sub(Extra, std::memory_order_relaxed);
}

Governor::Grant::~Grant() {
  if (!Gov)
    return;
  // Workers are normally consumed by detail::executeGemm; return any that
  // were not (error paths, tests), then the budget.
  ThreadPool::global().release(Res);
  Gov->releaseBudget(Width - 1);
}

void Governor::acquire(int64_t M, int64_t N, int64_t K, int64_t PlanWidth,
                       Grant &G) {
  if (M <= 0 || N <= 0 || K <= 0) {
    acquireFlops(0, PlanWidth, G);
    return;
  }
  acquireFlops(2.0 * static_cast<double>(M) * static_cast<double>(N) *
                   static_cast<double>(K),
               PlanWidth, G);
}

void Governor::acquireFlops(double Flops, int64_t PlanWidth, Grant &G) {
  EXO_OBS_SPAN("gov.acquire");
  G.Gov = this;
  G.Width = 1;
  NGrants.fetch_add(1, std::memory_order_relaxed);

  // Shape model: how many members this problem can productively use,
  // capped by the plan's own width (workspace/barrier hard cap) and the
  // process ceiling.
  const int64_t Cap = std::min(PlanWidth, Ceiling);
  int64_t Desired = governorWidthForWork(Flops, MinWorkFlops, Cap,
                                         Curve ? &*Curve : nullptr);
  if (Desired < Cap) {
    G.ShapeClamp = true;
    NShapeClamped.fetch_add(1, std::memory_order_relaxed);
    obs::mark("gov.clamp.shape");
  }
  if (Desired <= 1) {
    NWidthSum.fetch_add(1, std::memory_order_relaxed);
    return; // sequential: no budget, no reservation
  }

  // Budget: claim extra threads against the process-wide ceiling. CAS
  // loop so concurrent acquirers can each take a partial slice; never
  // waits — whatever is left (possibly nothing) is the grant.
  int64_t WantExtra = Desired - 1;
  int64_t Cur = Outstanding.load(std::memory_order_relaxed);
  int64_t GotExtra = 0;
  while (true) {
    int64_t Avail = (Ceiling - 1) - Cur;
    GotExtra = std::min(WantExtra, std::max<int64_t>(0, Avail));
    if (GotExtra == 0)
      break;
    if (Outstanding.compare_exchange_weak(Cur, Cur + GotExtra,
                                          std::memory_order_relaxed))
      break;
  }

  // Pool occupancy: the budget says how many we may take; the pool says
  // how many are actually idle (explicit parallel() users and their FIFO
  // waiters are respected — tryReserve never touches the head waiter's
  // quota and never blocks).
  int64_t Reserved = 0;
  if (GotExtra > 0) {
    Reserved = ThreadPool::global().tryReserve(GotExtra,
                                               /*SpawnCap=*/Ceiling - 1,
                                               G.Res);
    if (Reserved < GotExtra) {
      releaseBudget(GotExtra - Reserved); // return the slice we can't use
      GotExtra = Reserved;
    }
  }
  G.Width = 1 + GotExtra;
  if (G.Width < Desired) {
    G.OccClamp = true;
    NOccClamped.fetch_add(1, std::memory_order_relaxed);
    obs::mark("gov.clamp.occupancy");
  }
  if (G.Width >= Cap)
    NFullWidth.fetch_add(1, std::memory_order_relaxed);
  NWidthSum.fetch_add(static_cast<uint64_t>(G.Width),
                      std::memory_order_relaxed);
}

GovernorStats Governor::stats() const {
  GovernorStats S;
  S.Grants = NGrants.load(std::memory_order_relaxed);
  S.ShapeClamped = NShapeClamped.load(std::memory_order_relaxed);
  S.OccupancyClamped = NOccClamped.load(std::memory_order_relaxed);
  S.FullWidth = NFullWidth.load(std::memory_order_relaxed);
  S.WidthSum = NWidthSum.load(std::memory_order_relaxed);
  return S;
}
