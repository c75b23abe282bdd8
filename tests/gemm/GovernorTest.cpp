//===- GovernorTest.cpp - Governor budget, clamps and bitwise grants ------===//
//
// The governor's contract (Governor.h, docs/CONCURRENCY.md) in three
// testable pieces:
//
//   - the process-wide budget invariant — across racing acquirers the sum
//     of (granted width - 1) never exceeds ceiling - 1, and every unit is
//     returned when the grants die,
//   - the shape clamp — work under EXO_GEMM_GOVERNOR_MIN_WORK per extra
//     thread is granted width 1 (the sequential driver) no matter how idle
//     the pool is,
//   - the output contract — governed Engines racing from eight plain
//     threads produce results bitwise identical to the fixed 1-thread
//     plan, because a grant changes scheduling, never arithmetic.
//
// Rides in gemm_test, so the tsan_gemm_threads8 gate re-runs the racing
// cases under ThreadSanitizer.
//
//===----------------------------------------------------------------------===//

#include "gemm/Governor.h"

#include "benchutil/Bench.h"
#include "gemm/Engine.h"
#include "gemm/Kernels.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

using namespace gemm;

namespace {

/// Records the running and high-water sum of extra threads held by live
/// grants, so the budget invariant is checked at its tightest moment.
struct ExtraLedger {
  std::atomic<int64_t> Held{0};
  std::atomic<int64_t> Peak{0};

  void add(int64_t Extra) {
    int64_t Now = Held.fetch_add(Extra, std::memory_order_relaxed) + Extra;
    int64_t Seen = Peak.load(std::memory_order_relaxed);
    while (Now > Seen &&
           !Peak.compare_exchange_weak(Seen, Now, std::memory_order_relaxed))
      ;
  }
  void sub(int64_t Extra) {
    Held.fetch_sub(Extra, std::memory_order_relaxed);
  }
};

} // namespace

TEST(Governor, BudgetInvariantUnderRacingAcquirers) {
  const int64_t Ceiling = 4;
  Governor Gov(Ceiling, /*MinWorkFlops=*/0);

  ExtraLedger Ledger;
  std::atomic<bool> Bad{false};
  const int NThreads = 8, Iters = 200;
  std::vector<std::thread> Threads;
  for (int T = 0; T != NThreads; ++T)
    Threads.emplace_back([&] {
      for (int I = 0; I != Iters; ++I) {
        Governor::Grant G;
        Gov.acquire(512, 512, 512, /*PlanWidth=*/Ceiling, G);
        if (G.width() < 1 || G.width() > Ceiling)
          Bad.store(true, std::memory_order_relaxed);
        Ledger.add(G.width() - 1);
        if (Gov.outstandingExtra() > Ceiling - 1)
          Bad.store(true, std::memory_order_relaxed);
        Ledger.sub(G.width() - 1);
      }
    });
  for (std::thread &Th : Threads)
    Th.join();

  EXPECT_FALSE(Bad.load());
  EXPECT_LE(Ledger.Peak.load(), Ceiling - 1);
  EXPECT_EQ(Gov.outstandingExtra(), 0) << "grants leaked budget";
  GovernorStats S = Gov.stats();
  EXPECT_EQ(S.Grants, static_cast<uint64_t>(NThreads) * Iters);
  EXPECT_GE(S.WidthSum, S.Grants); // every grant is at least width 1
}

TEST(Governor, SmallShapeClampsToSequential) {
  Governor Gov(/*Ceiling=*/8, /*MinWorkFlops=*/int64_t(1) << 21);

  // 2*32^3 = 64K flops — far under the 2M-flop floor for even one extra
  // thread. Width 1 means no reservation at all: the sequential driver.
  {
    Governor::Grant G;
    Gov.acquire(32, 32, 32, /*PlanWidth=*/8, G);
    EXPECT_EQ(G.width(), 1);
    EXPECT_TRUE(G.shapeClamped());
    EXPECT_EQ(G.reservation().Count, 0);
    EXPECT_EQ(Gov.outstandingExtra(), 0);
  }

  // 2*512^3 = 268M flops clears the floor for the full plan width on an
  // idle pool.
  {
    Governor::Grant G;
    Gov.acquire(512, 512, 512, /*PlanWidth=*/4, G);
    EXPECT_EQ(G.width(), 4);
    EXPECT_FALSE(G.shapeClamped());
    EXPECT_EQ(G.reservation().Count, 3);
    EXPECT_EQ(Gov.outstandingExtra(), 3);
  }
  EXPECT_EQ(Gov.outstandingExtra(), 0);

  // The work floor scales per extra thread: ~2.5x the floor affords a
  // width-2 team but not more, whatever the plan width.
  {
    Governor::Grant G;
    Gov.acquireFlops(2.5 * (int64_t(1) << 21), /*PlanWidth=*/8, G);
    EXPECT_LE(G.width(), 2);
    EXPECT_TRUE(G.shapeClamped());
  }
}

namespace {

struct RacingCallerCtx {
  Engine *E;
  DType Ty;
  const void *A, *B;
  int64_t M, N, K;
  std::vector<unsigned char> *Cs;
  std::atomic<int> Failures{0};
};

/// \p Elems elements of \p Ty input storage: small integers for i8,
/// inexact fractions (so any reordered sum would show) for the floats.
std::vector<unsigned char> operand(DType Ty, int64_t Elems, unsigned Seed) {
  std::vector<unsigned char> V(Elems * dtypeInBytes(Ty));
  std::mt19937 Rng(Seed);
  for (int64_t I = 0; I < Elems; ++I) {
    const int Q = static_cast<int>(Rng() % 17) - 8;
    const float X = static_cast<float>(Q) / 7.0f;
    if (Ty == DType::I8I32) {
      V[I] = static_cast<unsigned char>(static_cast<int8_t>(Q));
    } else if (Ty == DType::F32) {
      std::memcpy(&V[I * 4], &X, 4);
    } else {
      const uint16_t H = Ty == DType::F16 ? f32ToF16(X) : f32ToBf16(X);
      std::memcpy(&V[I * 2], &H, 2);
    }
  }
  return V;
}

} // namespace

// Racing governed callers in f32 and — now that every dtype runs the one
// governed executor — bf16 and i8 -> i32: whatever width each call is
// granted, the result equals the fixed 1-thread plan bitwise, and every
// typed call is counted as a grant.
TEST(Governor, RacingGovernedCallersMatchFixedPlanBitwise) {
  if (!baselineKernelsUsable())
    GTEST_SKIP() << "host lacks AVX2+FMA";

  const int64_t M = 96, N = 80, K = 112;
  for (DType Ty : {DType::F32, DType::BF16, DType::I8I32}) {
    const std::vector<unsigned char> A = operand(Ty, M * K, 41);
    const std::vector<unsigned char> B = operand(Ty, K * N, 42);
    const size_t CBytes = M * N * dtypeOutBytes(Ty);

    EngineConfig Fixed;
    Fixed.Series = EngineSeries::Blis;
    Fixed.Threads = 1;
    Fixed.Governor = 0;
    Engine ERef(Fixed);
    std::vector<unsigned char> CRef(CBytes, 0);
    ASSERT_FALSE(ERef.gemm(Ty, Trans::None, Trans::None, M, N, K, 1.0,
                           A.data(), M, B.data(), K, 0.0, CRef.data(), M));

    // Governed engine planning at a 4-wide team: every racing caller gets
    // whatever width the governor grants at that instant (1..4 depending
    // on the interleaving) and all must match the sequential result
    // bitwise.
    EngineConfig Gov;
    Gov.Series = EngineSeries::Blis;
    Gov.Threads = 4;
    Gov.Governor = 1;
    Engine EGov(Gov);

    const int Callers = 8, Rounds = 16;
    std::vector<std::vector<unsigned char>> Cs(
        Callers, std::vector<unsigned char>(CBytes, 0));
    RacingCallerCtx Ctx;
    Ctx.E = &EGov;
    Ctx.Ty = Ty;
    Ctx.A = A.data();
    Ctx.B = B.data();
    Ctx.M = M;
    Ctx.N = N;
    Ctx.K = K;
    Ctx.Cs = Cs.data();

    std::vector<std::thread> Threads;
    for (int T = 0; T != Callers; ++T)
      Threads.emplace_back([&Ctx, T] {
        void *C = (Ctx.Cs + T)->data();
        for (int R = 0; R != Rounds; ++R)
          if (Ctx.E->gemm(Ctx.Ty, Trans::None, Trans::None, Ctx.M, Ctx.N,
                          Ctx.K, 1.0, Ctx.A, Ctx.M, Ctx.B, Ctx.K, 0.0, C,
                          Ctx.M))
            Ctx.Failures.fetch_add(1, std::memory_order_relaxed);
      });
    for (std::thread &Th : Threads)
      Th.join();

    EXPECT_EQ(Ctx.Failures.load(), 0) << dtypeName(Ty);
    for (int T = 0; T != Callers; ++T)
      EXPECT_EQ(Cs[T], CRef) << dtypeName(Ty) << ": governed caller " << T
                             << " differs from the 1-thread result";

    EngineStats S = EGov.stats();
    EXPECT_GE(S.GovGrants, static_cast<uint64_t>(Callers) * Rounds)
        << dtypeName(Ty);
    EXPECT_GE(S.GovWidthSum, S.GovGrants) << dtypeName(Ty);
  }
}
