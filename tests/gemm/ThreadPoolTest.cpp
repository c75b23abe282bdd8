//===- ThreadPoolTest.cpp - Pool admission, re-entrancy and degradation ---===//
//
// The pool's admission contract: concurrent parallel() callers each get a
// full team on workers no other team holds, waiting FIFO while too few are
// idle; and a body that calls parallel() on the same pool again (which
// would wait for the very workers its own job holds) degrades instead of
// deadlocking:
//
//   - inParallel() is true exactly while the calling thread is inside a
//     job body on that pool (workers and the caller-as-member alike),
//   - a nested parallel() on the same pool runs every Tid inline on the
//     calling thread, sequentially, instead of deadlocking,
//   - an Engine::sgemm issued from inside a pool job still returns — the
//     GEMM driver collapses its team to size 1 — and its result is
//     bitwise identical to the same call made outside the pool (the
//     thread-count invariance guarantee, applied at team size 1).
//
// Rides in gemm_test, which the tsan_gemm_threads8 gate re-runs under
// ThreadSanitizer — the degradation must also be race-free.
//
//===----------------------------------------------------------------------===//

#include "gemm/ThreadPool.h"

#include "benchutil/Bench.h"
#include "gemm/Engine.h"
#include "gemm/Kernels.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

using namespace gemm;

namespace {

struct ProbeCtx {
  std::atomic<int> InsideTrue{0};
  std::atomic<int> Ran{0};
};

void probeBody(void *CtxP, int64_t) {
  auto *Ctx = static_cast<ProbeCtx *>(CtxP);
  if (ThreadPool::global().inParallel())
    Ctx->InsideTrue.fetch_add(1, std::memory_order_relaxed);
  Ctx->Ran.fetch_add(1, std::memory_order_relaxed);
}

struct NestedCtx {
  std::atomic<int> InnerRan{0};
  std::vector<std::thread::id> InnerThreads; // written only by Tid 0
};

void innerBody(void *CtxP, int64_t) {
  auto *Ctx = static_cast<NestedCtx *>(CtxP);
  Ctx->InnerRan.fetch_add(1, std::memory_order_relaxed);
  Ctx->InnerThreads.push_back(std::this_thread::get_id());
}

void outerBody(void *CtxP, int64_t Tid) {
  if (Tid != 0)
    return; // one member exercises the nested call; the rest just join
  // Without degradation this is the classic self-deadlock.
  ThreadPool::global().parallel(4, &innerBody, CtxP);
}

} // namespace

TEST(ThreadPool, InParallelTracksJobScope) {
  ThreadPool &P = ThreadPool::global();
  EXPECT_FALSE(P.inParallel());
  ProbeCtx Ctx;
  P.parallel(3, &probeBody, &Ctx);
  EXPECT_EQ(Ctx.Ran.load(), 3);
  EXPECT_EQ(Ctx.InsideTrue.load(), 3);
  EXPECT_FALSE(P.inParallel()); // cleared once the job completes
}

TEST(ThreadPool, NestedParallelDegradesInline) {
  NestedCtx Ctx;
  ThreadPool::global().parallel(2, &outerBody, &Ctx);
  // All four inner Tids ran, every one inline on the member that issued
  // the nested call — no handoff to other workers, no deadlock.
  EXPECT_EQ(Ctx.InnerRan.load(), 4);
  ASSERT_EQ(Ctx.InnerThreads.size(), 4u);
  for (const std::thread::id &Id : Ctx.InnerThreads)
    EXPECT_EQ(Id, Ctx.InnerThreads.front());
}

namespace {

struct GemmFromPoolCtx {
  Engine *E;
  const float *A, *B;
  int64_t M, N, K;
  std::vector<float> *Cs; // one buffer per Tid
  std::atomic<int> Failures{0};
};

void gemmFromPool(void *CtxP, int64_t Tid) {
  auto *Ctx = static_cast<GemmFromPoolCtx *>(CtxP);
  float *C = (Ctx->Cs + Tid)->data();
  exo::Error Err =
      Ctx->E->sgemm(Ctx->M, Ctx->N, Ctx->K, 1.0f, Ctx->A, Ctx->M, Ctx->B,
                    Ctx->K, 0.0f, C, Ctx->M);
  if (Err)
    Ctx->Failures.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

TEST(ThreadPool, EngineCallInsidePoolJobDegradesAndMatchesBitwise) {
  if (!baselineKernelsUsable())
    GTEST_SKIP() << "host lacks AVX2+FMA";

  const int64_t M = 49, N = 50, K = 51;
  std::vector<float> A(M * K), B(K * N);
  benchutil::fillRandom(A.data(), A.size(), 31);
  benchutil::fillRandom(B.data(), B.size(), 32);

  // A team size the driver would normally fork for — from inside a pool
  // job it must collapse to 1 instead.
  EngineConfig Cfg;
  Cfg.Series = EngineSeries::Blis;
  Cfg.Threads = 4;
  Engine E(Cfg);

  std::vector<float> CRef(M * N, 0.0f);
  ASSERT_FALSE(E.sgemm(M, N, K, 1.0f, A.data(), M, B.data(), K, 0.0f,
                       CRef.data(), M));

  const int64_t Outer = 3;
  std::vector<std::vector<float>> Cs(Outer,
                                     std::vector<float>(M * N, 0.0f));
  GemmFromPoolCtx Ctx;
  Ctx.E = &E;
  Ctx.A = A.data();
  Ctx.B = B.data();
  Ctx.M = M;
  Ctx.N = N;
  Ctx.K = K;
  Ctx.Cs = Cs.data();
  ThreadPool::global().parallel(Outer, &gemmFromPool, &Ctx);

  EXPECT_EQ(Ctx.Failures.load(), 0);
  for (int64_t T = 0; T != Outer; ++T)
    EXPECT_EQ(0, std::memcmp(Cs[T].data(), CRef.data(),
                             CRef.size() * sizeof(float)))
        << "pool-nested result differs from top-level result (Tid " << T
        << ")";
}

namespace {

struct TeamProbeCtx {
  std::atomic<uint64_t> TidMask{0};
  std::atomic<int> Ran{0};
};

void teamProbeBody(void *CtxP, int64_t Tid) {
  auto *Ctx = static_cast<TeamProbeCtx *>(CtxP);
  Ctx->TidMask.fetch_or(uint64_t(1) << Tid, std::memory_order_relaxed);
  Ctx->Ran.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

// Four callers race 4-wide teams on the shared pool. Each team's members
// meet at a TeamBarrier, which only completes if all four run at once on
// distinct threads, so a worker lent to two teams, or a team admitted
// short of workers, hangs or shows up in the thread-id check.
TEST(ThreadPool, ConcurrentTeamsOnDisjointWorkers) {
  ThreadPool &P = ThreadPool::global();
  const int NCallers = 4, Rounds = 32;
  const int64_t Width = 4;
  std::atomic<int> TotalRan{0};
  std::atomic<bool> Bad{false};
  std::vector<std::thread> Callers;
  for (int C = 0; C != NCallers; ++C)
    Callers.emplace_back([&] {
      for (int R = 0; R != Rounds; ++R) {
        TeamBarrier Bar(Width);
        std::thread::id Ids[Width];
        TeamProbeCtx Ctx;
        P.parallel(Width, [&](int64_t Tid) {
          Ids[Tid] = std::this_thread::get_id();
          Bar.arriveAndWait();
          teamProbeBody(&Ctx, Tid);
        });
        if (Ctx.Ran.load() != Width || Ctx.TidMask.load() != 0xfu)
          Bad.store(true, std::memory_order_relaxed);
        for (int64_t I = 0; I != Width; ++I)
          for (int64_t J = I + 1; J != Width; ++J)
            if (Ids[I] == Ids[J])
              Bad.store(true, std::memory_order_relaxed);
        TotalRan.fetch_add(Ctx.Ran.load(), std::memory_order_relaxed);
      }
    });
  for (std::thread &Th : Callers)
    Th.join();
  EXPECT_FALSE(Bad.load());
  EXPECT_EQ(TotalRan.load(), NCallers * Rounds * Width);
}
