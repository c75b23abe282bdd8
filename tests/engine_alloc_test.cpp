//===- engine_alloc_test.cpp - Zero-allocation steady state ---------------===//
//
// Proves the Engine front door's "zero heap allocations per call once
// warm" guarantee (Engine.h): global operator new/delete are replaced with
// counting versions, the Engine is warmed on the workload's shapes, and
// then a batch of hot calls — cache hits, both transpose forms, the f16,
// bf16 and i8 -> i32 doors, a count-1 gemmStridedBatched per dtype, plus a
// degenerate quick return — must leave the allocation counter untouched.
//
// Deliberately not a gtest: the framework allocates on every assertion, so
// the counted window must stay free of any harness code. Exit 0 on pass,
// 1 with a report on stderr otherwise.
//
// The Blis series keeps the JIT out of the picture; Threads=2 routes the
// hot calls through the ThreadPool's raw-callback dispatch, covering the
// claim that team fan-out does not box closures per call.
//
//===----------------------------------------------------------------------===//

#include "gemm/Engine.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

namespace {
std::atomic<long long> LiveNews{0};
std::atomic<bool> Counting{false};
} // namespace

void *operator new(size_t Size) {
  if (Counting.load(std::memory_order_relaxed))
    LiveNews.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

void *operator new[](size_t Size) { return ::operator new(Size); }

void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, size_t) noexcept { std::free(P); }
void operator delete[](void *P, size_t) noexcept { std::free(P); }

namespace {

struct Shape {
  int64_t M, N, K;
};

int run() {
  using namespace gemm;

  // Edge-heavy and tile-aligned shapes, matching the differential sweep's
  // flavor but small enough to keep this binary fast.
  const Shape Shapes[] = {{64, 48, 32}, {33, 29, 31}, {17, 50, 23}};

  EngineConfig Cfg;
  Cfg.Series = EngineSeries::Blis;
  Cfg.Threads = 2;
  Engine E(Cfg);

  std::vector<float> A(64 * 50), B(50 * 50), C(64 * 50);
  for (size_t I = 0; I != A.size(); ++I)
    A[I] = static_cast<float>(I % 13) * 0.25f;
  for (size_t I = 0; I != B.size(); ++I)
    B[I] = static_cast<float>(I % 7) * 0.5f;
  // Typed operands: the same values in f16 and bf16 storage (exact in
  // both), and small integers for i8 with an i32 C.
  std::vector<uint16_t> AH(A.size()), BH(B.size()), CH(C.size());
  std::vector<uint16_t> AB(A.size()), BB(B.size()), CB(C.size());
  std::vector<int8_t> AI(A.size()), BI(B.size());
  std::vector<int32_t> CI(C.size());
  for (size_t I = 0; I != A.size(); ++I) {
    AH[I] = f32ToF16(A[I]);
    AB[I] = f32ToBf16(A[I]);
    AI[I] = static_cast<int8_t>(I % 13);
  }
  for (size_t I = 0; I != B.size(); ++I) {
    BH[I] = f32ToF16(B[I]);
    BB[I] = f32ToBf16(B[I]);
    BI[I] = static_cast<int8_t>(I % 7);
  }
  // One hot call per typed door.
  auto Typed = [&](const Shape &S) -> exo::Error {
    if (exo::Error Err =
            E.gemm(DType::F16, Trans::None, Trans::None, S.M, S.N, S.K, 1.0,
                   AH.data(), S.M, BH.data(), S.K, 0.5, CH.data(), S.M))
      return Err;
    if (exo::Error Err =
            E.gemm(DType::BF16, Trans::None, Trans::None, S.M, S.N, S.K, 1.0,
                   AB.data(), S.M, BB.data(), S.K, 0.5, CB.data(), S.M))
      return Err;
    return E.gemm(DType::I8I32, Trans::None, Trans::None, S.M, S.N, S.K, 2.0,
                  AI.data(), S.M, BI.data(), S.K, 0.0, CI.data(), S.M);
  };
  // One count-1 strided batch per dtype: the call every lone gemmd request
  // makes.
  auto StridedOne = [&](const Shape &S) -> exo::Error {
    const struct {
      DType Ty;
      const void *A, *B;
      void *C;
    } Doors[] = {{DType::F32, A.data(), B.data(), C.data()},
                 {DType::F16, AH.data(), BH.data(), CH.data()},
                 {DType::BF16, AB.data(), BB.data(), CB.data()},
                 {DType::I8I32, AI.data(), BI.data(), CI.data()}};
    for (const auto &D : Doors)
      if (exo::Error Err = E.gemmStridedBatched(
              D.Ty, Trans::None, Trans::None, S.M, S.N, S.K, 1.0, D.A, S.M,
              S.M * S.K, D.B, S.K, 0, 0.0, D.C, S.M, S.M * S.N, 1))
        return Err;
    return exo::Error::success();
  };

  // Warm-up: builds every plan, populates the workspace pool, spins up the
  // thread pool, and lets lazy library/runtime init happen outside the
  // counted window. Two rounds so pooled workspaces are recycled at least
  // once before counting starts.
  for (int Round = 0; Round != 2; ++Round)
    for (const Shape &S : Shapes) {
      if (exo::Error Err = E.sgemm(S.M, S.N, S.K, 1.0f, A.data(), S.M,
                                   B.data(), S.K, 0.5f, C.data(), S.M)) {
        std::fprintf(stderr, "engine_alloc_test: warm-up failed: %s\n",
                     Err.message().c_str());
        return 1;
      }
      if (exo::Error Err =
              E.sgemm(Trans::Transpose, Trans::None, S.M, S.N, S.K, 1.0f,
                      A.data(), S.K, B.data(), S.K, 0.5f, C.data(), S.M)) {
        std::fprintf(stderr, "engine_alloc_test: warm-up (T) failed: %s\n",
                     Err.message().c_str());
        return 1;
      }
      if (exo::Error Err = Typed(S)) {
        std::fprintf(stderr, "engine_alloc_test: typed warm-up failed: %s\n",
                     Err.message().c_str());
        return 1;
      }
      if (exo::Error Err = StridedOne(S)) {
        std::fprintf(stderr,
                     "engine_alloc_test: strided warm-up failed: %s\n",
                     Err.message().c_str());
        return 1;
      }
    }

  EngineStats Warm = E.stats();

  LiveNews.store(0, std::memory_order_relaxed);
  Counting.store(true, std::memory_order_relaxed);
  int Failures = 0;
  for (int Rep = 0; Rep != 10; ++Rep) {
    for (const Shape &S : Shapes) {
      if (E.sgemm(S.M, S.N, S.K, 1.0f, A.data(), S.M, B.data(), S.K, 0.5f,
                  C.data(), S.M))
        ++Failures;
      if (E.sgemm(Trans::Transpose, Trans::None, S.M, S.N, S.K, 1.0f,
                  A.data(), S.K, B.data(), S.K, 0.5f, C.data(), S.M))
        ++Failures;
      if (Typed(S))
        ++Failures;
      if (StridedOne(S))
        ++Failures;
    }
    // Degenerate quick return: must also be allocation-free.
    if (E.sgemm(0, 8, 8, 1.0f, nullptr, 1, nullptr, 1, 0.0f, C.data(), 64))
      ++Failures;
  }
  Counting.store(false, std::memory_order_relaxed);
  long long Allocs = LiveNews.load(std::memory_order_relaxed);

  EngineStats Hot = E.stats();
  if (Failures != 0) {
    std::fprintf(stderr, "engine_alloc_test: %d hot calls failed\n",
                 Failures);
    return 1;
  }
  if (Hot.Misses != Warm.Misses || Hot.Builds != Warm.Builds) {
    std::fprintf(stderr,
                 "engine_alloc_test: hot window was not actually hot "
                 "(builds %llu -> %llu, misses %llu -> %llu)\n",
                 static_cast<unsigned long long>(Warm.Builds),
                 static_cast<unsigned long long>(Hot.Builds),
                 static_cast<unsigned long long>(Warm.Misses),
                 static_cast<unsigned long long>(Hot.Misses));
    return 1;
  }
  if (Allocs != 0) {
    std::fprintf(stderr,
                 "engine_alloc_test: %lld heap allocations in the hot "
                 "window (expected 0)\n",
                 Allocs);
    return 1;
  }
  std::printf("engine_alloc_test: PASS (0 allocations across %d hot calls, "
              "%llu cached plans)\n",
              10 * (9 * 3 + 1), static_cast<unsigned long long>(E.planCount()));
  return 0;
}

} // namespace

int main() { return run(); }
