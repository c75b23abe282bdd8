//===- KernelServiceTest.cpp - Kernel-cache service -----------------------===//

#include "ukr/KernelService.h"

#include "JitCacheTestEnv.h"
#include "benchutil/Bench.h"
#include "exo/jit/DiskCache.h"
#include "exo/jit/Jit.h"
#include "gemm/Engine.h"
#include "gemm/ExoProvider.h"
#include "ukr/KernelRegistry.h"
#include "ukr/UkrSchedule.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <thread>
#include <unistd.h>

using namespace exo;
using namespace ukr;

namespace {

/// A private cache root for one test (on top of the binary-wide ephemeral
/// EXO_JIT_CACHE_DIR the shared environment installs).
std::string makeTempDir() { return exotest::makeTempDir("exo-kstest"); }

UkrConfig configFor(int64_t MR, int64_t NR) {
  UkrConfig Cfg;
  Cfg.MR = MR;
  Cfg.NR = NR;
  Cfg.Isa = bestIsaForMr(MR);
  if (!Cfg.Isa)
    Cfg.Style = FmaStyle::Scalar;
  return Cfg;
}

/// Runs \p Fn on random packed panels and checks it against the triple
/// loop (same harness as EdgeFamilyTest).
void checkNumerics(MicroKernelF32 Fn, int64_t MR, int64_t NR) {
  const int64_t KC = 13, Ldc = MR + 1;
  std::vector<float> Ac(KC * MR), Bc(KC * NR);
  std::vector<float> C((NR - 1) * Ldc + MR, 1.0f), Want;
  benchutil::fillRandom(Ac.data(), Ac.size(), 31);
  benchutil::fillRandom(Bc.data(), Bc.size(), 32);
  Want = C;
  for (int64_t J = 0; J < NR; ++J)
    for (int64_t I = 0; I < MR; ++I)
      for (int64_t P = 0; P < KC; ++P)
        Want[J * Ldc + I] += Ac[P * MR + I] * Bc[P * NR + J];
  Fn(KC, Ldc, Ac.data(), Bc.data(), C.data());
  for (size_t I = 0; I != C.size(); ++I)
    ASSERT_NEAR(C[I], Want[I], 1e-4f) << MR << "x" << NR << " @" << I;
}

/// get() on a config \p S has ready: one more hit, and no miss or build.
void expectReadyHit(KernelService &S, const UkrConfig &Cfg) {
  const CacheStats Before = S.stats();
  auto K = S.get(Cfg);
  ASSERT_TRUE(static_cast<bool>(K)) << K.message();
  const CacheStats After = S.stats();
  EXPECT_EQ(After.Hits, Before.Hits + 1) << Cfg.kernelName();
  EXPECT_EQ(After.Misses, Before.Misses) << Cfg.kernelName();
  EXPECT_EQ(After.Builds, Before.Builds) << Cfg.kernelName();
}

} // namespace

TEST(StandardShapeFamilyTest, TilePlusEdgesNoDuplicates) {
  std::vector<UkrConfig> Family = standardShapeFamily(8, 12);
  ASSERT_GE(Family.size(), 5u);
  std::set<std::string> Names;
  bool HasFullTile = false;
  for (const UkrConfig &Cfg : Family) {
    EXPECT_TRUE(Names.insert(Cfg.kernelName()).second) << Cfg.kernelName();
    EXPECT_GE(Cfg.MR, 1);
    EXPECT_LE(Cfg.MR, 8);
    EXPECT_GE(Cfg.NR, 1);
    EXPECT_LE(Cfg.NR, 12);
    HasFullTile |= Cfg.MR == 8 && Cfg.NR == 12;
  }
  EXPECT_TRUE(HasFullTile);
}

TEST(KernelServiceTest, EightThreadHammerBuildsOncePerConfig) {
  if (!jitAvailable())
    GTEST_SKIP();
  KernelService::Options Opts;
  Opts.Workers = 4;
  Opts.CacheDir = makeTempDir();
  KernelService S(Opts);

  const std::vector<UkrConfig> Family = standardShapeFamily(8, 12);
  constexpr int NumThreads = 8;
  // [thread][config] -> resolved function pointer, preallocated so worker
  // threads never touch shared containers (TSan-clean by construction).
  std::vector<std::vector<MicroKernelF32>> FromService(
      NumThreads, std::vector<MicroKernelF32>(Family.size(), nullptr));
  std::vector<std::vector<MicroKernelF32>> FromProvider = FromService;
  std::vector<int> Errors(NumThreads, 0);

  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      // Each thread's own sync provider over the 8x12 family: its shape()
      // calls converge on the global service's blocking get().
      gemm::ExoProvider Prov(8, 12);
      for (size_t I = 0; I < Family.size(); ++I) {
        const UkrConfig &Cfg = Family[I];
        // Racing enqueues: every thread queues the build without waiting,
        // then blocks on it, and everyone must converge on one build.
        S.prefetch(Cfg);
        auto K = S.get(Cfg);
        if (!K || !(*K)->Fn) {
          ++Errors[T];
          continue;
        }
        FromService[T][I] = (*K)->Fn;
        // And the Engine's sync provider path agrees under the same
        // contention.
        std::optional<gemm::MicroKernel> P = Prov.shape(Cfg.MR, Cfg.NR);
        if (!P || !P->Fn) {
          ++Errors[T];
          continue;
        }
        FromProvider[T][I] = P->Fn;
      }
    });
  for (std::thread &T : Threads)
    T.join();

  for (int T = 0; T < NumThreads; ++T) {
    EXPECT_EQ(Errors[T], 0) << "thread " << T;
    for (size_t I = 0; I < Family.size(); ++I) {
      // One build per config: every thread got the same function pointer.
      EXPECT_EQ(FromService[T][I], FromService[0][I])
          << "thread " << T << " config " << Family[I].kernelName();
      EXPECT_EQ(FromProvider[T][I], FromProvider[0][I])
          << "thread " << T << " config " << Family[I].kernelName();
      EXPECT_NE(FromService[T][I], nullptr);
    }
  }

  CacheStats St = S.stats();
  EXPECT_EQ(St.Builds, Family.size());
  EXPECT_EQ(St.Failures, 0u);
  EXPECT_EQ(St.InFlight, 0u);
  EXPECT_EQ(S.size(), Family.size());
}

TEST(KernelServiceTest, EnginePlanAndWarmShareOneBuild) {
  if (!jitAvailable())
    GTEST_SKIP();
  // A default (sync) Engine builds its plan's kernels through the global
  // service, so a later warm of the same shape finds every config built.
  const int64_t M = 40, N = 29, K = 24;
  gemm::Engine E;
  std::vector<float> A(M * K, 1.0f), B(K * N, 1.0f), C(M * N, 0.0f);
  ASSERT_FALSE(E.sgemm(M, N, K, 1.0f, A.data(), M, B.data(), K, 0.0f,
                       C.data(), M));
  auto Choice = E.planFor(gemm::Trans::None, gemm::Trans::None, M, N, K);
  ASSERT_TRUE(static_cast<bool>(Choice)) << Choice.message();
  ASSERT_NE(Choice->Src, gemm::PlanSource::Fallback);
  const UkrConfig Main =
      shapeConfig(Choice->MR, Choice->NR, nullptr, Choice->UnrollCompute);
  KernelService &S = KernelService::global();
  expectReadyHit(S, Main);

  const uint64_t Builds = S.stats().Builds;
  ASSERT_FALSE(E.warm(gemm::Trans::None, gemm::Trans::None, M, N, K));
  EXPECT_EQ(S.stats().Builds, Builds);
}

TEST(KernelServiceTest, SecondServiceOverWarmDirSkipsTheCompiler) {
  if (!jitAvailable())
    GTEST_SKIP();
  std::string Dir = makeTempDir();
  UkrConfig Cfg = configFor(6, 5);

  // First service over a cold directory: must invoke the compiler.
  jitClearMemoryCache();
  {
    KernelService::Options Opts;
    Opts.Workers = 2;
    Opts.CacheDir = Dir;
    KernelService S1(Opts);
    auto K1 = S1.get(Cfg);
    ASSERT_TRUE(static_cast<bool>(K1)) << K1.message();
    CacheStats St1 = S1.stats();
    EXPECT_EQ(St1.Compiles, 1u);
    EXPECT_EQ(St1.DiskHits, 0u);
  }

  // Fresh service, same directory, empty in-process map: the kernel must
  // come back from disk with zero compiler invocations.
  jitClearMemoryCache();
  KernelService::Options Opts;
  Opts.Workers = 2;
  Opts.CacheDir = Dir;
  KernelService S2(Opts);
  auto K2 = S2.get(Cfg);
  ASSERT_TRUE(static_cast<bool>(K2)) << K2.message();
  checkNumerics((*K2)->Fn, 6, 5);
  CacheStats St2 = S2.stats();
  EXPECT_EQ(St2.Compiles, 0u);
  EXPECT_EQ(St2.DiskHits, 1u);
  EXPECT_EQ(St2.Builds, 1u);
}

TEST(KernelServiceTest, CorruptedDiskEntryRecompilesCleanly) {
  if (!jitAvailable())
    GTEST_SKIP();
  std::string Dir = makeTempDir();
  UkrConfig Cfg = configFor(7, 3);

  jitClearMemoryCache();
  {
    KernelService::Options Opts;
    Opts.Workers = 1;
    Opts.CacheDir = Dir;
    KernelService S1(Opts);
    auto K1 = S1.get(Cfg);
    ASSERT_TRUE(static_cast<bool>(K1)) << K1.message();
  }

  // Replace every published artifact with garbage (a new inode, like a
  // torn write from another process — the kernel built above stays mapped
  // in this process, so truncating in place would be undefined).
  std::vector<JitDiskCache::Entry> Entries = JitDiskCache::global().list();
  ASSERT_FALSE(Entries.empty());
  for (const JitDiskCache::Entry &E : Entries) {
    std::string Tmp = E.SoPath + ".corrupt";
    std::ofstream(Tmp) << "not an object";
    ASSERT_EQ(::rename(Tmp.c_str(), E.SoPath.c_str()), 0) << E.SoPath;
  }

  // A fresh service must notice the corruption, recompile, and still hand
  // out a working kernel — no crash, no error.
  jitClearMemoryCache();
  KernelService::Options Opts;
  Opts.Workers = 1;
  Opts.CacheDir = Dir;
  KernelService S2(Opts);
  auto K2 = S2.get(Cfg);
  ASSERT_TRUE(static_cast<bool>(K2)) << K2.message();
  checkNumerics((*K2)->Fn, 7, 3);
  EXPECT_GE(S2.stats().Compiles, 1u);
}

TEST(KernelServiceTest, WarmResolvesTheWholeFamily) {
  if (!jitAvailable())
    GTEST_SKIP();
  KernelService::Options Opts;
  Opts.Workers = 4;
  Opts.CacheDir = makeTempDir();
  KernelService S(Opts);

  std::vector<UkrConfig> Family = standardShapeFamily(8, 12);
  exo::Error Err = S.warm(Family);
  EXPECT_FALSE(static_cast<bool>(Err)) << Err.message();
  EXPECT_EQ(S.size(), Family.size());
  EXPECT_EQ(S.stats().InFlight, 0u);
  for (const UkrConfig &Cfg : Family)
    expectReadyHit(S, Cfg);
}

TEST(KernelServiceTest, ConcurrentGenerationMatchesSerial) {
  // Every build validates its rewrites against a per-thread record of the
  // last passing check (exo/sched/Validate.h); workers generating
  // different configs at once must emit what one thread does serially.
  std::vector<UkrConfig> Configs = standardShapeFamily(8, 12);
  for (size_t I = 0, N = Configs.size(); I != N; ++I) {
    UkrConfig Axpby = Configs[I];
    Axpby.GeneralAlphaBeta = true;
    Configs.push_back(Axpby);
  }
  std::vector<std::string> Serial;
  for (const UkrConfig &Cfg : Configs) {
    auto R = generateUkernel(Cfg);
    ASSERT_TRUE(static_cast<bool>(R)) << Cfg.kernelName() << ": "
                                      << R.message();
    Serial.push_back(R->CSource);
  }

  KernelService::Options Opts;
  Opts.Workers = 4;
  Opts.CacheDir = makeTempDir();
  KernelService S(Opts);
  constexpr size_t NumThreads = 4;
  // Preallocated per config; each thread writes only its own slots.
  std::vector<std::string> Built(Configs.size()), Errors(Configs.size());
  std::vector<std::thread> Threads;
  for (size_t T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (size_t I = T; I < Configs.size(); I += NumThreads) {
        auto K = S.get(Configs[I]);
        if (K)
          Built[I] = (*K)->CSource;
        else
          Errors[I] = K.message();
      }
    });
  for (std::thread &T : Threads)
    T.join();

  for (size_t I = 0; I < Configs.size(); ++I) {
    EXPECT_EQ(Errors[I], "") << Configs[I].kernelName();
    EXPECT_EQ(Built[I], Serial[I]) << Configs[I].kernelName();
  }
  EXPECT_EQ(S.stats().Builds, Configs.size());
}
