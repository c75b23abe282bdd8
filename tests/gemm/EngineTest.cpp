//===- EngineTest.cpp - Engine front door ---------------------------------===//
//
// The Engine's core guarantee: Engine::sgemm is a *dispatch* layer over one
// executor. The differential sweep holds every result to refSgemm across a
// broad shape set (edge-heavy shapes included) and all four transpose
// combos, and holds team sizes 1 and 4 to bitwise identity, also with
// eight callers racing for the pool's workers. Also covers
// argument validation (the gemm::Client leading-dimension rule), the plan
// cache's observable behavior (counters, cap eviction) and plan provenance.
//
//===----------------------------------------------------------------------===//

#include "gemm/Engine.h"

#include "benchutil/Bench.h"
#include "exo/jit/Jit.h"
#include "gemm/ExoProvider.h"
#include "gemm/Kernels.h"
#include "gemm/RefGemm.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

using namespace gemm;

namespace {

constexpr Trans Combos[][2] = {{Trans::None, Trans::None},
                               {Trans::None, Trans::Transpose},
                               {Trans::Transpose, Trans::None},
                               {Trans::Transpose, Trans::Transpose}};

/// The differential sweep's shapes: full-tile multiples, edge-heavy
/// remainders around the 8x12 tile, degenerate-adjacent slivers, and a few
/// larger blocks that cross mc/nc boundaries.
constexpr int64_t Shapes[][3] = {
    {1, 1, 1},     {1, 12, 4},    {8, 1, 8},     {1, 8, 8},
    {2, 2, 2},     {3, 5, 2},     {7, 11, 5},    {8, 12, 1},
    {8, 12, 16},   {13, 13, 13},  {16, 24, 32},  {17, 23, 31},
    {24, 36, 48},  {25, 37, 49},  {31, 47, 29},  {33, 65, 17},
    {40, 60, 20},  {41, 61, 21},  {49, 50, 51},  {57, 3, 19},
    {3, 57, 19},   {64, 48, 32},  {5, 124, 77},  {124, 5, 77},
    {61, 67, 71},  {80, 84, 88},  {81, 85, 89},  {96, 96, 96},
    {100, 62, 64}, {128, 12, 128}, {12, 128, 12}, {160, 96, 64},
};

/// op(A) is M x K: storage extents for one operand given its transpose.
void operandExtents(Trans T, int64_t Rows, int64_t Cols, int64_t &StoreRows,
                    int64_t &StoreCols) {
  StoreRows = T == Trans::None ? Rows : Cols;
  StoreCols = T == Trans::None ? Cols : Rows;
}

bool sameBits(const std::vector<float> &X, const std::vector<float> &Y) {
  return X.size() == Y.size() &&
         std::memcmp(X.data(), Y.data(), X.size() * sizeof(float)) == 0;
}

/// Runs \p E1 and \p E2 on identical inputs: both must match refSgemm
/// (within f32 accumulation tolerance) and each other bitwise.
void expectAgree(Engine &E1, Engine &E2, Trans TA, Trans TB, int64_t M,
                 int64_t N, int64_t K) {
  int64_t ARows, ACols, BRows, BCols;
  operandExtents(TA, M, K, ARows, ACols);
  operandExtents(TB, K, N, BRows, BCols);
  const int64_t Lda = ARows + 2, Ldb = BRows + 1, Ldc = M + 3;

  std::vector<float> A(Lda * ACols), B(Ldb * BCols), C(Ldc * N);
  benchutil::fillRandom(A.data(), A.size(), 7 * M + N);
  benchutil::fillRandom(B.data(), B.size(), 11 * N + K);
  benchutil::fillRandom(C.data(), C.size(), 13 * K + M);

  // refSgemm takes plain operands: materialize op(A) and op(B).
  std::vector<float> AEff(M * K), BEff(K * N), Want = C;
  for (int64_t P = 0; P < K; ++P)
    for (int64_t I = 0; I < M; ++I)
      AEff[I + P * M] =
          TA == Trans::None ? A[I + P * Lda] : A[P + I * Lda];
  for (int64_t J = 0; J < N; ++J)
    for (int64_t P = 0; P < K; ++P)
      BEff[P + J * K] =
          TB == Trans::None ? B[P + J * Ldb] : B[J + P * Ldb];
  refSgemm(M, N, K, 1.25f, AEff.data(), M, BEff.data(), K, 0.5f, Want.data(),
           Ldc);

  std::vector<float> C1 = C, C2 = C;
  exo::Error Err1 = E1.sgemm(TA, TB, M, N, K, 1.25f, A.data(), Lda, B.data(),
                             Ldb, 0.5f, C1.data(), Ldc);
  exo::Error Err2 = E2.sgemm(TA, TB, M, N, K, 1.25f, A.data(), Lda, B.data(),
                             Ldb, 0.5f, C2.data(), Ldc);
  ASSERT_FALSE(static_cast<bool>(Err1)) << Err1.message();
  ASSERT_FALSE(static_cast<bool>(Err2)) << Err2.message();
  const std::string What = std::to_string(M) + "x" + std::to_string(N) +
                           "x" + std::to_string(K) +
                           " TA=" + std::to_string(TA == Trans::Transpose) +
                           " TB=" + std::to_string(TB == Trans::Transpose);
  EXPECT_TRUE(sameBits(C1, C2)) << What;
  EXPECT_LT(benchutil::maxAbsDiff(C1.data(), Want.data(), C1.size()),
            1e-4f * static_cast<float>(K + 1))
      << What;
}

EngineConfig widthConfig(EngineSeries Series, int64_t Threads) {
  EngineConfig Cfg;
  Cfg.Series = Series;
  Cfg.Threads = Threads;
  return Cfg;
}

} // namespace

TEST(EngineDifferential, BlisSweepMatchesReferenceAcrossWidths) {
  if (!baselineKernelsUsable())
    GTEST_SKIP() << "host lacks AVX2+FMA";
  Engine E1(widthConfig(EngineSeries::Blis, 1));
  Engine E4(widthConfig(EngineSeries::Blis, 4));
  for (const auto &S : Shapes)
    for (auto [TA, TB] : Combos)
      expectAgree(E1, E4, TA, TB, S[0], S[1], S[2]);
}

TEST(EngineDifferential, ExoEdgeShapesMatchReferenceAcrossWidths) {
  if (!baselineKernelsUsable())
    GTEST_SKIP() << "host lacks AVX2+FMA";
  if (!exo::jitAvailable())
    GTEST_SKIP() << "no working C compiler";
  // Generated kernels with specialized edges, pinned to the 8x12 tile so
  // the shapes below exercise the Tight-mode edge-kernel paths.
  EngineConfig Cfg = widthConfig(EngineSeries::Exo, 1);
  Cfg.Isa = &exo::avx2Isa();
  Cfg.ForceMR = 8;
  Cfg.ForceNR = 12;
  Engine E1(Cfg);
  Cfg.Threads = 4;
  Engine E4(Cfg);
  for (const auto &S : {std::array<int64_t, 3>{49, 50, 51},
                        {100, 62, 64},
                        {17, 23, 31},
                        {8, 12, 16}})
    for (auto [TA, TB] : Combos)
      expectAgree(E1, E4, TA, TB, S[0], S[1], S[2]);
}

// The gemm::Client rule, now enforced by the Engine itself: past the quick
// return, a leading dimension smaller than its operand's stored rows is an
// error — for every dtype and transpose combo — and C is never touched.
TEST(EngineConfigTest, LeadingDimensionBelowRowsIsRejected) {
  if (!baselineKernelsUsable())
    GTEST_SKIP() << "host lacks AVX2+FMA";
  EngineConfig Cfg;
  Cfg.Series = EngineSeries::Blis;
  Engine E(Cfg);
  const int64_t M = 9, N = 7, K = 5;
  for (DType Ty : {DType::F32, DType::F16, DType::BF16, DType::I8I32})
    for (auto [TA, TB] : Combos) {
      const int64_t ARows = TA == Trans::None ? M : K;
      const int64_t BRows = TB == Trans::None ? K : N;
      // Operands sized generously, so only the ld rule can fail the call.
      std::vector<unsigned char> A(64 * 64 * 4, 1), B(64 * 64 * 4, 1);
      std::vector<unsigned char> C0(64 * 64 * 4);
      for (size_t I = 0; I != C0.size(); ++I)
        C0[I] = static_cast<unsigned char>(I % 61);
      for (int Bad = 0; Bad != 3; ++Bad) {
        const int64_t Lda = ARows - (Bad == 0), Ldb = BRows - (Bad == 1),
                      Ldc = M - (Bad == 2);
        std::vector<unsigned char> C = C0;
        exo::Error Err = E.gemm(Ty, TA, TB, M, N, K, 1.0, A.data(), Lda,
                                B.data(), Ldb, 0.0, C.data(), Ldc);
        EXPECT_TRUE(static_cast<bool>(Err))
            << dtypeName(Ty) << " TA=" << (TA == Trans::Transpose)
            << " TB=" << (TB == Trans::Transpose) << " bad ld #" << Bad;
        EXPECT_EQ(C, C0) << dtypeName(Ty) << " bad ld #" << Bad;
      }
    }
  EXPECT_EQ(E.planCount(), 0u); // rejected before planning
}

TEST(EnginePlanCache, CountsHitsMissesAndBuilds) {
  EngineConfig Cfg;
  Cfg.Series = EngineSeries::Blis;
  Engine E(Cfg);
  std::vector<float> A(32 * 32), B(32 * 32), C(32 * 32, 0.f);
  benchutil::fillRandom(A.data(), A.size(), 1);
  benchutil::fillRandom(B.data(), B.size(), 2);

  for (int Rep = 0; Rep != 5; ++Rep)
    ASSERT_FALSE(static_cast<bool>(
        E.sgemm(32, 32, 32, 1.f, A.data(), 32, B.data(), 32, 0.f, C.data(),
                32)));
  ASSERT_FALSE(static_cast<bool>(
      E.sgemm(16, 16, 16, 1.f, A.data(), 16, B.data(), 16, 0.f, C.data(),
              16)));

  EngineStats St = E.stats();
  EXPECT_EQ(St.Builds, 2u); // one per distinct shape
  EXPECT_EQ(St.Misses, 2u);
  EXPECT_EQ(St.Hits, 4u);
  EXPECT_EQ(E.planCount(), 2u);

  E.clearPlanCache();
  EXPECT_EQ(E.planCount(), 0u);
}

TEST(EnginePlanCache, CapEvictsLeastRecentlyUsed) {
  EngineConfig Cfg;
  Cfg.Series = EngineSeries::Blis;
  Cfg.PlanCacheCap = 3;
  Engine E(Cfg);
  std::vector<float> A(64 * 64), B(64 * 64), C(64 * 64, 0.f);
  benchutil::fillRandom(A.data(), A.size(), 1);
  benchutil::fillRandom(B.data(), B.size(), 2);

  for (int64_t S : {8, 16, 24, 32, 40, 48})
    ASSERT_FALSE(static_cast<bool>(
        E.sgemm(S, S, S, 1.f, A.data(), S, B.data(), S, 0.f, C.data(), S)));

  EXPECT_LE(E.planCount(), 3u);
  EXPECT_GE(E.stats().Evictions, 3u);
}

TEST(EnginePlanCache, CapOneChurnsWithoutInvalidatingReturnedPlans) {
  // cap=1 makes every new build the sole resident: each insertion evicts
  // the previous plan while the new entry must survive its own eviction
  // pass (a returned plan read through the map after self-eviction is a
  // use-after-free; ASan-visible).
  EngineConfig Cfg;
  Cfg.Series = EngineSeries::Blis;
  Cfg.PlanCacheCap = 1;
  Engine E(Cfg);
  std::vector<float> A(64 * 64), B(64 * 64), C(64 * 64, 0.f);
  benchutil::fillRandom(A.data(), A.size(), 1);
  benchutil::fillRandom(B.data(), B.size(), 2);

  for (int Round = 0; Round != 2; ++Round)
    for (int64_t S : {8, 16, 24, 32})
      ASSERT_FALSE(static_cast<bool>(E.sgemm(
          S, S, S, 1.f, A.data(), S, B.data(), S, 0.f, C.data(), S)));

  EXPECT_LE(E.planCount(), 1u);
  EXPECT_GE(E.stats().Evictions, 7u); // every later build displaces one
}

TEST(EnginePlanner, ForcedTileWinsAndIsReported) {
  // Forcing only makes sense for planner-driven series (Exo/Auto); fixed
  // kernel series always report "fixed" because their kernel is the tile.
  if (!exo::jitAvailable())
    GTEST_SKIP() << "JIT unavailable";
  EngineConfig Cfg;
  Cfg.Series = EngineSeries::Exo;
  Cfg.Isa = &exo::avx2Isa();
  Cfg.ForceMR = 8;
  Cfg.ForceNR = 12;
  Engine E(Cfg);
  exo::Expected<PlanChoice> Choice =
      E.planFor(Trans::None, Trans::None, 64, 64, 64);
  ASSERT_TRUE(static_cast<bool>(Choice)) << Choice.takeError().message();
  EXPECT_EQ(Choice->MR, 8);
  EXPECT_EQ(Choice->NR, 12);
  EXPECT_STREQ(Choice->Source, "forced");

  // And the fixed-series counterpart: same tile, honestly labeled.
  EngineConfig BlisCfg;
  BlisCfg.Series = EngineSeries::Blis;
  Engine EB(BlisCfg);
  exo::Expected<PlanChoice> BlisChoice =
      EB.planFor(Trans::None, Trans::None, 64, 64, 64);
  ASSERT_TRUE(static_cast<bool>(BlisChoice))
      << BlisChoice.takeError().message();
  EXPECT_STREQ(BlisChoice->Source, "fixed");
}

TEST(EngineConfigTest, CustomSeriesRequiresProvider) {
  // Every entry point must report the misconfiguration as an Error; the
  // planFor/warm paths used to dereference the null provider in build().
  EngineConfig Cfg;
  Cfg.Series = EngineSeries::Custom;
  Engine E(Cfg);
  std::vector<float> C(4, 0.f);
  exo::Error Err =
      E.sgemm(2, 2, 2, 1.f, C.data(), 2, C.data(), 2, 0.f, C.data(), 2);
  EXPECT_TRUE(static_cast<bool>(Err));

  exo::Expected<PlanChoice> Choice =
      E.planFor(Trans::None, Trans::None, 4, 4, 4);
  ASSERT_FALSE(static_cast<bool>(Choice));
  EXPECT_TRUE(static_cast<bool>(Choice.takeError()));

  exo::Error WarmErr = E.warm(Trans::None, Trans::None, 4, 4, 4);
  EXPECT_TRUE(static_cast<bool>(WarmErr));
}

TEST(EngineConfigTest, StickyErrorEntriesStayBounded) {
  // Unbuildable shapes leave sticky error entries; those must count as
  // eviction victims, or probing many bad shapes pins the cache over cap
  // and disables eviction of real plans.
  EngineConfig Cfg;
  Cfg.Series = EngineSeries::Custom; // no provider: every build fails
  Cfg.PlanCacheCap = 2;
  Engine E(Cfg);
  for (int64_t S = 1; S <= 10; ++S) {
    exo::Expected<PlanChoice> Choice =
        E.planFor(Trans::None, Trans::None, S, S, S);
    ASSERT_FALSE(static_cast<bool>(Choice));
    (void)Choice.takeError();
  }
  EXPECT_GE(E.stats().Evictions, 8u); // 10 error entries, cap 2
}

TEST(EngineConfigTest, CustomProviderServes) {
  if (!baselineKernelsUsable())
    GTEST_SKIP() << "host lacks AVX2+FMA";
  EngineConfig Cfg;
  Cfg.Series = EngineSeries::Custom;
  Cfg.Provider =
      std::make_shared<FixedProvider>(blisKernelPrefetch(), "custom-pf");
  Engine E(Cfg);
  // A custom provider over the prefetching kernel is the BlisPrefetch
  // series by another name: same kernel, same plans, same bits.
  Engine Series(widthConfig(EngineSeries::BlisPrefetch, 0));
  for (auto [TA, TB] : Combos)
    expectAgree(E, Series, TA, TB, 33, 29, 31);
}

namespace {

/// Forwards to an inner provider, counting edge() probes.
class EdgeCountingProvider final : public KernelProvider {
public:
  explicit EdgeCountingProvider(std::shared_ptr<KernelProvider> Inner)
      : Inner(std::move(Inner)) {}
  MicroKernel main() override { return Inner->main(); }
  std::optional<MicroKernel> edge(int64_t MrEff, int64_t NrEff) override {
    ++EdgeCalls;
    return Inner->edge(MrEff, NrEff);
  }
  const char *name() const override { return "edge-counting"; }
  int EdgeCalls = 0;

private:
  std::shared_ptr<KernelProvider> Inner;
};

} // namespace

TEST(EngineConfigTest, OnlyF32PlansProbeEdgeKernels) {
  // Half-precision plans always run the main kernel over zero-padded
  // panels, so planning them must not ask the provider for an edge kernel
  // it would then discard; an f32 plan over the same provider does probe.
  if (!baselineKernelsUsable())
    GTEST_SKIP() << "host lacks AVX2+FMA";
  auto P = std::make_shared<EdgeCountingProvider>(
      std::make_shared<FixedProvider>(blisKernel(), "blis"));
  EngineConfig Cfg;
  Cfg.Series = EngineSeries::Custom;
  Cfg.Provider = P;
  Engine E(Cfg);
  const int64_t M = 13, N = 17, K = 9;
  std::vector<uint16_t> AH(M * K, 0x3c00), BH(K * N, 0x3c00), CH(M * N, 0);
  for (DType Ty : {DType::F16, DType::BF16}) {
    exo::Error Err = E.gemm(Ty, Trans::None, Trans::None, M, N, K, 1.0,
                            AH.data(), M, BH.data(), K, 0.0, CH.data(), M);
    ASSERT_FALSE(Err) << Err.message();
  }
  EXPECT_EQ(P->EdgeCalls, 0);

  std::vector<float> A(M * K, 1.f), B(K * N, 1.f), C(M * N, 0.f);
  exo::Error Err = E.gemm(DType::F32, Trans::None, Trans::None, M, N, K, 1.0,
                          A.data(), M, B.data(), K, 0.0, C.data(), M);
  ASSERT_FALSE(Err) << Err.message();
  EXPECT_GT(P->EdgeCalls, 0);
}

namespace {

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

// Eight plain threads share one Engine whose plans run 4-wide teams. The
// pool holds only the 3 workers one team needs, so most calls wait in
// ThreadPool::parallel's FIFO for a whole team to drain; every result must
// still equal the 1-thread plan bitwise, in f32, bf16 and i8 -> i32.
TEST(EngineConcurrency, RacingFixedTeamCallersMatchOneThreadBitwise) {
  if (!baselineKernelsUsable())
    GTEST_SKIP() << "host lacks AVX2+FMA";

  const int64_t M = 96, N = 80, K = 112;
  for (DType Ty : {DType::F32, DType::BF16, DType::I8I32}) {
    const std::vector<unsigned char> A = operand(Ty, M * K, 41);
    const std::vector<unsigned char> B = operand(Ty, K * N, 42);
    const size_t CBytes = M * N * dtypeOutBytes(Ty);

    Engine ERef(widthConfig(EngineSeries::Blis, 1));
    std::vector<unsigned char> CRef(CBytes, 0);
    ASSERT_FALSE(ERef.gemm(Ty, Trans::None, Trans::None, M, N, K, 1.0,
                           A.data(), M, B.data(), K, 0.0, CRef.data(), M));

    Engine E4(widthConfig(EngineSeries::Blis, 4));
    const int Callers = 8, Rounds = 16;
    std::vector<std::vector<unsigned char>> Cs(
        Callers, std::vector<unsigned char>(CBytes, 0));
    std::atomic<int> Failures{0};
    std::vector<std::thread> Threads;
    for (int T = 0; T != Callers; ++T)
      Threads.emplace_back([&, T] {
        for (int R = 0; R != Rounds; ++R)
          if (E4.gemm(Ty, Trans::None, Trans::None, M, N, K, 1.0, A.data(),
                      M, B.data(), K, 0.0, Cs[T].data(), M))
            Failures.fetch_add(1, std::memory_order_relaxed);
      });
    for (std::thread &Th : Threads)
      Th.join();

    EXPECT_EQ(Failures.load(), 0) << dtypeName(Ty);
    for (int T = 0; T != Callers; ++T)
      EXPECT_EQ(Cs[T], CRef) << dtypeName(Ty) << ": caller " << T
                             << " differs from the 1-thread result";
    EXPECT_EQ(E4.stats().Builds, 1u) << dtypeName(Ty);
  }
}
