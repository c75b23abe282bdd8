//===- DegenerateTest.cpp - BLAS quick-return semantics -------------------===//
//
// The degenerate corners of the GEMM contract (reference: the netlib sgemm
// quick-return rules):
//
//   - m == 0 or n == 0: nothing happens, C is not referenced at all.
//   - k == 0 or alpha == 0: C = beta * C; A and B are never read (callers
//     may pass null), and beta == 0 *overwrites* — a NaN already in C must
//     not survive.
//
// Every rule is checked across all four transpose combos, through an Engine
// over a caller-supplied provider (EngineSeries::Custom) and a fixed-series
// Engine — whose quick return must additionally fire *before* the plan
// cache: a degenerate call never plans, never allocates, and only bumps the
// Degenerate counter.
//
//===----------------------------------------------------------------------===//

#include "gemm/Engine.h"

#include "gemm/Kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

using namespace gemm;

namespace {

constexpr float NaN = std::numeric_limits<float>::quiet_NaN();
constexpr Trans Combos[][2] = {{Trans::None, Trans::None},
                               {Trans::None, Trans::Transpose},
                               {Trans::Transpose, Trans::None},
                               {Trans::Transpose, Trans::Transpose}};

/// A C buffer (column-major, \p Ldc >= M) whose in-matrix elements count up
/// from 1 and whose slack rows [M, Ldc) hold NaN — any stray write there is
/// unmissable.
std::vector<float> makeC(int64_t M, int64_t N, int64_t Ldc) {
  std::vector<float> C(static_cast<size_t>(Ldc) * N, NaN);
  for (int64_t J = 0; J < N; ++J)
    for (int64_t I = 0; I < M; ++I)
      C[J * Ldc + I] = static_cast<float>(J * M + I + 1);
  return C;
}

/// True when the buffers are bit-identical (NaN-safe, padding-safe).
bool sameBits(const std::vector<float> &A, const std::vector<float> &B) {
  return A.size() == B.size() &&
         std::memcmp(A.data(), B.data(), A.size() * sizeof(float)) == 0;
}

EngineConfig customBlis() {
  EngineConfig Cfg;
  Cfg.Series = EngineSeries::Custom;
  Cfg.Provider = std::make_shared<FixedProvider>(blisKernel(), "blis");
  return Cfg;
}

struct DegenerateGemm : ::testing::Test {
  Engine E{customBlis()};
};

} // namespace

TEST_F(DegenerateGemm, ZeroMOrNTouchesNothing) {
  for (auto [TA, TB] : Combos)
    for (auto [M, N] : {std::pair<int64_t, int64_t>{0, 7}, {5, 0}, {0, 0}}) {
      const int64_t Ldc = 6;
      std::vector<float> C(static_cast<size_t>(Ldc) * (N ? N : 1), NaN);
      const std::vector<float> Want = C;
      // Per BLAS, C (and A, B) are not referenced at all — beta included.
      exo::Error Err = E.sgemm(TA, TB, M, N, /*K=*/3, 2.0f, /*A=*/nullptr, 1,
                               /*B=*/nullptr, 1, /*Beta=*/0.0f, C.data(), Ldc);
      EXPECT_FALSE(static_cast<bool>(Err)) << Err.message();
      EXPECT_TRUE(sameBits(C, Want)) << "M=" << M << " N=" << N;
    }
}

TEST_F(DegenerateGemm, ZeroKScalesByBetaWithoutReadingAB) {
  const int64_t M = 5, N = 7, Ldc = 6;
  for (auto [TA, TB] : Combos)
    for (float Beta : {0.0f, 1.0f, 0.7f}) {
      std::vector<float> C = makeC(M, N, Ldc);
      std::vector<float> Want = C;
      for (int64_t J = 0; J < N; ++J)
        for (int64_t I = 0; I < M; ++I) {
          float &W = Want[J * Ldc + I];
          W = Beta == 0.0f ? 0.0f : W * Beta;
        }
      exo::Error Err = E.sgemm(TA, TB, M, N, /*K=*/0, 2.0f, /*A=*/nullptr, 1,
                               /*B=*/nullptr, 1, Beta, C.data(), Ldc);
      EXPECT_FALSE(static_cast<bool>(Err)) << Err.message();
      // Slack rows keep their NaNs (sameBits would fail on any change).
      EXPECT_TRUE(sameBits(C, Want)) << "beta=" << Beta;
    }
}

TEST_F(DegenerateGemm, ZeroAlphaScalesByBetaWithoutReadingAB) {
  const int64_t M = 5, N = 7, K = 9, Ldc = 6;
  for (auto [TA, TB] : Combos)
    for (float Beta : {0.0f, 1.0f, 0.7f}) {
      std::vector<float> C = makeC(M, N, Ldc);
      std::vector<float> Want = C;
      for (int64_t J = 0; J < N; ++J)
        for (int64_t I = 0; I < M; ++I) {
          float &W = Want[J * Ldc + I];
          W = Beta == 0.0f ? 0.0f : W * Beta;
        }
      exo::Error Err = E.sgemm(TA, TB, M, N, K, /*Alpha=*/0.0f, /*A=*/nullptr,
                               1, /*B=*/nullptr, 1, Beta, C.data(), Ldc);
      EXPECT_FALSE(static_cast<bool>(Err)) << Err.message();
      EXPECT_TRUE(sameBits(C, Want)) << "beta=" << Beta;
    }
}

TEST_F(DegenerateGemm, BetaZeroOverwritesNaN) {
  // The serving-workload case: pooled, uninitialized C (all NaN). With
  // beta == 0 the result must be exactly zero — 0 * NaN == NaN would leak.
  const int64_t M = 4, N = 3, Ldc = 4;
  for (int64_t K : {int64_t{0}, int64_t{5}}) {
    std::vector<float> C(static_cast<size_t>(Ldc) * N, NaN);
    exo::Error Err = E.sgemm(M, N, K, /*Alpha=*/0.0f, /*A=*/nullptr, 1,
                             /*B=*/nullptr, 1, /*Beta=*/0.0f, C.data(), Ldc);
    EXPECT_FALSE(static_cast<bool>(Err)) << Err.message();
    for (float V : C)
      EXPECT_EQ(V, 0.0f) << "K=" << K;
  }
}

TEST_F(DegenerateGemm, NegativeDimensionIsAnError) {
  std::vector<float> C(4, 0.0f);
  for (auto [M, N, K] : {std::array<int64_t, 3>{-1, 2, 2},
                         {2, -1, 2},
                         {2, 2, -1}}) {
    exo::Error Err =
        E.sgemm(M, N, K, 1.0f, nullptr, 1, nullptr, 1, 1.0f, C.data(), 2);
    EXPECT_TRUE(static_cast<bool>(Err)) << M << "x" << N << "x" << K;
  }
}

// The Engine equivalents use the Blis series so nothing below depends on
// the JIT; the quick return must fire before kernels are even resolved.

TEST(EngineDegenerate, ZeroMOrNTouchesNothingAndSkipsPlanning) {
  EngineConfig Cfg;
  Cfg.Series = EngineSeries::Blis;
  Engine E(Cfg);
  uint64_t Calls = 0;
  for (auto [TA, TB] : Combos)
    for (auto [M, N] : {std::pair<int64_t, int64_t>{0, 7}, {5, 0}, {0, 0}}) {
      const int64_t Ldc = 6;
      std::vector<float> C(static_cast<size_t>(Ldc) * (N ? N : 1), NaN);
      const std::vector<float> Want = C;
      exo::Error Err = E.sgemm(TA, TB, M, N, /*K=*/3, 2.0f, /*A=*/nullptr, 1,
                               /*B=*/nullptr, 1, /*Beta=*/0.0f, C.data(), Ldc);
      ++Calls;
      EXPECT_FALSE(static_cast<bool>(Err)) << Err.message();
      EXPECT_TRUE(sameBits(C, Want)) << "M=" << M << " N=" << N;
    }
  // The quick return answered every call before the plan cache.
  EXPECT_EQ(E.planCount(), 0u);
  EngineStats St = E.stats();
  EXPECT_EQ(St.Degenerate, Calls);
  EXPECT_EQ(St.Builds, 0u);
  EXPECT_EQ(St.Hits + St.Misses, 0u);
}

TEST(EngineDegenerate, ZeroKOrAlphaScalesByBetaWithoutPlanning) {
  const int64_t M = 5, N = 7, Ldc = 6;
  EngineConfig Cfg;
  Cfg.Series = EngineSeries::Blis;
  Engine E(Cfg);
  uint64_t Calls = 0;
  for (auto [TA, TB] : Combos)
    for (float Beta : {0.0f, 1.0f, 0.7f})
      for (bool ZeroK : {true, false}) {
        const int64_t K = ZeroK ? 0 : 9;
        const float Alpha = ZeroK ? 2.0f : 0.0f;
        std::vector<float> C = makeC(M, N, Ldc);
        std::vector<float> Want = C;
        for (int64_t J = 0; J < N; ++J)
          for (int64_t I = 0; I < M; ++I) {
            float &W = Want[J * Ldc + I];
            W = Beta == 0.0f ? 0.0f : W * Beta;
          }
        exo::Error Err = E.sgemm(TA, TB, M, N, K, Alpha, /*A=*/nullptr, 1,
                                 /*B=*/nullptr, 1, Beta, C.data(), Ldc);
        ++Calls;
        EXPECT_FALSE(static_cast<bool>(Err)) << Err.message();
        EXPECT_TRUE(sameBits(C, Want))
            << "beta=" << Beta << " zeroK=" << ZeroK;
      }
  EXPECT_EQ(E.planCount(), 0u);
  EXPECT_EQ(E.stats().Degenerate, Calls);
}

TEST(EngineDegenerate, BetaZeroOverwritesNaN) {
  const int64_t M = 4, N = 3, Ldc = 4;
  EngineConfig Cfg;
  Cfg.Series = EngineSeries::Blis;
  Engine E(Cfg);
  for (int64_t K : {int64_t{0}, int64_t{5}}) {
    std::vector<float> C(static_cast<size_t>(Ldc) * N, NaN);
    exo::Error Err = E.sgemm(M, N, K, /*Alpha=*/0.0f, /*A=*/nullptr, 1,
                             /*B=*/nullptr, 1, /*Beta=*/0.0f, C.data(), Ldc);
    EXPECT_FALSE(static_cast<bool>(Err)) << Err.message();
    for (float V : C)
      EXPECT_EQ(V, 0.0f) << "K=" << K;
  }
  EXPECT_EQ(E.planCount(), 0u);
}

TEST(EngineDegenerate, NegativeDimensionIsAnError) {
  EngineConfig Cfg;
  Cfg.Series = EngineSeries::Blis;
  Engine E(Cfg);
  std::vector<float> C(4, 0.0f);
  for (auto [M, N, K] : {std::array<int64_t, 3>{-1, 2, 2},
                         {2, -1, 2},
                         {2, 2, -1}}) {
    exo::Error Err = E.sgemm(M, N, K, 1.0f, nullptr, 1, nullptr, 1, 1.0f,
                             C.data(), 2);
    EXPECT_TRUE(static_cast<bool>(Err)) << M << "x" << N << "x" << K;
  }
  EXPECT_EQ(E.planCount(), 0u);
}
