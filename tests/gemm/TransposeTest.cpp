//===- TransposeTest.cpp - op(A) * op(B) handling --------------------------===//

#include "gemm/Engine.h"

#include "benchutil/Bench.h"
#include "gemm/ExoProvider.h"
#include "gemm/Kernels.h"
#include "gemm/RefGemm.h"

#include <gtest/gtest.h>

#include <vector>

using namespace gemm;

namespace {

/// Materializes the transpose of a column-major Rows x Cols matrix.
std::vector<float> transposed(const std::vector<float> &M, int64_t Rows,
                              int64_t Cols, int64_t Ld) {
  std::vector<float> T(Cols * Rows);
  for (int64_t C = 0; C < Cols; ++C)
    for (int64_t R = 0; R < Rows; ++R)
      T[C + R * Cols] = M[R + C * Ld];
  return T;
}

void runCase(Trans TA, Trans TB) {
  if (!baselineKernelsUsable())
    GTEST_SKIP();
  const int64_t M = 61, N = 45, K = 38;
  // op(A) is M x K; storage depends on the transposition.
  int64_t ARows = TA == Trans::None ? M : K;
  int64_t ACols = TA == Trans::None ? K : M;
  int64_t BRows = TB == Trans::None ? K : N;
  int64_t BCols = TB == Trans::None ? N : K;
  std::vector<float> A(ARows * ACols), B(BRows * BCols), C(M * N);
  benchutil::fillRandom(A.data(), A.size(), 1);
  benchutil::fillRandom(B.data(), B.size(), 2);
  benchutil::fillRandom(C.data(), C.size(), 3);
  std::vector<float> Want = C;

  // Reference through explicit transposition.
  std::vector<float> AEff =
      TA == Trans::None ? A : transposed(A, K, M, K);
  std::vector<float> BEff =
      TB == Trans::None ? B : transposed(B, N, K, N);
  refSgemm(M, N, K, 1.25f, AEff.data(), M, BEff.data(), K, 0.75f,
           Want.data(), M);

  EngineConfig Cfg;
  Cfg.Series = EngineSeries::Custom;
  Cfg.Provider = std::make_shared<ExoProvider>(8, 12);
  Engine E(Cfg);
  exo::Error Err = E.sgemm(TA, TB, M, N, K, 1.25f, A.data(), ARows, B.data(),
                           BRows, 0.75f, C.data(), M);
  ASSERT_FALSE(Err) << Err.message();
  float D = benchutil::maxAbsDiff(C.data(), Want.data(), C.size());
  EXPECT_LT(D, 1e-3f) << "TA=" << static_cast<int>(TA)
                      << " TB=" << static_cast<int>(TB);
}

} // namespace

TEST(TransposeTest, NN) { runCase(Trans::None, Trans::None); }
TEST(TransposeTest, TN) { runCase(Trans::Transpose, Trans::None); }
TEST(TransposeTest, NT) { runCase(Trans::None, Trans::Transpose); }
TEST(TransposeTest, TT) { runCase(Trans::Transpose, Trans::Transpose); }

TEST(TransposeTest, StridedPackingAgreesWithPlain) {
  // packA == packPanels(F32, 1, lda) by definition; sanity-check the
  // wrapper.
  const int64_t Mc = 7, Kc = 5, Mr = 4, Lda = 9;
  std::vector<float> A(Lda * Kc);
  benchutil::fillRandom(A.data(), A.size(), 4);
  std::vector<float> B1(2 * Kc * Mr, -1), B2(2 * Kc * Mr, -2);
  packA(A.data(), Lda, Mc, Kc, Mr, 1.5f, EdgePack::ZeroPad, B1.data());
  packPanels(DType::F32, A.data(), 1, Lda, Mc, Kc, Mr, 1.5f,
             EdgePack::ZeroPad, B2.data());
  EXPECT_EQ(B1, B2);
}
