//===- KernelNumericsTest.cpp - Generated kernels vs ground truth ---------===//
//
// Parameterized sweep: every generated kernel (shape x ISA x style) must
// compute exactly the same GEMM update as a naive loop, both through the
// interpreter (all ISAs, including Neon which cannot execute here) and
// through the JIT-compiled C (host ISAs).
//
//===----------------------------------------------------------------------===//

#include "ukr/KernelService.h"

#include "benchutil/Bench.h"
#include "exo/interp/Interp.h"
#include "exo/support/Str.h"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

using namespace exo;
using namespace ukr;

namespace {

struct Shape {
  int64_t MR, NR;
  const char *IsaName; // nullptr => scalar
  FmaStyle Style;
};

std::string shapeName(const testing::TestParamInfo<Shape> &Info) {
  const Shape &S = Info.param;
  return strf("mr%lld_nr%lld_%s_%s", static_cast<long long>(S.MR),
              static_cast<long long>(S.NR),
              S.IsaName ? S.IsaName : "none", fmaStyleName(S.Style));
}

class KernelNumericsTest : public testing::TestWithParam<Shape> {};

/// Naive update C[j, i] += sum_k Ac[k, i] * Bc[k, j] in float.
void naive(int64_t MR, int64_t NR, int64_t KC, int64_t Ldc,
           const std::vector<float> &Ac, const std::vector<float> &Bc,
           std::vector<float> &C) {
  for (int64_t J = 0; J < NR; ++J)
    for (int64_t I = 0; I < MR; ++I)
      for (int64_t K = 0; K < KC; ++K)
        C[J * Ldc + I] += Ac[K * MR + I] * Bc[K * NR + J];
}

} // namespace

TEST_P(KernelNumericsTest, MatchesNaiveGemm) {
  const Shape &S = GetParam();
  UkrConfig Cfg;
  Cfg.MR = S.MR;
  Cfg.NR = S.NR;
  Cfg.Style = S.Style;
  if (S.IsaName)
    Cfg.Isa = findIsa(S.IsaName);

  auto K = buildKernel(Cfg);
  ASSERT_TRUE(static_cast<bool>(K)) << K.message();

  const int64_t KC = 29, Ldc = S.MR + 5;
  std::vector<float> Ac(KC * S.MR), Bc(KC * S.NR);
  std::vector<float> C((S.NR - 1) * Ldc + S.MR, 0.5f);
  benchutil::fillRandom(Ac.data(), Ac.size(), 11);
  benchutil::fillRandom(Bc.data(), Bc.size(), 22);
  std::vector<float> Want = C;
  naive(S.MR, S.NR, KC, Ldc, Ac, Bc, Want);

  // 1) Interpreter over the final scheduled proc (works for every ISA).
  {
    std::vector<double> AcD(Ac.begin(), Ac.end()),
        BcD(Bc.begin(), Bc.end());
    std::vector<double> CD(C.size());
    for (size_t I = 0; I != C.size(); ++I)
      CD[I] = C[I];
    Error Err = interpret(K->Final, {{"KC", KC}, {"ldc", Ldc}},
                          {{"Ac", {AcD.data(), {KC, S.MR}}},
                           {"Bc", {BcD.data(), {KC, S.NR}}},
                           {"C", {CD.data(), {S.NR, S.MR}}}});
    ASSERT_FALSE(Err) << Err.message();
    for (size_t I = 0; I != C.size(); ++I)
      EXPECT_NEAR(CD[I], Want[I], 2e-4) << "interp index " << I;
  }

  // 2) JIT execution when the ISA runs on this host.
  if (K->Fn) {
    std::vector<float> CJ = C;
    K->Fn(KC, Ldc, Ac.data(), Bc.data(), CJ.data());
    for (size_t I = 0; I != C.size(); ++I)
      EXPECT_NEAR(CJ[I], Want[I], 2e-4f) << "jit index " << I;
  } else {
    EXPECT_FALSE(Cfg.Isa->hostExecutable())
        << "host-executable kernel did not JIT";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KernelNumericsTest,
    testing::Values(
        // The paper's Neon flagship and edge family (interpreted).
        Shape{8, 12, "neon", FmaStyle::Lane},
        Shape{8, 8, "neon", FmaStyle::Lane},
        Shape{8, 4, "neon", FmaStyle::Lane},
        Shape{4, 12, "neon", FmaStyle::Lane},
        Shape{4, 8, "neon", FmaStyle::Lane},
        Shape{4, 4, "neon", FmaStyle::Lane},
        Shape{1, 8, nullptr, FmaStyle::Scalar},
        Shape{1, 12, nullptr, FmaStyle::Scalar},
        // Portable lane kernels (executed).
        Shape{8, 12, "portable", FmaStyle::Lane},
        Shape{4, 4, "portable", FmaStyle::Lane},
        Shape{12, 8, "portable", FmaStyle::Lane},
        Shape{8, 12, "portable", FmaStyle::Broadcast},
        // x86 broadcast kernels (executed).
        Shape{8, 12, "avx2", FmaStyle::Auto},
        Shape{16, 6, "avx2", FmaStyle::Auto},
        Shape{8, 1, "avx2", FmaStyle::Auto},
        Shape{24, 5, "avx2", FmaStyle::Auto},
        Shape{16, 12, "avx512", FmaStyle::Auto},
        Shape{32, 4, "avx512", FmaStyle::Auto},
        // Odd scalar shapes.
        Shape{3, 5, nullptr, FmaStyle::Scalar},
        Shape{2, 2, nullptr, FmaStyle::Scalar},
        Shape{5, 12, "avx2", FmaStyle::Auto} // MR=5 -> auto scalar fallback
        ),
    shapeName);

TEST(KernelCacheTest, CachesByName) {
  UkrConfig Cfg;
  Cfg.MR = 8;
  Cfg.NR = 4;
  Cfg.Isa = &portableIsa();
  auto K1 = KernelService::global().get(Cfg);
  auto K2 = KernelService::global().get(Cfg);
  ASSERT_TRUE(static_cast<bool>(K1)) << K1.message();
  ASSERT_TRUE(static_cast<bool>(K2));
  EXPECT_EQ(*K1, *K2);
}

TEST(KernelCacheTest, BestIsaSelection) {
  const IsaLib *I16 = bestIsaForMr(16);
  ASSERT_NE(I16, nullptr);
  const IsaLib *I8 = bestIsaForMr(8);
  ASSERT_NE(I8, nullptr);
  EXPECT_GE(I8->lanes(ScalarKind::F32), 8u);
  const IsaLib *I4 = bestIsaForMr(4);
  ASSERT_NE(I4, nullptr);
  EXPECT_EQ(I4->lanes(ScalarKind::F32), 4u);
  EXPECT_EQ(bestIsaForMr(3), nullptr);
  EXPECT_EQ(bestIsaForMr(1), nullptr);
}

TEST(KernelNumericsTest2, UnrollComputeVariantMatches) {
  UkrConfig Cfg;
  Cfg.MR = 8;
  Cfg.NR = 12;
  Cfg.Isa = &portableIsa();
  Cfg.Style = FmaStyle::Lane;
  Cfg.UnrollCompute = true;
  auto K = buildKernel(Cfg);
  ASSERT_TRUE(static_cast<bool>(K)) << K.message();
  ASSERT_NE(K->Fn, nullptr);

  const int64_t KC = 17, Ldc = 8;
  std::vector<float> Ac(KC * 8), Bc(KC * 12), C(12 * 8, 0.f), Want(12 * 8, 0.f);
  benchutil::fillRandom(Ac.data(), Ac.size(), 5);
  benchutil::fillRandom(Bc.data(), Bc.size(), 6);
  naive(8, 12, KC, Ldc, Ac, Bc, Want);
  K->Fn(KC, Ldc, Ac.data(), Bc.data(), C.data());
  for (size_t I = 0; I != C.size(); ++I)
    EXPECT_NEAR(C[I], Want[I], 2e-4f);
}
