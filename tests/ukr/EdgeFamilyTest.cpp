//===- EdgeFamilyTest.cpp - The §III-B edge-case kernel family ------------===//

#include "ukr/KernelService.h"

#include "benchutil/Bench.h"

#include <gtest/gtest.h>

using namespace exo;
using namespace ukr;

namespace {

/// The micro-kernel family the paper's ALG+EXO runs for ResNet50:
/// 8x12, 8x4, 4x4, 4x8, 4x12, 1x8, 1x12 (§IV-C).
const std::vector<std::pair<int64_t, int64_t>> &paperFamily() {
  static const std::vector<std::pair<int64_t, int64_t>> F = {
      {8, 12}, {8, 4}, {4, 4}, {4, 8}, {4, 12}, {1, 8}, {1, 12}};
  return F;
}

} // namespace

TEST(EdgeFamilyTest, WholePaperFamilyBuildsAndRuns) {
  for (auto [MR, NR] : paperFamily()) {
    UkrConfig Cfg;
    Cfg.MR = MR;
    Cfg.NR = NR;
    Cfg.Isa = bestIsaForMr(MR);
    if (!Cfg.Isa)
      Cfg.Style = FmaStyle::Scalar;
    auto K = KernelService::global().get(Cfg);
    ASSERT_TRUE(static_cast<bool>(K))
        << MR << "x" << NR << ": " << K.message();
    ASSERT_NE((*K)->Fn, nullptr) << MR << "x" << NR;

    // Each kernel computes its shape correctly.
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
    (*K)->Fn(KC, Ldc, Ac.data(), Bc.data(), C.data());
    for (size_t I = 0; I != C.size(); ++I)
      EXPECT_NEAR(C[I], Want[I], 1e-4f) << MR << "x" << NR << " @" << I;
  }
}

TEST(EdgeFamilyTest, SpecializationPicksNarrowerVectorsForSmallMR) {
  // MR=4 must not use an 8-lane ISA.
  UkrConfig Cfg;
  Cfg.MR = 4;
  Cfg.NR = 12;
  Cfg.Isa = bestIsaForMr(4);
  ASSERT_NE(Cfg.Isa, nullptr);
  EXPECT_EQ(Cfg.Isa->lanes(ScalarKind::F32), 4u);
  EXPECT_NE(Cfg.effectiveStyle(), FmaStyle::Scalar);
}

TEST(EdgeFamilyTest, ArbitraryShapesAlwaysHaveAKernel) {
  // The generator must never fail outright: any (mr, nr) gets at least a
  // scalar kernel (vectorized where the shape allows). Sampled grid to keep
  // JIT time bounded.
  for (int64_t MR : {1, 2, 3, 4, 5, 8, 16}) {
    for (int64_t NR : {1, 3, 7, 12, 16}) {
      UkrConfig Cfg;
      Cfg.MR = MR;
      Cfg.NR = NR;
      Cfg.Isa = bestIsaForMr(MR);
      if (!Cfg.Isa)
        Cfg.Style = FmaStyle::Scalar;
      auto K = KernelService::global().get(Cfg);
      ASSERT_TRUE(static_cast<bool>(K))
          << MR << "x" << NR << ": " << K.message();
      EXPECT_NE((*K)->Fn, nullptr) << MR << "x" << NR;
    }
  }
}
