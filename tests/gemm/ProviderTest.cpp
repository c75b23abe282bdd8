//===- ProviderTest.cpp - Kernel providers and shape selection ------------===//

#include "gemm/ExoProvider.h"

#include "gemm/Kernels.h"

#include <gtest/gtest.h>

using namespace gemm;

TEST(PickShapeTest, DividesWhenPossible) {
  // A problem that is an exact multiple of a big tile should pick a shape
  // with no edge waste.
  auto [Mr, Nr] = ExoProvider::pickShape(512, 504, &exo::avx2Isa());
  EXPECT_EQ(512 % Mr, 0);
  EXPECT_EQ(504 % Nr, 0);
}

TEST(PickShapeTest, RespectsForcedWidth) {
  // With AVX2 forced, MR must be a multiple of 8.
  for (int64_t M : {49, 196, 784, 3136, 1000})
    for (int64_t N : {64, 512, 2048}) {
      auto [Mr, Nr] = ExoProvider::pickShape(M, N, &exo::avx2Isa());
      EXPECT_EQ(Mr % 8, 0) << M << "x" << N;
      EXPECT_GT(Nr, 0);
    }
}

TEST(PickShapeTest, RegisterPressureRespected) {
  // Any returned shape must fit 16 vector registers at the chosen width:
  // nr*(mr/L) + mr/L + 1 <= 16.
  for (int64_t M : {64, 100, 4096})
    for (int64_t N : {12, 100, 4096}) {
      auto [Mr, Nr] = ExoProvider::pickShape(M, N);
      const exo::IsaLib *Isa = ukr::bestIsaForMr(Mr);
      ASSERT_NE(Isa, nullptr);
      int64_t Vecs = Mr / Isa->lanes(exo::ScalarKind::F32);
      EXPECT_LE(Nr * Vecs + Vecs + 1, 16) << Mr << "x" << Nr;
    }
}

TEST(PickShapeTest, TinyProblemsStillGetAShape) {
  auto [Mr, Nr] = ExoProvider::pickShape(1, 1);
  EXPECT_GE(Mr, 1);
  EXPECT_GE(Nr, 1);
}

TEST(ExoProviderTest, EdgeDisableFallsBackToNullopt) {
  ExoProvider P(8, 12, &exo::avx2Isa());
  EXPECT_TRUE(P.edge(3, 5).has_value());
  P.setSpecializeEdges(false);
  EXPECT_FALSE(P.edge(3, 5).has_value());
}

TEST(ExoProviderTest, MainKernelMatchesRequestedShape) {
  ExoProvider P(16, 6, &exo::avx2Isa());
  MicroKernel K = P.main();
  EXPECT_EQ(K.MR, 16);
  EXPECT_EQ(K.NR, 6);
  EXPECT_NE(K.Fn, nullptr);
}

TEST(FixedProviderTest, NeverSpecializes) {
  FixedProvider P(blisKernel(), "blis");
  EXPECT_FALSE(P.edge(4, 4).has_value());
  EXPECT_EQ(P.main().MR, 8);
  EXPECT_STREQ(P.name(), "blis");
}
