//===- ConvTest.cpp - IM2ROW convolution lowering --------------------------===//

#include "dnn/Conv.h"

#include "benchutil/Bench.h"
#include "exo/support/Str.h"
#include "gemm/ExoProvider.h"
#include "gemm/Kernels.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <random>
#include <vector>

using namespace dnn;

namespace {

class ConvTest : public testing::TestWithParam<ConvParams> {};

std::string convName(const testing::TestParamInfo<ConvParams> &Info) {
  const ConvParams &P = Info.param;
  return exo::strf("c%lldto%lld_%lldx%lld_k%lldx%lld_s%lld_p%lld",
                   static_cast<long long>(P.InC),
                   static_cast<long long>(P.OutC),
                   static_cast<long long>(P.InH),
                   static_cast<long long>(P.InW),
                   static_cast<long long>(P.Kh),
                   static_cast<long long>(P.Kw),
                   static_cast<long long>(P.Stride),
                   static_cast<long long>(P.Pad));
}

/// The element formula im2row must reproduce bitwise: one division and
/// one bounds test per element of A.
void im2rowRef(const ConvParams &P, const float *In, float *A) {
  const int64_t M = P.gemmM();
  const int64_t OutW = P.outW();
  for (int64_t Kh = 0; Kh < P.Kh; ++Kh) {
    for (int64_t Kw = 0; Kw < P.Kw; ++Kw) {
      for (int64_t C = 0; C < P.InC; ++C) {
        int64_t Col = (Kh * P.Kw + Kw) * P.InC + C;
        float *ACol = A + Col * M;
        for (int64_t Row = 0; Row < M; ++Row) {
          int64_t Oh = Row / OutW, Ow = Row % OutW;
          int64_t Ih = Oh * P.Stride - P.Pad + Kh;
          int64_t Iw = Ow * P.Stride - P.Pad + Kw;
          bool Inside = Ih >= 0 && Ih < P.InH && Iw >= 0 && Iw < P.InW;
          ACol[Row] = Inside ? In[(Ih * P.InW + Iw) * P.InC + C] : 0.0f;
        }
      }
    }
  }
}

/// True when some kernel column reads only padding for every output
/// column (Pad >= Kw on a tiny image, say).
bool hasPaddingOnlyTap(const ConvParams &P) {
  for (int64_t Kw = 0; Kw < P.Kw; ++Kw) {
    bool Reads = false;
    for (int64_t Ow = 0; Ow < P.outW(); ++Ow) {
      int64_t Iw = Ow * P.Stride - P.Pad + Kw;
      Reads |= Iw >= 0 && Iw < P.InW;
    }
    if (!Reads)
      return true;
  }
  return false;
}

} // namespace

TEST_P(ConvTest, GemmLoweringMatchesDirectConvolution) {
  const ConvParams &P = GetParam();
  std::vector<float> In(P.InH * P.InW * P.InC);
  std::vector<float> W(P.Kh * P.Kw * P.InC * P.OutC);
  benchutil::fillRandom(In.data(), In.size(), 5);
  benchutil::fillRandom(W.data(), W.size(), 6);

  std::vector<float> Direct(P.gemmM() * P.OutC), ViaGemm(Direct.size());
  convDirect(P, In.data(), W.data(), Direct.data());

  gemm::EngineConfig Cfg;
  Cfg.Series = gemm::EngineSeries::Custom;
  Cfg.Provider = std::make_shared<gemm::ExoProvider>(8, 12);
  gemm::Engine Engine(Cfg);
  exo::Error Err = convViaGemm(P, Engine, In.data(), W.data(),
                               ViaGemm.data());
  ASSERT_FALSE(Err) << Err.message();
  float Tol = 1e-4f * static_cast<float>(P.gemmK());
  for (size_t I = 0; I != Direct.size(); ++I)
    ASSERT_NEAR(ViaGemm[I], Direct[I], Tol) << I;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvTest,
    testing::Values(
        // 1x1 convolution (a pure GEMM).
        ConvParams{16, 32, 14, 14, 1, 1, 1, 0},
        // 3x3 stride 1, same padding (VGG-style).
        ConvParams{8, 16, 12, 12, 3, 3, 1, 1},
        // 7x7 stride 2 pad 3 (the ResNet50 stem, scaled down).
        ConvParams{3, 16, 28, 28, 7, 7, 2, 3},
        // 3x3 stride 2 (downsampling).
        ConvParams{8, 8, 15, 15, 3, 3, 2, 1},
        // Non-square image, asymmetric kernel.
        ConvParams{4, 12, 9, 17, 1, 3, 1, 1},
        // Single channel in and out.
        ConvParams{1, 1, 8, 8, 3, 3, 1, 0}),
    convName);

TEST(ConvShapeTest, GemmDimsMatchTableEntries) {
  // ResNet50 stem at full size reproduces Table I layer 1.
  ConvParams Stem{3, 64, 224, 224, 7, 7, 2, 3};
  EXPECT_EQ(Stem.gemmM(), resnet50Layers()[0].M);
  EXPECT_EQ(Stem.gemmN(), resnet50Layers()[0].N);
  EXPECT_EQ(Stem.gemmK(), resnet50Layers()[0].K);
  // VGG16 conv1_1 reproduces Table II layer 1.
  ConvParams Vgg{3, 64, 224, 224, 3, 3, 1, 1};
  EXPECT_EQ(Vgg.gemmM(), vgg16Layers()[0].M);
  EXPECT_EQ(Vgg.gemmK(), vgg16Layers()[0].K);
}

TEST(Im2RowTest, PaddingProducesZeroRows) {
  // A 1x1 image with a 3x3 same-padded kernel: the patch is mostly pad.
  ConvParams P{1, 1, 1, 1, 3, 3, 1, 1};
  std::vector<float> In{42.0f};
  std::vector<float> A(P.gemmM() * P.gemmK(), -1.0f);
  im2row(P, In.data(), A.data());
  ASSERT_EQ(P.gemmM(), 1);
  ASSERT_EQ(P.gemmK(), 9);
  for (int64_t Col = 0; Col != 9; ++Col)
    EXPECT_EQ(A[Col], Col == 4 ? 42.0f : 0.0f) << Col;
}

TEST(Im2RowTest, StrideSkipsPixels) {
  // 4x4 single-channel image, 1x1 kernel, stride 2: picks 4 corners of the
  // even grid.
  ConvParams P{1, 1, 4, 4, 1, 1, 2, 0};
  std::vector<float> In(16);
  for (int I = 0; I != 16; ++I)
    In[I] = static_cast<float>(I);
  std::vector<float> A(P.gemmM() * P.gemmK());
  im2row(P, In.data(), A.data());
  ASSERT_EQ(P.gemmM(), 4);
  EXPECT_EQ(A[0], 0.0f);
  EXPECT_EQ(A[1], 2.0f);
  EXPECT_EQ(A[2], 8.0f);
  EXPECT_EQ(A[3], 10.0f);
}

TEST(Im2RowTest, MatchesElementFormulaOnRandomConvs) {
  // Seeded draws over every parameter, including channel counts that are
  // not multiples of the 16-channel block and padding wider than the
  // kernel. A guard value fills A and 8 floats past it: im2row must write
  // exactly what the element formula writes, and nothing beyond M*K.
  constexpr float Guard = -1234.5f;
  constexpr size_t Slack = 8;
  std::mt19937_64 Rng(13);
  auto draw = [&](int64_t Lo, int64_t Hi) {
    return std::uniform_int_distribution<int64_t>(Lo, Hi)(Rng);
  };
  int Checked = 0, PaddingOnly = 0, ChannelTail = 0;
  while (Checked < 5000) {
    ConvParams P;
    P.InC = draw(1, 40);
    P.OutC = 1;
    P.InH = draw(1, 20);
    P.InW = draw(1, 20);
    P.Kh = draw(1, 7);
    P.Kw = draw(1, 7);
    P.Stride = draw(1, 4);
    P.Pad = draw(0, 6);
    if (P.outH() < 1 || P.outW() < 1)
      continue; // no output pixels: im2row writes nothing
    ++Checked;
    PaddingOnly += hasPaddingOnlyTap(P);
    ChannelTail += P.InC > 16 && P.InC % 16 != 0;

    // Distinct values, so a tap read from the wrong pixel or channel shows.
    std::vector<float> In(P.InH * P.InW * P.InC);
    for (size_t I = 0; I != In.size(); ++I)
      In[I] = static_cast<float>(I + 1);
    const size_t Elems = static_cast<size_t>(P.gemmM() * P.gemmK());
    std::vector<float> Want(Elems + Slack, Guard), Got(Want);
    im2rowRef(P, In.data(), Want.data());
    im2row(P, In.data(), Got.data());
    ASSERT_EQ(
        std::memcmp(Got.data(), Want.data(), Got.size() * sizeof(float)), 0)
        << "InC=" << P.InC << " In=" << P.InH << "x" << P.InW
        << " K=" << P.Kh << "x" << P.Kw << " Stride=" << P.Stride
        << " Pad=" << P.Pad;
  }
  // The draws must reach the cases fixed shapes miss.
  EXPECT_GT(PaddingOnly, 100);
  EXPECT_GT(ChannelTail, 100);
}
