//===- PackTest.cpp - Packing routines ------------------------------------===//

#include "gemm/Pack.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <iterator>
#include <random>
#include <vector>

using namespace gemm;

namespace {

/// Column-major matrix filled with value(r, c) = 100*r + c.
std::vector<float> colMajor(int64_t Rows, int64_t Cols, int64_t Ld) {
  std::vector<float> M(Ld * Cols);
  for (int64_t C = 0; C < Cols; ++C)
    for (int64_t R = 0; R < Rows; ++R)
      M[R + C * Ld] = static_cast<float>(100 * R + C);
  return M;
}

} // namespace

TEST(PackTest, PackAFullPanels) {
  const int64_t Mc = 8, Kc = 3, Mr = 4, Lda = 10;
  std::vector<float> A = colMajor(Mc, Kc, Lda);
  std::vector<float> Buf(2 * Kc * Mr, -1.0f);
  packA(A.data(), Lda, Mc, Kc, Mr, 1.0f, EdgePack::ZeroPad, Buf.data());

  // Panel 0 holds rows 0..3; element (k, i) at [k*Mr + i].
  for (int64_t K = 0; K < Kc; ++K)
    for (int64_t I = 0; I < Mr; ++I) {
      EXPECT_EQ(Buf[K * Mr + I], 100.0f * I + K);
      EXPECT_EQ(Buf[Kc * Mr + K * Mr + I], 100.0f * (I + 4) + K);
    }
}

TEST(PackTest, PackAAppliesAlpha) {
  const int64_t Mc = 4, Kc = 2, Mr = 4, Lda = 4;
  std::vector<float> A = colMajor(Mc, Kc, Lda);
  std::vector<float> Buf(Kc * Mr);
  packA(A.data(), Lda, Mc, Kc, Mr, 2.0f, EdgePack::ZeroPad, Buf.data());
  EXPECT_EQ(Buf[0], 0.0f);
  EXPECT_EQ(Buf[1], 200.0f);
  EXPECT_EQ(Buf[Mr + 1], 2.0f * 101.0f);
}

TEST(PackTest, PackAEdgeZeroPad) {
  // Mc = 6 with Mr = 4: second panel has 2 valid rows + 2 zero rows.
  const int64_t Mc = 6, Kc = 2, Mr = 4, Lda = 6;
  std::vector<float> A = colMajor(Mc, Kc, Lda);
  std::vector<float> Buf(2 * Kc * Mr, -1.0f);
  packA(A.data(), Lda, Mc, Kc, Mr, 1.0f, EdgePack::ZeroPad, Buf.data());
  float *Panel1 = Buf.data() + Kc * Mr;
  for (int64_t K = 0; K < Kc; ++K) {
    EXPECT_EQ(Panel1[K * Mr + 0], 100.0f * 4 + K);
    EXPECT_EQ(Panel1[K * Mr + 1], 100.0f * 5 + K);
    EXPECT_EQ(Panel1[K * Mr + 2], 0.0f);
    EXPECT_EQ(Panel1[K * Mr + 3], 0.0f);
  }
}

TEST(PackTest, PackAEdgeTight) {
  // Tight mode lays the short panel out as Kc x MrEff.
  const int64_t Mc = 6, Kc = 3, Mr = 4, Lda = 6;
  std::vector<float> A = colMajor(Mc, Kc, Lda);
  std::vector<float> Buf(2 * Kc * Mr, -1.0f);
  packA(A.data(), Lda, Mc, Kc, Mr, 1.0f, EdgePack::Tight, Buf.data());
  float *Panel1 = Buf.data() + Kc * Mr;
  for (int64_t K = 0; K < Kc; ++K)
    for (int64_t I = 0; I < 2; ++I)
      EXPECT_EQ(Panel1[K * 2 + I], 100.0f * (4 + I) + K);
}

TEST(PackTest, PackBFullAndEdge) {
  // B is Kc x Nc column-major (ldb >= Kc).
  const int64_t Kc = 3, Nc = 5, Nr = 4, Ldb = 8;
  std::vector<float> B = colMajor(Kc, Nc, Ldb);
  std::vector<float> Buf(2 * Kc * Nr, -1.0f);
  packB(B.data(), Ldb, Kc, Nc, Nr, 1.0f, EdgePack::ZeroPad, Buf.data());
  // Panel 0: element (k, j) = B[k + j*Ldb] = 100k + j.
  for (int64_t K = 0; K < Kc; ++K)
    for (int64_t J = 0; J < Nr; ++J)
      EXPECT_EQ(Buf[K * Nr + J], 100.0f * K + J);
  // Panel 1 zero-padded beyond column 4.
  float *Panel1 = Buf.data() + Kc * Nr;
  for (int64_t K = 0; K < Kc; ++K) {
    EXPECT_EQ(Panel1[K * Nr + 0], 100.0f * K + 4);
    EXPECT_EQ(Panel1[K * Nr + 1], 0.0f);
  }

  packB(B.data(), Ldb, Kc, Nc, Nr, 1.0f, EdgePack::Tight, Buf.data());
  Panel1 = Buf.data() + Kc * Nr;
  for (int64_t K = 0; K < Kc; ++K)
    EXPECT_EQ(Panel1[K * 1 + 0], 100.0f * K + 4);
}

namespace {

/// The element loops packPanels replaced, kept as the oracle (element
/// (w, k) at Src[w*WS + k*KS]; Tight edge panels kc x w_eff, ZeroPad edge
/// panels kc x W with zeros past w_eff).
void packRef(DType Ty, const void *Src, int64_t WS, int64_t KS, int64_t Len,
             int64_t Kc, int64_t W, float Alpha, EdgePack Mode, float *Buf) {
  auto Load = [&](int64_t Ix) {
    if (Ty == DType::F32)
      return static_cast<const float *>(Src)[Ix];
    const uint16_t H = static_cast<const uint16_t *>(Src)[Ix];
    return Ty == DType::BF16 ? bf16ToF32(H) : f16ToF32(H);
  };
  for (int64_t P = 0, W0 = 0; W0 < Len; ++P, W0 += W) {
    const int64_t WEff = std::min(W, Len - W0);
    float *Panel = Buf + P * Kc * W;
    if (Mode == EdgePack::Tight || WEff == W) {
      for (int64_t K = 0; K < Kc; ++K)
        for (int64_t I = 0; I < WEff; ++I)
          Panel[K * WEff + I] = Alpha * Load((W0 + I) * WS + K * KS);
      continue;
    }
    for (int64_t K = 0; K < Kc; ++K) {
      for (int64_t I = 0; I < WEff; ++I)
        Panel[K * W + I] = Alpha * Load((W0 + I) * WS + K * KS);
      for (int64_t I = WEff; I < W; ++I)
        Panel[K * W + I] = 0.0f;
    }
  }
}

/// A source element: mostly ordinary values, often one of the encodings
/// packing must carry bit for bit (sNaN, qNaN, -0, +-Inf, subnormals).
uint32_t drawF32Bits(std::mt19937 &Rng) {
  static const uint32_t Special[] = {
      0x7f800001u, 0xff812345u, 0x7fc00000u, 0x80000000u, 0x00000000u,
      0x7f800000u, 0xff800000u, 0x00000001u, 0x807fffffu, 0x00400000u};
  if (Rng() % 4 == 0)
    return Special[Rng() % std::size(Special)];
  return std::bit_cast<uint32_t>(
      std::uniform_real_distribution<float>(-4.0f, 4.0f)(Rng));
}

uint16_t drawHalfBits(DType Ty, std::mt19937 &Rng) {
  // f16: sNaN, qNaN, -0, +-Inf, subnormals; bf16 the same classes.
  static const uint16_t F16Special[] = {0x7c01, 0xfd00, 0x7e00, 0x8000,
                                        0x7c00, 0xfc00, 0x0001, 0x83ff};
  static const uint16_t Bf16Special[] = {0x7f81, 0xff85, 0x7fc0, 0x8000,
                                         0x7f80, 0xff80, 0x0001, 0x807f};
  const uint16_t *Special = Ty == DType::F16 ? F16Special : Bf16Special;
  if (Rng() % 4 == 0)
    return Special[Rng() % 8];
  return static_cast<uint16_t>(Rng());
}

} // namespace

TEST(PackTest, PackPanelsMatchesElementLoopsRandomized) {
  // Differential: packPanels (width-dispatched, copy or transpose order)
  // against the element loops, bit for bit, including the 16 floats past
  // the panels (nothing may be written there).
  constexpr int64_t Widths[] = {4, 6, 8, 12, 16, 24, 5};
  constexpr float Alphas[] = {1.0f, -0.0f, 2.5f};
  constexpr DType Types[] = {DType::F32, DType::BF16, DType::F16};
  constexpr int64_t Guard = 16;
  std::mt19937 Rng(20240917);
  int Paths[3] = {}, TransposeTail[4] = {}, Edges[2] = {}, Typed[3] = {};
  for (int Case = 0; Case < 6000; ++Case) {
    const DType Ty = Types[Rng() % 3];
    const int64_t W = Widths[Rng() % std::size(Widths)];
    const int64_t Len = 1 + Rng() % (3 * W + 2);
    const int64_t Kc = 1 + Rng() % 37;
    const float Alpha = Alphas[Rng() % 3];
    const EdgePack Mode = Rng() % 2 ? EdgePack::Tight : EdgePack::ZeroPad;
    // Orientation: unit panel axis (column-major A), unit depth axis
    // (column-major B), or neither; leading dimensions with slack.
    const int64_t Slack = Rng() % 3;
    int64_t WS = 1, KS = 1;
    switch (Rng() % 5) {
    case 0:
    case 1:
      KS = Len + Slack;
      break;
    case 2:
    case 3:
      WS = Kc + Slack;
      break;
    default:
      WS = 2 + Slack;
      KS = WS * Len + 1;
      break;
    }
    const int64_t SrcLen = (Len - 1) * WS + (Kc - 1) * KS + 1;
    std::vector<float> SrcF;
    std::vector<uint16_t> SrcH;
    const void *Src;
    if (Ty == DType::F32) {
      SrcF.resize(SrcLen);
      for (float &X : SrcF)
        X = std::bit_cast<float>(drawF32Bits(Rng));
      Src = SrcF.data();
    } else {
      SrcH.resize(SrcLen);
      for (uint16_t &X : SrcH)
        X = drawHalfBits(Ty, Rng);
      Src = SrcH.data();
    }
    const int64_t Out = (Len + W - 1) / W * Kc * W + Guard;
    std::vector<uint32_t> Got(Out, 0xdeadbeefu), Want(Out, 0xdeadbeefu);
    packPanels(Ty, Src, WS, KS, Len, Kc, W, Alpha, Mode,
               reinterpret_cast<float *>(Got.data()));
    packRef(Ty, Src, WS, KS, Len, Kc, W, Alpha, Mode,
            reinterpret_cast<float *>(Want.data()));
    ASSERT_EQ(0, std::memcmp(Got.data(), Want.data(), Out * 4))
        << "case " << Case << ": " << dtypeName(Ty) << " W=" << W
        << " Len=" << Len << " Kc=" << Kc << " WS=" << WS << " KS=" << KS
        << " alpha=" << Alpha << " tight=" << (Mode == EdgePack::Tight);

    const PanelPath Path = panelPath(Ty, W, WS, KS);
    if (Len >= W) {
      ++Paths[static_cast<int>(Path)];
      if (Path == PanelPath::Transpose)
        ++TransposeTail[Kc % 4];
    }
    if (Len % W)
      ++Edges[Mode == EdgePack::Tight];
    ++Typed[static_cast<int>(Ty)];
  }
  // Every branch of the dispatch was drawn.
  EXPECT_GT(Paths[static_cast<int>(PanelPath::Copy)], 0);
  EXPECT_GT(Paths[static_cast<int>(PanelPath::Transpose)], 0);
  EXPECT_GT(Paths[static_cast<int>(PanelPath::Runtime)], 0);
  for (int R = 0; R < 4; ++R)
    EXPECT_GT(TransposeTail[R], 0) << "Kc mod 4 == " << R;
  EXPECT_GT(Edges[0], 0);
  EXPECT_GT(Edges[1], 0);
  for (int T = 0; T < 3; ++T)
    EXPECT_GT(Typed[T], 0);
}

TEST(PackTest, PanelPathFollowsTheUnitStride) {
  for (DType Ty : {DType::F32, DType::BF16}) {
    for (int64_t W : {4, 6, 8, 12, 16, 24}) {
      EXPECT_EQ(panelPath(Ty, W, 1, 40), PanelPath::Copy);
      EXPECT_EQ(panelPath(Ty, W, 40, 1), PanelPath::Transpose);
      EXPECT_EQ(panelPath(Ty, W, 1, 1), PanelPath::Copy);
      EXPECT_EQ(panelPath(Ty, W, 3, 40), PanelPath::Runtime);
    }
    for (int64_t W : {1, 5, 7, 32}) {
      EXPECT_EQ(panelPath(Ty, W, 1, 40), PanelPath::Runtime);
      EXPECT_EQ(panelPath(Ty, W, 40, 1), PanelPath::Runtime);
    }
  }
  // The f16 decode is a call per element: nothing to batch at any width.
  for (int64_t W : {4, 12})
    for (auto [WS, KS] : {std::pair<int64_t, int64_t>{1, 40}, {40, 1}})
      EXPECT_EQ(panelPath(DType::F16, W, WS, KS), PanelPath::Runtime);
}
