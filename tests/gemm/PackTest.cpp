//===- PackTest.cpp - Packing routines ------------------------------------===//

#include "gemm/Pack.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <iterator>
#include <random>
#include <sys/mman.h>
#include <unistd.h>
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

/// Every build of the element loops this host can run: the portable one
/// always, the AVX-512 one when the CPU has it.
std::vector<std::pair<const char *, const detail::ElementLoops *>>
loopBuilds() {
  std::vector<std::pair<const char *, const detail::ElementLoops *>> Out = {
      {"portable", &detail::portableLoops()}};
  if (const detail::ElementLoops *V = detail::avx512Loops())
    Out.push_back({"avx512", V});
  return Out;
}

TEST(PackTest, PackPanelsMatchesElementLoopsRandomized) {
  // Differential: both builds of packPanels (width-dispatched, copy or
  // transpose order, masked edge panels) against the element loops, bit
  // for bit, including the 16 floats past the panels (nothing may be
  // written there).
  constexpr int64_t Widths[] = {4, 6, 8, 12, 16, 24, 5};
  constexpr float Alphas[] = {1.0f, -0.0f, 2.5f};
  constexpr DType Types[] = {DType::F32, DType::BF16, DType::F16};
  constexpr int64_t Guard = 16;
  std::mt19937 Rng(20240917);
  int Paths[3] = {}, TransposeTail[16] = {}, Edges[2] = {}, Typed[3] = {};
  for (int Case = 0; Case < 6000; ++Case) {
    const DType Ty = Types[Rng() % 3];
    const int64_t W = Widths[Rng() % std::size(Widths)];
    const int64_t Len = 1 + Rng() % (3 * W + 2);
    const int64_t Kc = 1 + Rng() % 70;
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
    std::vector<uint32_t> Want(Out, 0xdeadbeefu);
    packRef(Ty, Src, WS, KS, Len, Kc, W, Alpha, Mode,
            reinterpret_cast<float *>(Want.data()));
    for (auto [Name, Loops] : loopBuilds()) {
      std::vector<uint32_t> Got(Out, 0xdeadbeefu);
      Loops->Pack(Ty, Src, WS, KS, Len, Kc, W, Alpha, Mode,
                  reinterpret_cast<float *>(Got.data()));
      const auto Diff =
          std::mismatch(Got.begin(), Got.end(), Want.begin()).first;
      ASSERT_TRUE(Diff == Got.end())
          << Name << " case " << Case << ": " << dtypeName(Ty) << " W=" << W
          << " Len=" << Len << " Kc=" << Kc << " WS=" << WS << " KS=" << KS
          << " alpha=" << Alpha << " tight=" << (Mode == EdgePack::Tight)
          << ": first difference at float " << (Diff - Got.begin());
    }

    const PanelPath Path = panelPath(W, WS, KS);
    if (Len >= W) {
      ++Paths[static_cast<int>(Path)];
      if (Path == PanelPath::Transpose)
        ++TransposeTail[Kc % 16];
    }
    if (Len % W)
      ++Edges[Mode == EdgePack::Tight];
    ++Typed[static_cast<int>(Ty)];
  }
  // Every branch of the dispatch was drawn, and every kc tail of a
  // 16-lane transpose.
  EXPECT_GT(Paths[static_cast<int>(PanelPath::Copy)], 0);
  EXPECT_GT(Paths[static_cast<int>(PanelPath::Transpose)], 0);
  EXPECT_GT(Paths[static_cast<int>(PanelPath::Runtime)], 0);
  for (int R = 0; R < 16; ++R)
    EXPECT_GT(TransposeTail[R], 0) << "Kc mod 16 == " << R;
  EXPECT_GT(Edges[0], 0);
  EXPECT_GT(Edges[1], 0);
  for (int T = 0; T < 3; ++T)
    EXPECT_GT(Typed[T], 0);
}

TEST(PackTest, PanelPathFollowsTheUnitStride) {
  // The same rule for every dtype: f16 batches like f32 and bf16.
  for (int64_t W : {4, 6, 8, 12, 16, 24}) {
    EXPECT_EQ(panelPath(W, 1, 40), PanelPath::Copy);
    EXPECT_EQ(panelPath(W, 40, 1), PanelPath::Transpose);
    EXPECT_EQ(panelPath(W, 1, 1), PanelPath::Copy);
    EXPECT_EQ(panelPath(W, 3, 40), PanelPath::Runtime);
  }
  for (int64_t W : {1, 5, 7, 32}) {
    EXPECT_EQ(panelPath(W, 1, 40), PanelPath::Runtime);
    EXPECT_EQ(panelPath(W, 40, 1), PanelPath::Runtime);
  }
}

TEST(PackTest, HostLoopsAreTheWidestUsableBuild) {
  const detail::ElementLoops *V = detail::avx512Loops();
  EXPECT_EQ(&detail::hostLoops(), V ? V : &detail::portableLoops());
}

namespace {

/// C + S as the scalar x86 add with C as its first operand computes it:
/// when C is NaN the result is C quieted, whatever S is.
float addToC(float C, float S) {
  if (C != C)
    return std::bit_cast<float>(std::bit_cast<uint32_t>(C) | 0x400000u);
  return C + S;
}

/// The C update addTile replaced, kept as the oracle.
void addTileRef(DType Ty, const float *Scratch, int64_t Mr, int64_t MrEff,
                int64_t NrEff, void *C, int64_t Ldc) {
  for (int64_t J = 0; J < NrEff; ++J)
    for (int64_t I = 0; I < MrEff; ++I) {
      const float S = Scratch[J * Mr + I];
      if (Ty == DType::F32) {
        float &F = static_cast<float *>(C)[I + J * Ldc];
        F = addToC(F, S);
        continue;
      }
      uint16_t &H = static_cast<uint16_t *>(C)[I + J * Ldc];
      H = Ty == DType::BF16 ? f32ToBf16(addToC(bf16ToF32(H), S))
                            : f32ToF16(addToC(f16ToF32(H), S));
    }
}

} // namespace

TEST(PackTest, AddTileMatchesElementLoopRandomized) {
  // Both builds of the tile write-back (f32 accumulate, bf16 and f16
  // round-back) against the element loop, bit for bit, over every
  // MrEff x NrEff window of the planner's tile heights, C and scratch laced
  // with NaN, +-Inf, -0 and subnormals, often both NaN on one element
  // (C's NaN must win). C has slack rows below the window and a guard
  // after the last column: neither may change.
  constexpr int64_t Heights[] = {4, 6, 8, 12, 16, 24, 32};
  constexpr DType Types[] = {DType::F32, DType::BF16, DType::F16};
  std::mt19937 Rng(20261019);
  int Drawn[3] = {};
  for (DType Ty : Types)
    for (int64_t Mr : Heights)
      for (int64_t MrEff = 1; MrEff <= Mr; ++MrEff)
        for (int64_t NrEff = 1; NrEff <= 8; ++NrEff) {
          const int64_t Ldc = MrEff + Rng() % 3, Guard = 16;
          const int64_t CLen = Ldc * NrEff + Guard;
          const unsigned Bytes = Ty == DType::F32 ? 4 : 2;
          std::vector<float> Scratch(Mr * 8);
          std::vector<uint32_t> CBits(CLen);
          for (int64_t X = 0; X < CLen; ++X)
            CBits[X] = Ty == DType::F32 ? drawF32Bits(Rng)
                                        : drawHalfBits(Ty, Rng);
          for (float &S : Scratch)
            S = std::bit_cast<float>(drawF32Bits(Rng));
          std::vector<uint8_t> Want(CLen * Bytes);
          for (int64_t X = 0; X < CLen; ++X)
            std::memcpy(&Want[X * Bytes], &CBits[X], Bytes); // little end
          const std::vector<uint8_t> C0 = Want;
          addTileRef(Ty, Scratch.data(), Mr, MrEff, NrEff, Want.data(), Ldc);
          for (auto [Name, Loops] : loopBuilds()) {
            std::vector<uint8_t> Got = C0;
            Loops->AddTile(Ty, Scratch.data(), Mr, MrEff, NrEff, Got.data(),
                           Ldc);
            ASSERT_EQ(Got, Want)
                << Name << " " << dtypeName(Ty) << " Mr=" << Mr
                << " MrEff=" << MrEff << " NrEff=" << NrEff << " Ldc=" << Ldc;
          }
          ++Drawn[Ty == DType::F32 ? 0 : Ty == DType::BF16 ? 1 : 2];
        }
  for (int T = 0; T < 3; ++T)
    EXPECT_GT(Drawn[T], 0);
}

TEST(PackTest, WidenMatchesScalarDecodeOnEveryHalf) {
  // All 65536 encodings, signaling NaNs included: the vector decode keeps
  // them signaling, as f16ToF32 and bf16ToF32 do.
  std::vector<uint16_t> All(65536);
  for (uint32_t H = 0; H < 65536; ++H)
    All[H] = static_cast<uint16_t>(H);
  for (DType Ty : {DType::F16, DType::BF16}) {
    std::vector<uint32_t> Want(65536);
    for (uint32_t H = 0; H < 65536; ++H)
      Want[H] = std::bit_cast<uint32_t>(
          Ty == DType::F16 ? f16ToF32(All[H]) : bf16ToF32(All[H]));
    for (auto [Name, Loops] : loopBuilds()) {
      std::vector<uint32_t> Got(65536 + 16, 0xdeadbeefu);
      // An odd count, so the last vector is partial.
      Loops->Widen(Ty, All.data(), 65535,
                   reinterpret_cast<float *>(Got.data()));
      for (uint32_t H = 0; H < 65535; ++H)
        ASSERT_EQ(Got[H], Want[H])
            << Name << " " << dtypeName(Ty) << " input 0x" << std::hex << H;
      EXPECT_EQ(Got[65535], 0xdeadbeefu) << Name;
    }
  }
}

TEST(PackTest, NarrowMatchesScalarEncode) {
  // 2^24 inputs spread over every exponent (the top 24 bits, a low byte
  // that varies with them, so rounding ties and near-ties occur), plus the
  // special classes: signed zeros, infinities, quiet and signaling NaNs
  // with high and low payloads, f32 subnormals, and the f16 overflow and
  // subnormal rounding boundaries.
  std::vector<uint32_t> In;
  In.reserve((size_t{1} << 24) + 64);
  for (uint32_t I = 0; I < (1u << 24); ++I)
    In.push_back(I << 8 | ((I * 37u) & 0xffu));
  const uint32_t Special[] = {
      0x00000000u, 0x80000000u, 0x7f800000u, 0xff800000u, 0x7fc00000u,
      0xffc00001u, 0x7f800001u, 0xff800001u, 0x7fa00000u, 0x7f801fffu,
      0x7fbfe000u, 0x00000001u, 0x807fffffu, 0x00400000u,
      std::bit_cast<uint32_t>(65504.0f), std::bit_cast<uint32_t>(65519.99f),
      std::bit_cast<uint32_t>(65520.0f), std::bit_cast<uint32_t>(-65520.0f),
      0x33800000u /* 2^-24 */, 0x33000000u /* 2^-25: tie to 0 */,
      0x33000001u, 0x33c00000u /* 3 * 2^-25: tie to even */,
      0x387fe000u /* largest f16 subnormal */, 0x38800000u, 0x3f801000u,
      0x3f803000u, 0x3f808000u, 0x3f818000u};
  for (uint32_t S : Special)
    In.push_back(S);
  const int64_t N = static_cast<int64_t>(In.size());
  for (DType Ty : {DType::F16, DType::BF16}) {
    std::vector<uint16_t> Want(N);
    for (int64_t I = 0; I < N; ++I) {
      const float F = std::bit_cast<float>(In[I]);
      Want[I] = Ty == DType::F16 ? f32ToF16(F) : f32ToBf16(F);
    }
    for (auto [Name, Loops] : loopBuilds()) {
      std::vector<uint16_t> Got(N + 16, 0xbeef);
      Loops->Narrow(Ty, reinterpret_cast<const float *>(In.data()), N,
                    Got.data());
      for (int64_t I = 0; I < N; ++I)
        ASSERT_EQ(Got[I], Want[I]) << Name << " " << dtypeName(Ty)
                                   << " input 0x" << std::hex << In[I];
      EXPECT_EQ(Got[N], 0xbeef) << Name;
    }
  }
}

namespace {

/// 64 KiB followed by an inaccessible page: an operand placed to end at
/// the boundary faults on any read past its last element, including a
/// masked vector load whose mask is one lane too wide.
class GuardedRegion {
public:
  GuardedRegion() {
    const size_t Page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    Size = (size_t{64} << 10) / Page * Page;
    Base = static_cast<unsigned char *>(
        mmap(nullptr, Size + Page, PROT_READ | PROT_WRITE,
             MAP_PRIVATE | MAP_ANONYMOUS, -1, 0));
    EXPECT_NE(Base, MAP_FAILED);
    EXPECT_EQ(mprotect(Base + Size, Page, PROT_NONE), 0);
    Mapped = Size + Page;
  }
  ~GuardedRegion() { munmap(Base, Mapped); }
  GuardedRegion(const GuardedRegion &) = delete;
  GuardedRegion &operator=(const GuardedRegion &) = delete;

  /// Room for \p Bytes ending exactly at the inaccessible page.
  void *endingAtGuard(size_t Bytes) const { return Base + Size - Bytes; }
  size_t size() const { return Size; }

private:
  unsigned char *Base = nullptr;
  size_t Size = 0, Mapped = 0;
};

} // namespace

TEST(PackTest, VectorLoopsReadNothingPastTheOperand) {
  // Every panel width and both unit-stride orientations, each depth tail,
  // with the operand's last element just before an inaccessible page; and
  // every C window likewise. A read past the operand would fault.
  GuardedRegion Guard;
  for (auto [Name, Loops] : loopBuilds())
    for (DType Ty : {DType::F32, DType::BF16, DType::F16}) {
      const size_t E = Ty == DType::F32 ? 4 : 2;
      for (int64_t W : {4, 6, 8, 12, 16, 24})
        for (int64_t Kc : {1, 15, 17, 40})
          for (bool UnitW : {true, false}) {
            const int64_t Len = 2 * W + 3;
            const int64_t WS = UnitW ? 1 : Kc, KS = UnitW ? Len : 1;
            const size_t Bytes = ((Len - 1) * WS + (Kc - 1) * KS + 1) * E;
            ASSERT_LE(Bytes, Guard.size());
            void *Src = Guard.endingAtGuard(Bytes);
            std::memset(Src, 0, Bytes);
            std::vector<float> Buf((Len + W - 1) / W * Kc * W);
            for (EdgePack Mode : {EdgePack::Tight, EdgePack::ZeroPad})
              Loops->Pack(Ty, Src, WS, KS, Len, Kc, W, 1.0f, Mode,
                          Buf.data());
          }
      const std::vector<float> Scratch(24 * 8, 1.0f);
      for (int64_t MrEff = 1; MrEff <= 24; ++MrEff) {
        const size_t Bytes = (MrEff * 3 + MrEff) * E; // Ldc == MrEff, 4 cols
        void *C = Guard.endingAtGuard(Bytes);
        std::memset(C, 0, Bytes);
        Loops->AddTile(Ty, Scratch.data(), 24, MrEff, 4, C, MrEff);
      }
      SUCCEED() << Name;
    }
}
