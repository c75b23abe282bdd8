//===- Pack.cpp -----------------------------------------------------------===//

#include "gemm/Pack.h"

#include <algorithm>
#include <cstring>

using namespace gemm;

namespace {

/// Four f32 lanes: the SSE/Neon register every target has, so the
/// transposes below need no target flags.
using V4 = float __attribute__((vector_size(16)));

/// Panel element loaders: one() decodes a storage element to f32, four()
/// decodes four consecutive ones into a vector.
struct LoadF32 {
  static constexpr DType Ty = DType::F32;
  using T = float;
  static float one(float X) { return X; }
  static V4 four(const float *P) {
    V4 V;
    std::memcpy(&V, P, sizeof(V));
    return V;
  }
};

struct LoadBF16 {
  static constexpr DType Ty = DType::BF16;
  using T = uint16_t;
  static float one(uint16_t H) { return bf16ToF32(H); }
  static V4 four(const uint16_t *P) {
    using H4 = uint16_t __attribute__((vector_size(8)));
    using U4 = uint32_t __attribute__((vector_size(16)));
    H4 H;
    std::memcpy(&H, P, sizeof(H));
    const U4 U = __builtin_convertvector(H, U4) << 16;
    V4 V;
    std::memcpy(&V, &U, sizeof(V));
    return V;
  }
};

/// No four(): the software decode is an out-of-line call per element, and
/// batching four calls only adds spills, so f16 always takes the
/// runtime-width loop (panelPath).
struct LoadF16 {
  static constexpr DType Ty = DType::F16;
  using T = uint16_t;
  static float one(uint16_t H) { return f16ToF32(H); }
};

/// Any panel at a runtime width: \p WEff valid rows of a W-wide slot, laid
/// out kc x w_eff when Tight, else kc x W with zeros past w_eff.
template <class L>
void panelRuntime(const typename L::T *Src, int64_t WS, int64_t KS,
                  int64_t WEff, int64_t Kc, int64_t W, float Alpha,
                  EdgePack Mode, float *Panel) {
  const int64_t Stride = Mode == EdgePack::Tight ? WEff : W;
  for (int64_t K = 0; K < Kc; ++K) {
    for (int64_t I = 0; I < WEff; ++I)
      Panel[K * Stride + I] = Alpha * L::one(Src[I * WS + K * KS]);
    for (int64_t I = WEff; I < Stride; ++I)
      Panel[K * Stride + I] = 0.0f;
  }
}

/// A full W-wide panel whose W axis is unit-stride: k outer, W contiguous
/// elements per k, four at a time.
template <int64_t W, class L>
void panelCopy(const typename L::T *Src, int64_t KS, int64_t Kc, float Alpha,
               float *Panel) {
  constexpr int64_t W4 = W / 4 * 4;
  const V4 Al = {Alpha, Alpha, Alpha, Alpha};
  for (int64_t K = 0; K < Kc; ++K) {
    const typename L::T *S = Src + K * KS;
    float *Out = Panel + K * W;
    for (int64_t I = 0; I < W4; I += 4) {
      const V4 V = Al * L::four(S + I);
      std::memcpy(Out + I, &V, sizeof(V));
    }
    for (int64_t I = W4; I < W; ++I)
      Out[I] = Alpha * L::one(S[I]);
  }
}

/// A full W-wide panel whose k axis is unit-stride: 4 x 4 blocks (four
/// panel rows, four k values each) transposed in registers, rows past the
/// last multiple of 4 and the kc mod 4 tail element by element.
template <int64_t W, class L>
void panelTranspose(const typename L::T *Src, int64_t WS, int64_t Kc,
                    float Alpha, float *Panel) {
  constexpr int64_t W4 = W / 4 * 4;
  const V4 Al = {Alpha, Alpha, Alpha, Alpha};
  int64_t K = 0;
  for (; K + 4 <= Kc; K += 4) {
    float *Out = Panel + K * W;
    for (int64_t I = 0; I < W4; I += 4) {
      const typename L::T *S = Src + I * WS + K;
      const V4 R0 = L::four(S), R1 = L::four(S + WS),
               R2 = L::four(S + 2 * WS), R3 = L::four(S + 3 * WS);
      const V4 T0 = __builtin_shufflevector(R0, R1, 0, 4, 1, 5);
      const V4 T1 = __builtin_shufflevector(R2, R3, 0, 4, 1, 5);
      const V4 T2 = __builtin_shufflevector(R0, R1, 2, 6, 3, 7);
      const V4 T3 = __builtin_shufflevector(R2, R3, 2, 6, 3, 7);
      const V4 C[4] = {Al * __builtin_shufflevector(T0, T1, 0, 1, 4, 5),
                       Al * __builtin_shufflevector(T0, T1, 2, 3, 6, 7),
                       Al * __builtin_shufflevector(T2, T3, 0, 1, 4, 5),
                       Al * __builtin_shufflevector(T2, T3, 2, 3, 6, 7)};
      for (int64_t Kk = 0; Kk < 4; ++Kk)
        std::memcpy(Out + Kk * W + I, &C[Kk], sizeof(V4));
    }
    for (int64_t I = W4; I < W; ++I)
      for (int64_t Kk = 0; Kk < 4; ++Kk)
        Out[Kk * W + I] = Alpha * L::one(Src[I * WS + K + Kk]);
  }
  for (; K < Kc; ++K)
    for (int64_t I = 0; I < W; ++I)
      Panel[K * W + I] = Alpha * L::one(Src[I * WS + K]);
}

/// Every panel of one call at compile-time width \p W (0: the runtime
/// width \p Wr). Full panels take the loop panelPath names; the partial
/// edge panel, if any, runs the runtime-width loop.
template <int64_t W, class L>
void packAll(const typename L::T *Src, int64_t WS, int64_t KS, int64_t Len,
             int64_t Kc, int64_t Wr, float Alpha, EdgePack Mode, float *Buf) {
  if constexpr (W != 0)
    Wr = W;
  const PanelPath Path = panelPath(L::Ty, Wr, WS, KS);
  const int64_t Full = Len / Wr;
  for (int64_t P = 0; P < Full; ++P) {
    const typename L::T *S = Src + P * Wr * WS;
    float *Panel = Buf + P * Kc * Wr;
    if constexpr (W != 0) {
      if (Path == PanelPath::Copy) {
        panelCopy<W, L>(S, KS, Kc, Alpha, Panel);
        continue;
      }
      if (Path == PanelPath::Transpose) {
        panelTranspose<W, L>(S, WS, Kc, Alpha, Panel);
        continue;
      }
    }
    panelRuntime<L>(S, WS, KS, Wr, Kc, Wr, Alpha, Mode, Panel);
  }
  if (const int64_t WEff = Len - Full * Wr)
    panelRuntime<L>(Src + Full * Wr * WS, WS, KS, WEff, Kc, Wr, Alpha, Mode,
                    Buf + Full * Kc * Wr);
}

/// One switch on the panel width per call: a case for every Mr and Nr of
/// the planner's tile candidates (Planner.cpp), the same list panelPath
/// names.
template <class L>
void packWith(const void *Src, int64_t WS, int64_t KS, int64_t Len,
              int64_t Kc, int64_t W, float Alpha, EdgePack Mode, float *Buf) {
  const auto *S = static_cast<const typename L::T *>(Src);
  switch (W) {
  case 4:
    return packAll<4, L>(S, WS, KS, Len, Kc, W, Alpha, Mode, Buf);
  case 6:
    return packAll<6, L>(S, WS, KS, Len, Kc, W, Alpha, Mode, Buf);
  case 8:
    return packAll<8, L>(S, WS, KS, Len, Kc, W, Alpha, Mode, Buf);
  case 12:
    return packAll<12, L>(S, WS, KS, Len, Kc, W, Alpha, Mode, Buf);
  case 16:
    return packAll<16, L>(S, WS, KS, Len, Kc, W, Alpha, Mode, Buf);
  case 24:
    return packAll<24, L>(S, WS, KS, Len, Kc, W, Alpha, Mode, Buf);
  default:
    return packAll<0, L>(S, WS, KS, Len, Kc, W, Alpha, Mode, Buf);
  }
}

} // namespace

PanelPath gemm::panelPath(DType Ty, int64_t W, int64_t WS, int64_t KS) {
  if (Ty == DType::F16)
    return PanelPath::Runtime;
  switch (W) {
  case 4:
  case 6:
  case 8:
  case 12:
  case 16:
  case 24:
    return WS == 1   ? PanelPath::Copy
           : KS == 1 ? PanelPath::Transpose
                     : PanelPath::Runtime;
  default:
    return PanelPath::Runtime;
  }
}

void gemm::packPanels(DType Ty, const void *Src, int64_t WS, int64_t KS,
                      int64_t Len, int64_t Kc, int64_t W, float Alpha,
                      EdgePack Mode, float *Buf) {
  switch (Ty) {
  case DType::F32:
    return packWith<LoadF32>(Src, WS, KS, Len, Kc, W, Alpha, Mode, Buf);
  case DType::BF16:
    return packWith<LoadBF16>(Src, WS, KS, Len, Kc, W, Alpha, Mode, Buf);
  case DType::F16:
    return packAll<0, LoadF16>(static_cast<const uint16_t *>(Src), WS, KS,
                               Len, Kc, W, Alpha, Mode, Buf);
  case DType::I8I32:
    break; // K-grouped: packAI8Strided / packBI8Strided
  }
}

void gemm::packAI8Strided(const int8_t *A, int64_t RowStride,
                          int64_t ColStride, int64_t Mc, int64_t Kc,
                          int64_t Mr, int8_t *Buf) {
  const int64_t KG = (Kc + I8KGroup - 1) / I8KGroup;
  for (int64_t P = 0, Ir = 0; Ir < Mc; ++P, Ir += Mr) {
    int64_t MrEff = std::min(Mr, Mc - Ir);
    int8_t *Panel = Buf + P * KG * I8KGroup * Mr;
    for (int64_t G = 0; G < KG; ++G) {
      int8_t *Group = Panel + G * Mr * I8KGroup;
      for (int64_t I = 0; I < Mr; ++I) {
        for (int64_t Kk = 0; Kk < I8KGroup; ++Kk) {
          int64_t K = G * I8KGroup + Kk;
          Group[I * I8KGroup + Kk] =
              I < MrEff && K < Kc ? A[(Ir + I) * RowStride + K * ColStride]
                                  : int8_t(0);
        }
      }
    }
  }
}

void gemm::packBI8Strided(const int8_t *B, int64_t RowStride,
                          int64_t ColStride, int64_t Kc, int64_t Nc,
                          int64_t Nr, int8_t *Buf) {
  const int64_t KG = (Kc + I8KGroup - 1) / I8KGroup;
  for (int64_t P = 0, Jr = 0; Jr < Nc; ++P, Jr += Nr) {
    int64_t NrEff = std::min(Nr, Nc - Jr);
    int8_t *Panel = Buf + P * KG * I8KGroup * Nr;
    for (int64_t G = 0; G < KG; ++G) {
      int8_t *Group = Panel + G * Nr * I8KGroup;
      for (int64_t J = 0; J < Nr; ++J) {
        for (int64_t Kk = 0; Kk < I8KGroup; ++Kk) {
          int64_t K = G * I8KGroup + Kk;
          Group[J * I8KGroup + Kk] =
              J < NrEff && K < Kc ? B[K * RowStride + (Jr + J) * ColStride]
                                  : int8_t(0);
        }
      }
    }
  }
}

void gemm::packA(const float *A, int64_t Lda, int64_t Mc, int64_t Kc,
                 int64_t Mr, float Alpha, EdgePack Mode, float *Buf) {
  // Column-major A: element (i, k) at A[i + k*Lda].
  packPanels(DType::F32, A, 1, Lda, Mc, Kc, Mr, Alpha, Mode, Buf);
}

void gemm::packB(const float *B, int64_t Ldb, int64_t Kc, int64_t Nc,
                 int64_t Nr, float Alpha, EdgePack Mode, float *Buf) {
  // Column-major B: element (k, j) at B[k + j*Ldb].
  packPanels(DType::F32, B, Ldb, 1, Nc, Kc, Nr, Alpha, Mode, Buf);
}
