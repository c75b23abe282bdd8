//===- Pack.cpp -----------------------------------------------------------===//

#include "gemm/Pack.h"

#include <algorithm>
#include <cstring>
#include <immintrin.h>

using namespace gemm;

namespace {

/// The strided element loop: any width, any strides. \p WEff valid rows
/// of a panel whose k rows are \p Stride floats apart, zeros in between.
template <class T, class Decode>
void stridedWith(const T *Src, int64_t WS, int64_t KS, int64_t WEff,
                 int64_t Kc, int64_t Stride, float Alpha, float *Panel,
                 Decode D) {
  for (int64_t K = 0; K < Kc; ++K) {
    for (int64_t I = 0; I < WEff; ++I)
      Panel[K * Stride + I] = Alpha * D(Src[I * WS + K * KS]);
    for (int64_t I = WEff; I < Stride; ++I)
      Panel[K * Stride + I] = 0.0f;
  }
}

void panelStrided(DType, const float *Src, int64_t WS, int64_t KS,
                  int64_t WEff, int64_t Kc, int64_t Stride, float Alpha,
                  float *Panel) {
  stridedWith(Src, WS, KS, WEff, Kc, Stride, Alpha, Panel,
              [](float X) { return X; });
}

void panelStrided(DType Ty, const uint16_t *Src, int64_t WS, int64_t KS,
                  int64_t WEff, int64_t Kc, int64_t Stride, float Alpha,
                  float *Panel) {
  if (Ty == DType::F16)
    stridedWith(Src, WS, KS, WEff, Kc, Stride, Alpha, Panel, f16ToF32);
  else
    stridedWith(Src, WS, KS, WEff, Kc, Stride, Alpha, Panel, bf16ToF32);
}

/// The baseline target: four lanes, the register every target has, and
/// the f16 conversions in software.
namespace portable {

constexpr int64_t L = 4;
using VF = float __attribute__((vector_size(16)));
using VU = uint32_t __attribute__((vector_size(16)));
using VH = uint16_t __attribute__((vector_size(8)));

// A partial vector is element by element: a memcpy of a runtime length
// is a library call.
inline VF loadF(const float *P, int64_t N) {
  VF V = {};
  if (N == L)
    std::memcpy(&V, P, sizeof(V));
  else
    for (int64_t I = 0; I < N; ++I)
      V[I] = P[I];
  return V;
}
inline void storeF(float *P, VF V, int64_t N) {
  if (N == L)
    std::memcpy(P, &V, sizeof(V));
  else
    for (int64_t I = 0; I < N; ++I)
      P[I] = V[I];
}
inline VH loadH(const uint16_t *P, int64_t N) {
  VH H = {};
  if (N == L)
    std::memcpy(&H, P, sizeof(H));
  else
    for (int64_t I = 0; I < N; ++I)
      H[I] = P[I];
  return H;
}
inline void storeH(uint16_t *P, VH H, int64_t N) {
  if (N == L)
    std::memcpy(P, &H, sizeof(H));
  else
    for (int64_t I = 0; I < N; ++I)
      P[I] = H[I];
}
inline VF keep(VF V, int64_t N) {
  const VU Lane = {0, 1, 2, 3};
  return (VF)((VU)V & (VU)(Lane < uint32_t(N)));
}
/// f16ToF32 without a branch: the exponent is rebiased in place (once
/// more for Inf/NaN, so payloads and signaling NaNs carry over), and a
/// subnormal m becomes 2^-14 * (1 + m/1024) - 2^-14, exact in f32.
inline VF decodeF16(VH H) {
  const VU U = __builtin_convertvector(H, VU);
  const VU Bits = (U & 0x7fffu) << 13;
  const VU Exp = Bits & 0x0f800000u;
  const VU Rebiased = Bits + 0x38000000u; // (127 - 15) << 23
  const VF TwoM14 = (VF)(VU{} + 0x38800000u);
  const VU Sub = (VU)((VF)(Rebiased + 0x800000u) - TwoM14);
  const VU Mag = Exp == 0x0f800000u ? Rebiased + 0x38000000u
                 : Exp == 0         ? Sub
                                    : Rebiased;
  return (VF)(Mag | (U & 0x8000u) << 16);
}
// Through arrays: no vector register lives across the calls.
inline VH encodeF16(VF V) {
  float In[L];
  uint16_t Out[L];
  std::memcpy(In, &V, sizeof(In));
  for (int64_t I = 0; I < L; ++I)
    Out[I] = f32ToF16(In[I]);
  VH H;
  std::memcpy(&H, Out, sizeof(H));
  return H;
}
[[gnu::always_inline]] inline void transpose(VF R[4]) {
  const VF T0 = __builtin_shufflevector(R[0], R[1], 0, 4, 1, 5);
  const VF T1 = __builtin_shufflevector(R[2], R[3], 0, 4, 1, 5);
  const VF T2 = __builtin_shufflevector(R[0], R[1], 2, 6, 3, 7);
  const VF T3 = __builtin_shufflevector(R[2], R[3], 2, 6, 3, 7);
  R[0] = __builtin_shufflevector(T0, T1, 0, 1, 4, 5);
  R[1] = __builtin_shufflevector(T0, T1, 2, 3, 6, 7);
  R[2] = __builtin_shufflevector(T2, T3, 0, 1, 4, 5);
  R[3] = __builtin_shufflevector(T2, T3, 2, 3, 6, 7);
}

#include "gemm/PanelLoops.inc"

} // namespace portable

#pragma GCC push_options
#pragma GCC target("avx512f,avx512bw,avx512vl")

/// AVX-512: sixteen lanes, partial rows as masked loads and stores (a
/// masked-off lane is never touched, so nothing past an operand or a
/// panel is read or written), and vcvtph2ps / vcvtps2ph.
namespace avx512 {

constexpr int64_t L = 16;
using VF = float __attribute__((vector_size(64)));
using VU = uint32_t __attribute__((vector_size(64)));
using VH = uint16_t __attribute__((vector_size(32)));

/// The first N lanes. The intrinsics below are the zero-masking forms
/// with All where a plain form exists: those take an undefined pass-through
/// operand that GCC warns about.
inline __mmask16 lanes(int64_t N) { return __mmask16((1u << N) - 1); }
constexpr __mmask16 All = 0xffff;

inline VF loadF(const float *P, int64_t N) {
  return (VF)_mm512_maskz_loadu_ps(lanes(N), P);
}
inline void storeF(float *P, VF V, int64_t N) {
  _mm512_mask_storeu_ps(P, lanes(N), (__m512)V);
}
inline VH loadH(const uint16_t *P, int64_t N) {
  return (VH)_mm256_maskz_loadu_epi16(lanes(N), P);
}
inline void storeH(uint16_t *P, VH H, int64_t N) {
  _mm256_mask_storeu_epi16(P, lanes(N), (__m256i)H);
}
inline VF keep(VF V, int64_t N) {
  return (VF)_mm512_maskz_mov_ps(lanes(N), (__m512)V);
}
inline VF decodeF16(VH H) {
  const VU F = (VU)_mm512_maskz_cvtph_ps(All, (__m256i)H);
  // vcvtph2ps quiets a signaling NaN; f16ToF32 keeps it signaling.
  const VU U = __builtin_convertvector(H, VU);
  const VU Snan = ((U & 0x7e00u) == 0x7c00u) & ((U & 0x1ffu) != 0);
  return (VF)(F & ~(Snan & 0x400000u));
}
inline VH encodeF16(VF V) {
  return (VH)_mm512_maskz_cvtps_ph(
      All, (__m512)V, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
}
/// 16 x 16 in four rounds: pairs of rows interleave (unpack), quads of
/// rows gather one column per 128-bit block (shuffle_ps), then the 4 x 4
/// grid of 128-bit blocks transposes in two shuffle_f32x4 rounds.
[[gnu::always_inline]] inline void transpose(VF R[16]) {
  __m512 T[16], U[16];
#pragma GCC unroll 8
  for (int I = 0; I < 16; I += 2) {
    T[I] = _mm512_maskz_unpacklo_ps(All, (__m512)R[I], (__m512)R[I + 1]);
    T[I + 1] = _mm512_maskz_unpackhi_ps(All, (__m512)R[I], (__m512)R[I + 1]);
  }
  // U[4q + e], block b: rows 4q..4q+3 at column 4b + e.
#pragma GCC unroll 4
  for (int Q = 0; Q < 16; Q += 4) {
    U[Q] = _mm512_maskz_shuffle_ps(All, T[Q], T[Q + 2], 0x44);
    U[Q + 1] = _mm512_maskz_shuffle_ps(All, T[Q], T[Q + 2], 0xee);
    U[Q + 2] = _mm512_maskz_shuffle_ps(All, T[Q + 1], T[Q + 3], 0x44);
    U[Q + 3] = _mm512_maskz_shuffle_ps(All, T[Q + 1], T[Q + 3], 0xee);
  }
  // Column 4b + e, block q = U[4q + e] block b.
#pragma GCC unroll 4
  for (int E = 0; E < 4; ++E) {
    const __m512 P0 = _mm512_maskz_shuffle_f32x4(All, U[E], U[4 + E], 0x88);
    const __m512 P1 = _mm512_maskz_shuffle_f32x4(All, U[E], U[4 + E], 0xdd);
    const __m512 P2 =
        _mm512_maskz_shuffle_f32x4(All, U[8 + E], U[12 + E], 0x88);
    const __m512 P3 =
        _mm512_maskz_shuffle_f32x4(All, U[8 + E], U[12 + E], 0xdd);
    R[E] = (VF)_mm512_maskz_shuffle_f32x4(All, P0, P2, 0x88);
    R[4 + E] = (VF)_mm512_maskz_shuffle_f32x4(All, P1, P3, 0x88);
    R[8 + E] = (VF)_mm512_maskz_shuffle_f32x4(All, P0, P2, 0xdd);
    R[12 + E] = (VF)_mm512_maskz_shuffle_f32x4(All, P1, P3, 0xdd);
  }
}

#include "gemm/PanelLoops.inc"

} // namespace avx512

#pragma GCC pop_options

} // namespace

PanelPath gemm::panelPath(int64_t W, int64_t WS, int64_t KS) {
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

const detail::ElementLoops &detail::portableLoops() { return portable::Loops; }

const detail::ElementLoops *detail::avx512Loops() {
  static const bool Usable = __builtin_cpu_supports("avx512f") &&
                             __builtin_cpu_supports("avx512bw") &&
                             __builtin_cpu_supports("avx512vl");
  return Usable ? &avx512::Loops : nullptr;
}

const detail::ElementLoops &detail::hostLoops() {
  static const ElementLoops &Host =
      avx512Loops() ? *avx512Loops() : portableLoops();
  return Host;
}

void gemm::packPanels(DType Ty, const void *Src, int64_t WS, int64_t KS,
                      int64_t Len, int64_t Kc, int64_t W, float Alpha,
                      EdgePack Mode, float *Buf) {
  detail::hostLoops().Pack(Ty, Src, WS, KS, Len, Kc, W, Alpha, Mode, Buf);
}

void gemm::addTile(DType Ty, const float *Scratch, int64_t Mr, int64_t MrEff,
                   int64_t NrEff, void *C, int64_t Ldc) {
  detail::hostLoops().AddTile(Ty, Scratch, Mr, MrEff, NrEff, C, Ldc);
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
