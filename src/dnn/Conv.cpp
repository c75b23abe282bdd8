//===- Conv.cpp -----------------------------------------------------------===//

#include "dnn/Conv.h"

#include <algorithm>
#include <cstring>
#include <vector>

using namespace dnn;

namespace {

/// im2row moves this many channels of one tap per sweep over the output
/// pixels: a source pixel's channels are contiguous, so each pixel is one
/// 64-byte read spread over 16 column streams of A.
constexpr int64_t ChannelBlock = 16;

/// Half-open range [Lo, Hi) of output positions along one image axis.
struct Range {
  int64_t Lo, Hi;
};

/// floor(A / B) for B > 0. C++ '/' truncates toward zero, which rounds a
/// negative quotient up and would make an all-padding tap look non-empty.
int64_t floorDiv(int64_t A, int64_t B) {
  return A >= 0 ? A / B : -((B - 1 - A) / B);
}

/// The output positions O in [0, Out) whose input coordinate
/// O*Stride - Pad + Tap lies inside [0, Extent); empty when the tap reads
/// only padding.
Range inImage(int64_t Out, int64_t Extent, int64_t Stride, int64_t Pad,
              int64_t Tap) {
  const int64_t Lo =
      std::clamp<int64_t>(-floorDiv(Tap - Pad, Stride), 0, Out);
  const int64_t Hi = std::clamp<int64_t>(
      floorDiv(Extent - 1 + Pad - Tap, Stride) + 1, Lo, Out);
  return {Lo, Hi};
}

/// One tap's geometry. Passed by value: a copy whose address never escapes
/// stays in registers across the memset calls.
struct TapCopy {
  int64_t M, OutH, OutW;      ///< A's rows, tiling the oh x ow output image
  Range Rows, Cols;           ///< output rows/columns that read the image
  int64_t PixelStep, RowStep; ///< source advance per output column / row
};

/// Fills the Width (NCols when Width is 0) consecutive columns of A at
/// \p Dst for one tap: zeros where the tap reads padding, channel c of the
/// source pixel elsewhere. \p Src is the pixel read by output
/// (Rows.Lo, Cols.Lo), offset to the block's first channel.
template <int64_t Width>
void copyTapBlock(TapCopy T, const float *Src, float *Dst, int64_t NCols) {
  const int64_t N = Width ? Width : NCols;
  for (int64_t C = 0; C != N; ++C) {
    float *Col = Dst + C * T.M;
    std::memset(Col, 0, sizeof(float) * T.Rows.Lo * T.OutW);
    std::memset(Col + T.Rows.Hi * T.OutW, 0,
                sizeof(float) * (T.OutH - T.Rows.Hi) * T.OutW);
  }
  const bool PaddedCols = T.Cols.Lo != 0 || T.Cols.Hi != T.OutW;
  const int64_t Pixels = T.Cols.Hi - T.Cols.Lo;
  for (int64_t Oh = T.Rows.Lo; Oh != T.Rows.Hi; ++Oh) {
    float *Row = Dst + Oh * T.OutW;
    if (PaddedCols)
      for (int64_t C = 0; C != N; ++C) {
        std::memset(Row + C * T.M, 0, sizeof(float) * T.Cols.Lo);
        std::memset(Row + C * T.M + T.Cols.Hi, 0,
                    sizeof(float) * (T.OutW - T.Cols.Hi));
      }
    const float *RowSrc = Src + (Oh - T.Rows.Lo) * T.RowStep;
    float *Out = Row + T.Cols.Lo;
    int64_t I = 0;
    // Four pixels per visit to a column, so consecutive stores land in
    // one cache line instead of in four different columns.
    for (; I + 4 <= Pixels; I += 4) {
      const float *P0 = RowSrc + I * T.PixelStep, *P1 = P0 + T.PixelStep,
                  *P2 = P1 + T.PixelStep, *P3 = P2 + T.PixelStep;
      for (int64_t C = 0; C != N; ++C) {
        float *D = Out + C * T.M + I;
        D[0] = P0[C];
        D[1] = P1[C];
        D[2] = P2[C];
        D[3] = P3[C];
      }
    }
    for (; I != Pixels; ++I) {
      const float *Pixel = RowSrc + I * T.PixelStep;
      for (int64_t C = 0; C != N; ++C)
        Out[C * T.M + I] = Pixel[C];
    }
  }
}

} // namespace

void dnn::im2row(const ConvParams &P, const float *In, float *A) {
  const int64_t OutH = P.outH(), OutW = P.outW(), M = P.gemmM();
  if (OutH < 1 || OutW < 1)
    return;
  // A is column-major M x K: element (row, col) at A[row + col*M] where
  // row = oh*OutW + ow and col = (kh*Kw + kw)*InC + c.
  for (int64_t Kh = 0; Kh != P.Kh; ++Kh) {
    for (int64_t Kw = 0; Kw != P.Kw; ++Kw) {
      TapCopy T{M,
                OutH,
                OutW,
                inImage(OutH, P.InH, P.Stride, P.Pad, Kh),
                inImage(OutW, P.InW, P.Stride, P.Pad, Kw),
                P.Stride * P.InC,
                P.Stride * P.InW * P.InC};
      const float *Src = In;
      if (T.Rows.Lo == T.Rows.Hi || T.Cols.Lo == T.Cols.Hi)
        T.Rows = {0, 0}; // the tap reads only padding: all rows are zero
      else
        Src += ((T.Rows.Lo * P.Stride - P.Pad + Kh) * P.InW +
                T.Cols.Lo * P.Stride - P.Pad + Kw) *
               P.InC;
      float *Dst = A + (Kh * P.Kw + Kw) * P.InC * M;
      int64_t C0 = 0;
      for (; C0 + ChannelBlock <= P.InC; C0 += ChannelBlock)
        copyTapBlock<ChannelBlock>(T, Src + C0, Dst + C0 * M, ChannelBlock);
      if (C0 != P.InC)
        copyTapBlock<0>(T, Src + C0, Dst + C0 * M, P.InC - C0);
    }
  }
}

void dnn::weightsToMatrix(const ConvParams &P, const float *W, float *B) {
  const int64_t K = P.gemmK();
  // W is (kh, kw, ic, oc); B column-major K x OutC.
  for (int64_t Kh = 0; Kh < P.Kh; ++Kh)
    for (int64_t Kw = 0; Kw < P.Kw; ++Kw)
      for (int64_t C = 0; C < P.InC; ++C) {
        int64_t Row = (Kh * P.Kw + Kw) * P.InC + C;
        const float *WSrc = W + ((Kh * P.Kw + Kw) * P.InC + C) * P.OutC;
        for (int64_t Oc = 0; Oc < P.OutC; ++Oc)
          B[Row + Oc * K] = WSrc[Oc];
      }
}

void dnn::convDirect(const ConvParams &P, const float *In, const float *W,
                     float *Out) {
  const int64_t OutH = P.outH(), OutW = P.outW();
  for (int64_t Oh = 0; Oh < OutH; ++Oh) {
    for (int64_t Ow = 0; Ow < OutW; ++Ow) {
      for (int64_t Oc = 0; Oc < P.OutC; ++Oc) {
        double Acc = 0;
        for (int64_t Kh = 0; Kh < P.Kh; ++Kh) {
          for (int64_t Kw = 0; Kw < P.Kw; ++Kw) {
            int64_t Ih = Oh * P.Stride - P.Pad + Kh;
            int64_t Iw = Ow * P.Stride - P.Pad + Kw;
            if (Ih < 0 || Ih >= P.InH || Iw < 0 || Iw >= P.InW)
              continue;
            for (int64_t C = 0; C < P.InC; ++C)
              Acc += static_cast<double>(
                         In[(Ih * P.InW + Iw) * P.InC + C]) *
                     W[((Kh * P.Kw + Kw) * P.InC + C) * P.OutC + Oc];
          }
        }
        Out[(Oh * OutW + Ow) * P.OutC + Oc] = static_cast<float>(Acc);
      }
    }
  }
}

exo::Error dnn::convViaGemm(const ConvParams &P, gemm::Engine &Engine,
                            const float *In, const float *W, float *Out) {
  const int64_t M = P.gemmM(), N = P.gemmN(), K = P.gemmK();
  std::vector<float> A(M * K), B(K * N), C(M * N, 0.0f);
  im2row(P, In, A.data());
  weightsToMatrix(P, W, B.data());

  if (exo::Error Err = Engine.sgemm(M, N, K, 1.0f, A.data(), M, B.data(), K,
                                    0.0f, C.data(), M))
    return Err;

  // The GEMM result is column-major (pixel, oc); outputs are HWC.
  for (int64_t Row = 0; Row < M; ++Row)
    for (int64_t Oc = 0; Oc < N; ++Oc)
      Out[Row * N + Oc] = C[Row + Oc * M];
  return exo::Error::success();
}
