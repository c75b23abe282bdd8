//===- Conv.h - Convolution via the IM2ROW transform -----------------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lowering behind the paper's §IV-C workloads [Chellapilla et al.]:
/// a convolution becomes a GEMM by materializing each output pixel's
/// receptive field as one row of an (oh*ow) x (kh*kw*ic) matrix. This file
/// implements the transform, the resulting GEMM-backed convolution, and a
/// direct convolution used as its correctness oracle.
///
/// Layouts: activations are HWC (height, width, channel), weights are
/// (kh, kw, ic, oc), outputs HWC. The im2row matrix is stored column-major
/// (matching gemm::Engine::sgemm's operand convention) with m = oh*ow rows.
///
//===----------------------------------------------------------------------===//

#ifndef DNN_CONV_H
#define DNN_CONV_H

#include "dnn/Models.h"
#include "exo/support/Error.h"
#include "gemm/Engine.h"

#include <cstdint>

namespace dnn {

struct ConvParams {
  int64_t InC = 0, OutC = 0;
  int64_t InH = 0, InW = 0;
  int64_t Kh = 1, Kw = 1;
  int64_t Stride = 1, Pad = 0;

  int64_t outH() const { return (InH + 2 * Pad - Kh) / Stride + 1; }
  int64_t outW() const { return (InW + 2 * Pad - Kw) / Stride + 1; }
  /// GEMM dimensions after IM2ROW.
  int64_t gemmM() const { return outH() * outW(); }
  int64_t gemmN() const { return OutC; }
  int64_t gemmK() const { return Kh * Kw * InC; }
};

/// Materializes the IM2ROW matrix of \p In (HWC) into \p A, column-major
/// gemmM() x gemmK() with leading dimension gemmM(): element
/// (oh*outW() + ow, (kh*Kw + kw)*InC + c) is
/// In[((oh*Stride - Pad + kh)*InW + ow*Stride - Pad + kw)*InC + c], or 0.0f
/// where that tap falls in the padding. The output is bitwise equal to that
/// element formula. It is computed as a blocked transpose (per tap, per
/// 16-channel block, per output row) with no per-element division. Writes
/// nothing when outH() or outW() is below 1.
void im2row(const ConvParams &P, const float *In, float *A);

/// Reshapes (kh, kw, ic, oc) weights into the column-major
/// gemmK() x gemmN() B matrix (leading dimension gemmK()).
void weightsToMatrix(const ConvParams &P, const float *W, float *B);

/// Reference convolution: Out (HWC, oh x ow x oc) = conv(In, W). Direct
/// seven-loop implementation.
void convDirect(const ConvParams &P, const float *In, const float *W,
                float *Out);

/// Convolution through IM2ROW + the Engine front door: the layer's GEMM
/// shape is planned once and every later call with the same shape (the
/// steady state of an inference loop) reuses the cached plan. Out is HWC
/// like convDirect.
exo::Error convViaGemm(const ConvParams &P, gemm::Engine &Engine,
                       const float *In, const float *W, float *Out);

} // namespace dnn

#endif // DNN_CONV_H
