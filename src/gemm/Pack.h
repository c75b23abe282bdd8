//===- Pack.h - GotoBLAS packing routines ---------------------------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The packing routines of the BLIS macro-kernel (paper Fig. 1/2). Both
/// operands become panel-major buffers the micro-kernel reads with unit
/// stride:
///
///   packA: an mc x kc block of A becomes ceil(mc/mr) panels, panel p
///          holding rows [p*mr, p*mr + mr) as a kc x mr matrix (k-major),
///          scaled by alpha.
///   packB: symmetric, nr-wide panels of a kc x nc block of B.
///
/// The two are one operation, packPanels: panel element (k, w) is
/// Alpha * load(Src[w*WS + k*KS]), W wide, with (WS, KS) the row/column
/// strides for A and the column/row strides for B (a transposed operand is
/// just the swapped pair, so packing absorbs the transpose, as in BLIS).
/// `load` is the identity for f32 and the upconversion for f16/bf16
/// storage (convert-pack: f32 panels in the identical layout, so the f32
/// micro-kernels consume half-precision operands unchanged;
/// docs/PRECISION.md). Panel capacity is always kc*W elements; a short edge
/// panel is either packed *tight* (kc x w_eff, for dispatch to a
/// specialized edge kernel) or zero-padded to full width (for a monolithic
/// kernel + scratch tile).
///
/// packPanels switches once per call to a compile-time panel width for
/// every width the planner's tile candidates use ({4, 6, 8, 12, 16, 24}),
/// and picks one of two loop orders by which stride is unit (PanelPath):
/// Copy moves W contiguous elements per k when WS == 1; Transpose reads
/// four k values of four panel rows when KS == 1 and transposes them in
/// registers (portable vector extensions, no target flags), with a scalar
/// tail for kc mod 4. Any other width or stride pair, every partial edge
/// panel, and every f16 panel (its software decode is an out-of-line call
/// per element, so there is nothing to batch) run the runtime-width loop.
/// Alpha is always multiplied in, even when it is 1, so NaN payloads and
/// signed zeros come out the same on every path.
///
/// The i8 K-grouped pack is the VNNI/sdot layout. Panels group the k
/// dimension in quads (I8KGroup): element (g, i, kk) of an A panel sits at
/// Panel[g*mr*4 + i*4 + kk], i.e. each micro-row contributes 4 consecutive
/// k values — exactly one dot-instruction operand. Short edges and the K
/// remainder are always zero-padded (zeros are exact in integer dot
/// products).
///
//===----------------------------------------------------------------------===//

#ifndef GEMM_PACK_H
#define GEMM_PACK_H

#include "gemm/DType.h"

#include <cstdint>

namespace gemm {

/// How edge panels are laid out (see file comment).
enum class EdgePack : uint8_t { Tight, ZeroPad };

/// Packs A[ic:ic+mc, pc:pc+kc] (column-major, leading dimension lda) into
/// \p Buf. Caller sizes Buf as ceil(mc/mr)*kc*mr floats.
void packA(const float *A, int64_t Lda, int64_t Mc, int64_t Kc, int64_t Mr,
           float Alpha, EdgePack Mode, float *Buf);

/// Packs B[pc:pc+kc, jc:jc+nc] (column-major, leading dimension ldb) into
/// \p Buf. Caller sizes Buf as ceil(nc/nr)*kc*nr floats.
void packB(const float *B, int64_t Ldb, int64_t Kc, int64_t Nc, int64_t Nr,
           float Alpha, EdgePack Mode, float *Buf);

/// The loop packPanels runs for dtype \p Ty, panel width \p W and strides
/// (WS, KS); see file comment. Exposed so tests can confirm every path is
/// drawn.
enum class PanelPath : uint8_t { Copy, Transpose, Runtime };
PanelPath panelPath(DType Ty, int64_t W, int64_t WS, int64_t KS);

/// The one float-panel packer (see file comment): element (w, k) of the
/// logical Len x Kc block sits at Src[w*WS + k*KS], in \p Ty's storage
/// (float for F32, uint16_t halves for F16/BF16; I8I32 has its own pack
/// below). Writes ceil(Len/W) panels of Kc*W floats into \p Buf.
void packPanels(DType Ty, const void *Src, int64_t WS, int64_t KS,
                int64_t Len, int64_t Kc, int64_t W, float Alpha,
                EdgePack Mode, float *Buf);

/// K-grouped int8 packs (see file comment). Caller sizes Buf as
/// ceil(mc/mr) * ceil(kc/4)*4 * mr bytes (resp. nc/nr). No alpha: integer
/// scaling happens exactly at i32 copy-out, not per-element at pack time.
void packAI8Strided(const int8_t *A, int64_t RowStride, int64_t ColStride,
                    int64_t Mc, int64_t Kc, int64_t Mr, int8_t *Buf);
void packBI8Strided(const int8_t *B, int64_t RowStride, int64_t ColStride,
                    int64_t Kc, int64_t Nc, int64_t Nr, int8_t *Buf);

} // namespace gemm

#endif // GEMM_PACK_H
