//===- Pack.h - GotoBLAS packing and tile write-back ----------------------===//
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
/// Copy moves the W contiguous elements of each k as whole vectors when
/// WS == 1; Transpose reads a vector of k values from each of a vector's
/// worth of panel rows when KS == 1 and transposes the block in registers,
/// the kc tail loaded masked. The short edge panel takes the same loop
/// with a lane mask, laid out Tight or ZeroPad. Any other width or stride
/// pair runs the strided element loop. Alpha is always multiplied in, even
/// when it is 1, so NaN payloads and signed zeros come out the same on
/// every path.
///
/// The tile write-back is the same kind of loop: addTile adds the valid
/// window of an f32 scratch tile into C, rounding back to storage for the
/// halves (the once-per-Kc-block rounding of docs/PRECISION.md).
///
/// Both loops are written once (PanelLoops.inc) and compiled twice: for
/// AVX-512 (avx512f/bw/vl: 16-lane vectors, masked loads and stores for
/// partial rows, 16 x 16 transposes, vcvtph2ps / vcvtps2ph for f16) and
/// for the baseline target (4-lane vectors, f16 decoded by a branch-free
/// bit formula and encoded by f32ToF16). The host's build is picked once
/// per process from CPUID (detail::hostLoops). Both produce the same bits
/// as the scalar element loops on every input, which the tests check
/// through detail::portableLoops and detail::avx512Loops side by side.
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

/// The loop packPanels runs for panel width \p W and strides (WS, KS),
/// the same for every dtype; see file comment. Exposed so tests can
/// confirm every path is drawn.
enum class PanelPath : uint8_t { Copy, Transpose, Runtime };
PanelPath panelPath(int64_t W, int64_t WS, int64_t KS);

/// The one float-panel packer (see file comment): element (w, k) of the
/// logical Len x Kc block sits at Src[w*WS + k*KS], in \p Ty's storage
/// (float for F32, uint16_t halves for F16/BF16; I8I32 has its own pack
/// below). Writes ceil(Len/W) panels of Kc*W floats into \p Buf.
void packPanels(DType Ty, const void *Src, int64_t WS, int64_t KS,
                int64_t Len, int64_t Kc, int64_t W, float Alpha,
                EdgePack Mode, float *Buf);

/// C(i, j) = store(load(C(i, j)) + Scratch[j*Mr + i]) for i < MrEff and
/// j < NrEff, C in \p Ty's storage with leading dimension \p Ldc (F32,
/// F16 or BF16; store rounds to nearest even).
void addTile(DType Ty, const float *Scratch, int64_t Mr, int64_t MrEff,
             int64_t NrEff, void *C, int64_t Ldc);

namespace detail {

/// One instruction set's build of the loops above (see file comment).
/// Widen and Narrow are the lane conversions those loops use, over N
/// elements: f16ToF32 / bf16ToF32 and f32ToF16 / f32ToBf16, bit for bit.
struct ElementLoops {
  void (*Pack)(DType Ty, const void *Src, int64_t WS, int64_t KS,
               int64_t Len, int64_t Kc, int64_t W, float Alpha,
               EdgePack Mode, float *Buf);
  void (*AddTile)(DType Ty, const float *Scratch, int64_t Mr, int64_t MrEff,
                  int64_t NrEff, void *C, int64_t Ldc);
  void (*Widen)(DType Ty, const uint16_t *Src, int64_t N, float *Dst);
  void (*Narrow)(DType Ty, const float *Src, int64_t N, uint16_t *Dst);
};

/// The baseline-target build, usable on every host.
const ElementLoops &portableLoops();

/// The AVX-512 build, or nullptr when the host lacks avx512f, avx512bw or
/// avx512vl.
const ElementLoops *avx512Loops();

/// The build packPanels and addTile run: AVX-512 when usable, else
/// portable, chosen on the first call.
const ElementLoops &hostLoops();

} // namespace detail

/// K-grouped int8 packs (see file comment). Caller sizes Buf as
/// ceil(mc/mr) * ceil(kc/4)*4 * mr bytes (resp. nc/nr). No alpha: integer
/// scaling happens exactly at i32 copy-out, not per-element at pack time.
void packAI8Strided(const int8_t *A, int64_t RowStride, int64_t ColStride,
                    int64_t Mc, int64_t Kc, int64_t Mr, int8_t *Buf);
void packBI8Strided(const int8_t *B, int64_t RowStride, int64_t ColStride,
                    int64_t Kc, int64_t Nc, int64_t Nr, int8_t *Buf);

} // namespace gemm

#endif // GEMM_PACK_H
