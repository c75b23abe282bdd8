//===- DType.h - GEMM element types as a first-class dimension ------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving stack's precision dimension (paper §III-D): every layer from
/// `Engine::gemm` down to the gemmd wire protocol keys on a `DType` instead
/// of assuming `float`. Four dtypes are served:
///
///   F32    f32 in, f32 out, f32 accumulate — the historical path, bitwise
///          unchanged by this refactor.
///   F16    IEEE binary16 storage for A/B/C; packing upconverts panels to
///          f32 so the f32 micro-kernels (JIT or portable) do the FMAs, and
///          C is rounded back to f16 (round-to-nearest-even) once per Kc
///          depth block. Alpha/beta are applied in f32.
///   BF16   bfloat16 storage, same contract as F16 (f32 accumulate, RNE
///          rounding at the same points).
///   I8I32  int8 A/B, int32 C, int32 accumulate with two's-complement
///          wraparound (the cuBLAS/oneDNN igemm convention). Panels use the
///          VNNI-style K-grouped layout (groups of I8KGroup along k packed
///          contiguously per micro-row) so a dot-product ISA can consume
///          them directly; the portable fallback kernel reads the same
///          layout scalar-wise. Alpha/beta must be integers (they scale the
///          i32 accumulator exactly; a fractional scale is a quantization
///          policy, not a GEMM parameter).
///
/// Conversion helpers here are the single definition of f16/bf16 <-> f32
/// used by packing, copy-out, references, and tests, so "ULP-bounded"
/// comparisons compare against the very rounding the engine performs.
///
//===----------------------------------------------------------------------===//

#ifndef GEMM_DTYPE_H
#define GEMM_DTYPE_H

#include "exo/ir/Type.h"

#include <bit>
#include <cstdint>
#include <string>

namespace gemm {

/// See file comment.
enum class DType : uint8_t { F32 = 0, F16 = 1, BF16 = 2, I8I32 = 3 };

/// Number of serving dtypes (array sizing for per-dtype counters).
inline constexpr unsigned DTypeCount = 4;

/// K-group width of the I8I32 packed panel layout (VNNI/sdot lane group).
inline constexpr int64_t I8KGroup = 4;

/// Display / CLI name: "f32", "f16", "bf16", "i8".
const char *dtypeName(DType Ty);

/// Parses dtypeName() spellings (plus "i8i32" as an alias for "i8").
bool parseDType(const std::string &Name, DType &Out);

/// Bytes of one A/B storage element (4, 2, 2, 1).
unsigned dtypeInBytes(DType Ty);

/// Bytes of one C storage element (4, 2, 2, 4).
unsigned dtypeOutBytes(DType Ty);

/// Bytes of one *packed panel* element: f16/bf16 panels are upconverted to
/// f32 at pack time (4), i8 panels stay i8 (1). This is the element size
/// the cache-model blocking must reason about.
unsigned dtypePackBytes(DType Ty);

/// True for I8I32 (integer accumulate, GOPS not GFLOPS).
bool dtypeIsInt(DType Ty);

/// The exo IR scalar kind a dtype's *input* elements map to when a kernel
/// is generated for it (F32->f32, F16->f16, BF16->bf16, I8I32->i8).
exo::ScalarKind dtypeScalarKind(DType Ty);

//===----------------------------------------------------------------------===//
// f16 / bf16 storage conversion (software, round-to-nearest-even)
//===----------------------------------------------------------------------===//

/// IEEE binary16 bits -> f32. Handles subnormals, infinities, NaNs.
float f16ToF32(uint16_t H);

/// f32 -> IEEE binary16 bits, round-to-nearest-even; overflow -> infinity.
uint16_t f32ToF16(float F);

/// bfloat16 bits -> f32 (exact: bf16 is the top half of f32). Inline, as
/// is f32ToBf16: the packs and the copy-out call them once per element.
inline float bf16ToF32(uint16_t H) {
  return std::bit_cast<float>(static_cast<uint32_t>(H) << 16);
}

/// f32 -> bfloat16 bits, round-to-nearest-even; NaN is quieted.
inline uint16_t f32ToBf16(float F) {
  uint32_t Bits = std::bit_cast<uint32_t>(F);
  if ((Bits & 0x7f800000u) == 0x7f800000u && (Bits & 0x7fffffu))
    return static_cast<uint16_t>((Bits >> 16) | 0x40); // quiet the NaN
  const uint32_t Lsb = (Bits >> 16) & 1;
  Bits += 0x7fffu + Lsb; // round to nearest even
  return static_cast<uint16_t>(Bits >> 16);
}

} // namespace gemm

#endif // GEMM_DTYPE_H
