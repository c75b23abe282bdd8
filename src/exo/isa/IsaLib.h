//===- IsaLib.h - Instruction library interface ---------------------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An instruction library is the hardware description the paper's §II-B
/// externalizes: a vector register memory space plus a set of Instr
/// definitions (semantic proc + C lowering). Switching architectures means
/// passing a different library to the same schedule (§III-C).
///
/// Libraries provided:
///   - neon:     ARM Neon 128-bit, f32 (4 lanes), f16 (8 lanes, "Neon8f"),
///               bf16 (8 lanes, "Neon8bf") and i8 (16 lanes, "Neon16b").
///               Matches the paper's Fig. 3 definitions; bf16/i8 compute is
///               exposed as K-grouped dot-product-accumulate (vbfdot/vsdot).
///               Not executable on this repo's x86 test hardware; codegen
///               output is golden-tested textually instead.
///   - avx2:     Intel AVX2+FMA, f32 (8 lanes), broadcast-style FMA.
///   - avx512:   Intel AVX-512, f32 (16 lanes), broadcast-style FMA.
///   - portable: GCC vector extensions, f32 (4 lanes), lane-style FMA with
///               the exact shape of the Neon schedule; executable anywhere.
///               No dot instructions — narrow types fall back to scalar
///               code there (UkrConfig::effectiveStyle degrades).
///
//===----------------------------------------------------------------------===//

#ifndef EXO_ISA_ISALIB_H
#define EXO_ISA_ISALIB_H

#include "exo/ir/Proc.h"

#include <string>
#include <vector>

namespace exo {

/// Accumulator kind of a widening K-grouped dot product over \p InTy inputs:
/// i8 -> i32 (the VNNI/sdot convention), f16/bf16 -> f32. Kinds that
/// accumulate in themselves map to themselves.
ScalarKind dotAccumKind(ScalarKind InTy);

/// Elements of \p InTy consumed per accumulator lane by one dot step: 4 for
/// i8 (sdot), 2 for f16/bf16 (bfdot pairs), 1 otherwise. This is
/// also the K-group width of the matching packed-panel layout.
unsigned dotGroupSize(ScalarKind InTy);

/// See file comment.
class IsaLib {
public:
  virtual ~IsaLib();

  /// Short identifier ("neon", "avx2", ...).
  virtual std::string name() const = 0;

  /// True when generated code can be compiled and run on this host.
  virtual bool hostExecutable() const = 0;

  /// True when the library has instructions for \p Ty.
  virtual bool supports(ScalarKind Ty) const = 0;

  /// The vector register memory space for \p Ty.
  virtual const MemSpace *space(ScalarKind Ty) const = 0;

  /// Lanes of one vector register for \p Ty.
  unsigned lanes(ScalarKind Ty) const { return space(Ty)->lanes(Ty); }

  /// C source prelude for generated kernels (includes / typedefs).
  virtual std::string prologue() const = 0;

  /// Extra compiler flags for JIT compilation of generated code.
  virtual std::string jitFlags() const = 0;

  /// dst[0:L] = src[0:L]; src in DRAM, dst in registers.
  virtual InstrPtr load(ScalarKind Ty) const = 0;
  /// dst[0:L] = src[0:L]; dst in DRAM, src in registers.
  virtual InstrPtr store(ScalarKind Ty) const = 0;
  /// dst[i] += lhs[i] * rhs[l] with rhs in registers and lane index l
  /// (the Neon vfmaq_laneq shape). Null when the ISA has no lane FMA.
  virtual InstrPtr fmaLane(ScalarKind Ty) const = 0;
  /// dst[i] += lhs[i] * s[0] with s a single element in DRAM (broadcast
  /// FMA, the natural x86 shape). Null when unavailable.
  virtual InstrPtr fmaBroadcast(ScalarKind Ty) const = 0;
  /// dst[i] = s[0] (broadcast/dup). Null when unavailable.
  virtual InstrPtr broadcast(ScalarKind Ty) const = 0;

  /// K-grouped widening dot-product-accumulate: with G = dotGroupSize(InTy)
  /// and A = dotAccumKind(InTy),
  ///
  /// \code
  ///   dst[i] += sum over kk in [0, G) of lhs[i, kk] * rhs[l, kk]
  /// \endcode
  ///
  /// where dst is an A-typed accumulator register (accSpace lanes) and
  /// lhs/rhs are InTy registers holding lanes x G elements (the Neon
  /// vdotq_laneq_s32 / vbfdotq_laneq_f32 shape; VNNI on x86). Null when the
  /// ISA has no dot instruction for \p InTy — callers fall back to scalar
  /// code.
  virtual InstrPtr dotAccum([[maybe_unused]] ScalarKind InTy) const {
    return nullptr;
  }

  /// Register space of dotAccum's accumulator operand; null iff dotAccum
  /// returns null for \p InTy.
  virtual const MemSpace *accSpace([[maybe_unused]] ScalarKind InTy) const {
    return nullptr;
  }
};

/// Built-in libraries.
const IsaLib &neonIsa();
const IsaLib &avx2Isa();
const IsaLib &avx512Isa();
const IsaLib &portableIsa();

/// Looks an ISA up by name; nullptr when unknown.
const IsaLib *findIsa(const std::string &Name);

/// All built-in libraries.
std::vector<const IsaLib *> allIsas();

} // namespace exo

#endif // EXO_ISA_ISALIB_H
