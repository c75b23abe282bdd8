//===- KernelRegistry.h - Generated-kernel cache and JIT handles ----------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns UkrConfig descriptions into callable kernels: runs the schedule,
/// emits C and JIT-compiles it with the system compiler. KernelService
/// (KernelService.h) is the one process-wide cache over buildKernel: the
/// GEMM framework asks it for the specialized kernel of each (mr, nr) it
/// encounters — the paper's "one auto-generated micro-kernel per edge case"
/// deployment model.
///
//===----------------------------------------------------------------------===//

#ifndef UKR_KERNELREGISTRY_H
#define UKR_KERNELREGISTRY_H

#include "exo/jit/Jit.h"
#include "ukr/UkrSchedule.h"

namespace ukr {

/// ABI of every generated f32 micro-kernel (parameter order follows the
/// reference spec after partial evaluation): C (NR x MR tile, row stride
/// ldc) += Ac (KC x MR panel) * Bc (KC x NR panel).
using MicroKernelF32 = void (*)(int64_t KC, int64_t Ldc, const float *Ac,
                                const float *Bc, float *C);

/// ABI of general alpha/beta kernels (UkrConfig::GeneralAlphaBeta, paper
/// Fig. 4): C = beta*C + Ac * (alpha*Bc).
using MicroKernelAxpbyF32 = void (*)(int64_t KC, int64_t Ldc,
                                     const float *Alpha, const float *Ac,
                                     const float *Bc, const float *Beta,
                                     float *C);

/// ABI of widened int8 kernels (UkrConfig::WidenAcc with Ty == i8): the C
/// tile is int32 and accumulation wraps around in two's complement.
using MicroKernelI8I32 = void (*)(int64_t KC, int64_t Ldc, const int8_t *Ac,
                                  const int8_t *Bc, int32_t *C);

/// A generated, compiled, callable kernel.
struct Kernel {
  UkrConfig Cfg;
  FmaStyle Style = FmaStyle::Scalar;
  exo::Proc Final;
  std::string CSource;
  exo::JitKernelPtr Jit;
  MicroKernelF32 Fn = nullptr;
  /// Set instead of Fn for GeneralAlphaBeta configurations.
  MicroKernelAxpbyF32 FnAxpby = nullptr;
  /// Set instead of Fn for widened int8 configurations.
  MicroKernelI8I32 FnI8 = nullptr;

  int64_t mr() const { return Cfg.MR; }
  int64_t nr() const { return Cfg.NR; }
};

/// Generates + compiles one kernel (uncached). Fn stays null when the
/// ISA is not executable on this host or no C compiler is available.
exo::Expected<Kernel>
buildKernel(const UkrConfig &Cfg,
            const exo::SchedOptions &Opts = exo::defaultSchedOptions());

/// Picks the widest host-executable ISA whose f32 vector width divides
/// \p MR; nullptr when none does (the scalar fallback case).
const exo::IsaLib *bestIsaForMr(int64_t MR);

/// The one ISA-per-shape selection rule: the UkrConfig for an Mr x Nr tile
/// of element kind \p Ty, with \p Preferred used unconditionally when
/// non-null and the widest dividing host ISA (bestIsaForMr) otherwise; a
/// shape no vector library divides degrades to the scalar FMA style. For
/// non-f32 kinds the preferred ISA is kept only when it supports the kind,
/// and i8/bf16 configs accumulate widened (WidenAcc, the dot-unit
/// contract). Every layer that turns a tile shape into a config —
/// ExoProvider's kernel memo, the Engine planner, `ukr_cachectl warm`'s
/// shape family, the ablation benches — must route through here so they
/// agree on the selection.
UkrConfig shapeConfig(int64_t Mr, int64_t Nr,
                      const exo::IsaLib *Preferred = nullptr,
                      bool UnrollCompute = false,
                      exo::ScalarKind Ty = exo::ScalarKind::F32);

} // namespace ukr

#endif // UKR_KERNELREGISTRY_H
