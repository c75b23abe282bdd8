//===- MicroKernel.h - Micro-kernel ABI and provider interface ------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The macro-kernel is agnostic about where micro-kernels come from; a
/// KernelProvider supplies them. The three providers in this repository
/// mirror the paper's series:
///
///   - FixedProvider(hand kernel):   "NEON"/"BLIS" series — one monolithic
///     kernel; edge tiles go through a zero-padded scratch tile.
///   - ExoProvider:                  "EXO" series — a generated kernel per
///     (mr_eff, nr_eff) shape, built on demand by the ukr registry.
///
//===----------------------------------------------------------------------===//

#ifndef GEMM_MICROKERNEL_H
#define GEMM_MICROKERNEL_H

#include <cstdint>
#include <optional>

namespace gemm {

/// C tile (NR x MR, row stride Ldc) += Ac panel (KC x MR) * Bc panel
/// (KC x NR). Identical to ukr::MicroKernelF32.
using KernelFn = void (*)(int64_t Kc, int64_t Ldc, const float *Ac,
                          const float *Bc, float *C);

struct MicroKernel {
  int64_t MR = 0;
  int64_t NR = 0;
  KernelFn Fn = nullptr;
  const char *Name = "";
  /// Marks Fn as a portable stand-in rather than the kernel asked for. No
  /// in-tree provider sets it; it stays for callers that check it.
  bool IsFallback = false;
};

/// See file comment.
class KernelProvider {
public:
  virtual ~KernelProvider();

  /// The full-tile kernel (defines the blocking mr x nr).
  virtual MicroKernel main() = 0;

  /// A kernel specialized to an edge tile shape; std::nullopt directs the
  /// macro-kernel to the scratch-tile fallback.
  virtual std::optional<MicroKernel> edge(int64_t MrEff, int64_t NrEff) = 0;

  /// Whether edge() serves specialized kernels; picks the f32 packing mode
  /// (preferredEdgePack). The in-tree providers answer without building a
  /// kernel; the default asks edge(main().MR, 1), for a provider that
  /// cannot tell otherwise.
  virtual bool specializesEdges() { return edge(main().MR, 1).has_value(); }

  virtual const char *name() const = 0;
};

/// Wraps one monolithic kernel (no edge specialization).
class FixedProvider final : public KernelProvider {
public:
  FixedProvider(MicroKernel K, const char *ProviderName)
      : K(K), ProviderName(ProviderName) {}

  MicroKernel main() override { return K; }
  std::optional<MicroKernel> edge(int64_t, int64_t) override {
    return std::nullopt;
  }
  bool specializesEdges() override { return false; }
  const char *name() const override { return ProviderName; }

private:
  MicroKernel K;
  const char *ProviderName;
};

} // namespace gemm

#endif // GEMM_MICROKERNEL_H
