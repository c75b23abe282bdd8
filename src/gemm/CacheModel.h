//===- CacheModel.h - Analytical blocking model (Low et al.) --------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analytical model of "Analytical Modeling Is Enough for
/// High-Performance BLIS" (Low, Igual, Smith, Quintana-Ortí, TOMS 2016),
/// which the paper's ALG+ series uses to pick the cache blocking parameters
/// (mc, kc, nc) without auto-tuning:
///
///   - kc: the B micro-panel (kc x nr) and A micro-panel (mr x kc) share L1;
///     maximize kc subject to ways(Ar) + ways(Br) + 1 (for C) <= W_L1.
///   - mc: the packed A block (mc x kc) lives in L2 alongside a streaming B
///     micro-panel and C tile; maximize mc with two ways reserved.
///   - nc: the packed B block (kc x nc) lives in L3 (when present) with the
///     same one-way-per-stream reservation.
///
/// Results are rounded down to multiples of mr / nr / 4 respectively.
///
//===----------------------------------------------------------------------===//

#ifndef GEMM_CACHEMODEL_H
#define GEMM_CACHEMODEL_H

#include <cstdint>
#include <string>

namespace gemm {

/// One cache level. Assoc == 0 means the level is absent.
struct CacheLevel {
  int64_t SizeBytes = 0;
  int Assoc = 0;
  int LineBytes = 64;

  bool present() const { return Assoc > 0 && SizeBytes > 0; }
  int64_t waySize() const { return SizeBytes / Assoc; }
};

struct CacheConfig {
  CacheLevel L1, L2, L3;

  /// Detects the host's data caches from sysfs, once per process; falls
  /// back to a typical server configuration (32K/8, 1M/16, 32M/16) when
  /// unavailable.
  static CacheConfig host();

  /// The NVIDIA Carmel (paper testbed) configuration: 64K/4 L1D, 2M/16 L2
  /// per cluster, 4M/16 L3.
  static CacheConfig carmel();

  std::string describe() const;
};

/// The GotoBLAS blocking parameters.
struct BlockSizes {
  int64_t MC = 0, KC = 0, NC = 0;

  std::string describe() const;
};

/// Runs the analytical model for a micro-kernel of shape mr x nr over
/// elements of \p ElemBytes.
BlockSizes analyticalBlockSizes(const CacheConfig &Caches, int64_t Mr,
                                int64_t Nr, unsigned ElemBytes);

/// A deliberately naive fixed blocking (for the model-vs-fixed ablation).
BlockSizes fixedBlockSizes(int64_t Mr, int64_t Nr);

} // namespace gemm

#endif // GEMM_CACHEMODEL_H
