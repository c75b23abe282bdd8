//===- KernelService.h - The process's kernel cache and build pool --------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The kernel-cache service, and through global() the process's one cache
/// of generated kernels: each config is generated and built once, by a
/// worker pool. The blocking get() is how a GEMM gets a kernel; prefetch()
/// and warm() queue builds ahead of it. Built kernels flow through the
/// two-level JIT cache (in-process map + the persistent disk cache of
/// DiskCache.h), so a service constructed over a warm cache directory
/// serves every kernel from disk with zero compiler invocations — the AOT
/// warmup path of `ukr_cachectl warm`.
///
/// Observability: every service keeps a CacheStats ledger (hits, misses,
/// builds, failures, in-flight) and folds in the JIT-layer deltas (disk
/// hits, compiles, compile wall time) accumulated since its construction;
/// benches dump the global service's snapshot.
///
/// Concurrency: every counter mutation and map access happens under the
/// service's single mutex, and the JIT-layer counters it folds in are
/// likewise mutex-guarded (Jit.cpp) — audited for concurrent get() and
/// prefetch() callers racing on the same configs. Kernel pointers handed
/// out are stable for the service's lifetime.
///
//===----------------------------------------------------------------------===//

#ifndef UKR_KERNELSERVICE_H
#define UKR_KERNELSERVICE_H

#include "ukr/KernelRegistry.h"

#include <cstdio>
#include <vector>

namespace ukr {

/// Snapshot of one service's counters (see file comment).
struct CacheStats {
  uint64_t Hits = 0;      ///< requests served a ready specialized kernel
  uint64_t Misses = 0;    ///< requests that found no ready kernel
  uint64_t Builds = 0;    ///< kernel builds executed by this service
  uint64_t Failures = 0;  ///< builds that ended in an error
  uint64_t InFlight = 0;  ///< configs currently queued or building
  uint64_t DiskHits = 0;  ///< JIT artifacts loaded from the disk cache
  uint64_t Compiles = 0;  ///< compiler invocations
  double CompileMs = 0;   ///< wall time spent inside the compiler
  /// Disk-cache entries observed with an unparsable sidecar (process-wide,
  /// one per corrupt entry per directory scan; see
  /// exo::JitDiskCache::corruptMetaObserved).
  uint64_t CorruptMeta = 0;
};

/// See file comment.
class KernelService {
public:
  struct Options {
    /// Background compile workers (0 means 2).
    unsigned Workers = 0;
    /// When non-empty, repoints the global disk cache at this directory
    /// before the service starts (tests, cachectl --dir).
    std::string CacheDir;
  };

  KernelService();
  explicit KernelService(const Options &Opts);
  ~KernelService(); ///< Drains nothing; joins workers after Stop.

  KernelService(const KernelService &) = delete;
  KernelService &operator=(const KernelService &) = delete;

  /// The process-wide service: ExoProvider, Engine::warm, the fuzzer and
  /// the ablation benches share its one entry per config.
  static KernelService &global();

  /// Blocking: waits for (or performs, via the workers) the build and
  /// returns the specialized kernel.
  exo::Expected<const Kernel *> get(const UkrConfig &Cfg);

  /// Enqueues a build without waiting (cache warming).
  void prefetch(const UkrConfig &Cfg);

  /// Enqueues every config and blocks until all have resolved. Returns an
  /// error naming the configs that failed (the rest are still cached).
  exo::Error warm(const std::vector<UkrConfig> &Cfgs);

  /// Blocks until the queue is empty and no build is running.
  void wait();

  /// Number of ready (successfully built) kernels.
  size_t size() const;

  CacheStats stats() const;
  void resetStats();

private:
  struct Impl;
  Impl *I;
};

/// The shape family `ukr_cachectl warm` precompiles: the paper's §IV-C
/// kernel family around a full tile (default 8x12) — the tile itself plus
/// its M/N edge sub-shapes — with the ISA re-picked per shape exactly as
/// ExoProvider does. \p AllCandidates adds every pickShape candidate tile
/// and its edges.
std::vector<UkrConfig> standardShapeFamily(int64_t MR = 8, int64_t NR = 12,
                                           bool AllCandidates = false);

/// Prints \p St (and the process-wide JIT counters) to \p Out — the bench
/// epilogue and `ukr_cachectl` reporting path.
void printCacheStats(const CacheStats &St, std::FILE *Out);

/// The global service's ledger with the JIT-layer counters reported as
/// process-wide totals rather than per-service deltas, so compiles and disk
/// hits of private services and direct buildKernel calls are visible too.
/// What the benches dump.
CacheStats globalCacheStats();

} // namespace ukr

#endif // UKR_KERNELSERVICE_H
