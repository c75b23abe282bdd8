//===- Jit.h - Runtime compilation of generated C -------------------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exo's contract is "emit plain C and let the user pick the compiler". The
/// JIT honours it literally: generated C is written to a scratch directory
/// (TMPDIR, else /tmp), compiled with the system C
/// compiler (override with EXO_CC), loaded with dlopen, and the kernel
/// symbol resolved. Compilations are cached at two levels: an in-process
/// map and the persistent content-addressed artifact cache of DiskCache.h,
/// both keyed by FNV-1a 64 of (source, flags, symbol, compiler identity,
/// ABI version). A disk hit skips the compiler entirely.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_JIT_JIT_H
#define EXO_JIT_JIT_H

#include "exo/support/Error.h"

#include <memory>
#include <string>

namespace exo {

/// A loaded kernel; keeps the shared object alive.
class JitKernel {
public:
  JitKernel(void *Handle, void *Sym, std::string SoPath);
  ~JitKernel();
  JitKernel(const JitKernel &) = delete;
  JitKernel &operator=(const JitKernel &) = delete;

  /// Raw function pointer.
  void *symbol() const { return Sym; }

  /// Typed function pointer, e.g. `K->as<void (*)(int64_t, ...)>()`.
  template <typename Fn> Fn as() const {
    return reinterpret_cast<Fn>(Sym);
  }

private:
  void *Handle;
  void *Sym;
  std::string SoPath;
};

using JitKernelPtr = std::shared_ptr<JitKernel>;

/// Compiles \p CSource with `$EXO_CC -O3 <ExtraFlags> -shared -fPIC` and
/// resolves \p SymbolName. Returns the loaded kernel or a diagnostic
/// including the compiler's stderr.
Expected<JitKernelPtr> jitCompile(const std::string &CSource,
                                  const std::string &SymbolName,
                                  const std::string &ExtraFlags);

/// True when a working C compiler is available for jitCompile.
bool jitAvailable();

/// Process-wide JIT counters; the building blocks of the kernel-cache
/// observability layer (ukr::CacheStats aggregates these per service).
struct JitStats {
  uint64_t MemHits = 0;         ///< served from the in-process map
  uint64_t DiskHits = 0;        ///< loaded from the persistent cache
  uint64_t Compiles = 0;        ///< compiler invocations that succeeded
  uint64_t CompileFailures = 0; ///< compiler invocations that failed
  double CompileMs = 0;         ///< wall time spent inside the compiler
};

/// Snapshot of the counters above.
JitStats jitStats();

/// Zeroes the counters (tests).
void jitResetStats();

/// Drops the in-process compilation map so the next jitCompile must go to
/// the disk cache or the compiler. Loaded kernels stay valid (shared_ptr).
/// Test hook for exercising the persistence path within one process.
void jitClearMemoryCache();

} // namespace exo

#endif // EXO_JIT_JIT_H
