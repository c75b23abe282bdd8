//===- DiskCache.h - Persistent content-addressed JIT artifacts -----------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistent half of the JIT: compiled `.so` artifacts are published
/// into a content-addressed on-disk cache so every later process (and every
/// later run of the same process) loads the kernel with dlopen instead of
/// paying a `cc -O3 -shared` invocation. An entry is addressed by a 64-bit
/// FNV-1a hash of (C source, flags, symbol, compiler identity, ABI version);
/// anything that could change the produced code changes the key.
///
/// Layout under the cache root (default `~/.cache/exo-ukr/`, override with
/// EXO_JIT_CACHE_DIR; an empty EXO_JIT_CACHE_DIR disables the cache):
///
///   k<16-hex-digits>.so     the artifact
///   k<16-hex-digits>.meta   key=value sidecar (symbol, flags, compiler...)
///   .lock                   flock'd around store/prune/remove
///   priors/                 the tuned-prior database (gemm/PriorDb.h)
///
/// Writers stage into a `.tmp.<pid>` file and rename into place, so readers
/// never observe a partial artifact; the lock file only serializes the
/// mutating operations of concurrent processes. Eviction is LRU by mtime
/// (lookups touch their entry), bounded by EXO_JIT_CACHE_MAX_BYTES.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_JIT_DISKCACHE_H
#define EXO_JIT_DISKCACHE_H

#include "exo/support/Error.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace exo {

/// FNV-1a 64-bit over \p N bytes, chainable through \p Seed.
uint64_t fnv1a64(const void *Data, size_t N,
                 uint64_t Seed = 0xcbf29ce484222325ull);
uint64_t fnv1a64(std::string_view S, uint64_t Seed = 0xcbf29ce484222325ull);

/// Artifacts survive across processes, so the key must pin down everything
/// that decides the produced machine code beyond the source text. Bump when
/// the cache entry format (or the generated-kernel calling convention)
/// changes incompatibly.
inline constexpr uint32_t JitCacheAbiVersion = 1;

/// mkdir -p for the on-disk stores (this cache and gemm::PriorDb). Returns
/// true when the directory exists afterwards; false for an empty path.
bool makeDirs(const std::string &Path);

/// flock on <root>/.lock, released on scope exit. Serializes the mutating
/// operations of concurrent processes on one store; a failure to lock
/// degrades to lockless operation (rename is still atomic).
class StoreLock {
public:
  explicit StoreLock(const std::string &Root);
  ~StoreLock();
  StoreLock(const StoreLock &) = delete;
  StoreLock &operator=(const StoreLock &) = delete;

private:
  int Fd = -1;
};

/// The compiler the JIT shells out to: $EXO_CC or "cc".
std::string jitCompilerCommand();

/// Runs a shell command capturing combined stdout/stderr; returns the exit
/// code (-1 when the shell could not be spawned).
int jitRunCommand(const std::string &Cmd, std::string &Output);

/// "<resolved EXO_CC>\x1f<first line of `cc --version`>" — the compiler
/// identity mixed into every artifact key. Computed once per process.
const std::string &jitCompilerIdentity();

/// The shared key scheme of the in-memory and on-disk caches: FNV-1a 64 of
/// source, flags, symbol, compiler identity and ABI version, separated by
/// 0x1f so field boundaries cannot alias.
uint64_t jitArtifactKey(std::string_view CSource, std::string_view Flags,
                        std::string_view SymbolName);

/// Sidecar metadata stored next to each artifact (and shown by
/// `ukr_cachectl list`).
struct ArtifactMeta {
  std::string Symbol;
  std::string Flags;
  std::string Compiler;
  uint32_t Abi = JitCacheAbiVersion;
};

/// See file comment.
class JitDiskCache {
public:
  /// A cache over an explicit root directory (tests, cachectl --dir).
  explicit JitDiskCache(std::string Root);

  /// The process-wide cache at $EXO_JIT_CACHE_DIR / ~/.cache/exo-ukr.
  static JitDiskCache &global();

  /// Repoints the global cache (tests and `ukr_cachectl --dir`). Affects
  /// subsequent operations only; in-memory JIT handles stay valid.
  static void setGlobalRoot(const std::string &Root);

  /// False when no usable root directory exists (an empty root included).
  bool enabled() const;

  const std::string &root() const { return Root; }

  /// Path of the cached artifact for \p Key, or "" when absent. A hit
  /// bumps the entry's mtime (LRU recency).
  std::string lookup(uint64_t Key);

  /// Atomically publishes the finished object at \p SoPath (and \p Meta)
  /// under \p Key; returns the in-cache artifact path. Also prunes to the
  /// configured size bound while it holds the lock.
  Expected<std::string> store(uint64_t Key, const std::string &SoPath,
                              const ArtifactMeta &Meta);

  /// Deletes the entry (artifact + sidecar). True when something existed.
  bool remove(uint64_t Key);

  struct Entry {
    uint64_t Key = 0;
    std::string SoPath;
    ArtifactMeta Meta;
    uint64_t Bytes = 0;
    int64_t Mtime = 0;
    /// The sidecar existed but a field would not parse (e.g. a truncated
    /// or garbage abi= line). Meta keeps its defaults — it must not be
    /// trusted — and consumers treat the entry as corrupt (`ukr_cachectl
    /// verify` flags it; pruning evicts it first). A *missing* sidecar is
    /// legal and does not set this.
    bool MetaCorrupt = false;
  };

  /// All entries, oldest first.
  std::vector<Entry> list();

  /// Process-wide count of corrupt sidecars observed by list() scans
  /// (monotonic; one increment per corrupt entry per scan). Surfaces in
  /// ukr::CacheStats::CorruptMeta.
  static uint64_t corruptMetaObserved();

  /// Evicts oldest entries until the cache holds at most \p MaxBytes.
  /// Returns the number of evicted artifacts.
  size_t prune(uint64_t MaxBytes);

  /// The size bound used by automatic pruning: EXO_JIT_CACHE_MAX_BYTES (a
  /// positive byte count; anything else warns and is ignored) or 256 MiB.
  static uint64_t configuredMaxBytes();

private:
  std::string Root;
  bool RootUsable = false;

  std::string entryPath(uint64_t Key, const char *Ext) const;
  size_t pruneLocked(uint64_t MaxBytes);
};

} // namespace exo

#endif // EXO_JIT_DISKCACHE_H
