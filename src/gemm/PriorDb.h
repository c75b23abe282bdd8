//===- PriorDb.h - Persistent machine-keyed tuning priors -----------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistent half of the autotuner (Tuner.h): measured schedule winners
/// survive the process in an on-disk database the planner consults before
/// its analytical model. A record pins the *machine* it was measured on —
/// host-executable ISAs, cache geometry, JIT compiler identity, record
/// version — via the same FNV-1a content addressing the JIT disk cache
/// uses, so a copied database or a hardware/toolchain change can never
/// smuggle a stale tile into the planner.
///
/// Layout under the database root (default: `priors/` under the JIT cache
/// root, so `~/.cache/exo-ukr/priors`; EXO_JIT_CACHE_DIR moves both):
///
///   p<16-hex-digits>.prior   exact-shape record: key is
///                            FNV-1a(machine, m, n, k)
///   c<16-hex-digits>.prior   shape-class representative: key is
///                            FNV-1a(machine, class); holds the best tuned
///                            record of the class, consulted when no exact
///                            record exists
///   *.prior.bad              quarantined entries (unparsable, truncated,
///                            or version-mismatched records; see
///                            PriorDb::quarantine)
///   .lock                    flock'd around store/quarantine/prune
///
/// Writers stage into a `.tmp.<pid>` file and rename into place (readers
/// never observe a partial record); the lock only serializes mutating
/// operations of concurrent processes. Records are key=value text, one
/// field per line, version-checked on read: anything that fails the checked
/// parse is treated as corrupt, never half-trusted.
///
/// The never-lose gate lives in the record itself: every tuned record
/// stores the measured GFLOPS of the analytical model's own choice on the
/// same shape (ModelGflops / ModelMR / ModelNR). The planner refuses any
/// record whose stored margin is non-positive, so a tuned prior cannot
/// lose to the model on its own shape (see Planner::choosePlan and
/// docs/TUNING.md).
///
//===----------------------------------------------------------------------===//

#ifndef GEMM_PRIORDB_H
#define GEMM_PRIORDB_H

#include "exo/support/Error.h"
#include "gemm/DType.h"
#include "ukr/KernelRegistry.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace gemm {

/// Bump when the record format (or the meaning of a field) changes
/// incompatibly; readers quarantine records of any other version.
inline constexpr uint32_t PriorDbVersion = 1;

/// FNV-1a over everything that decides whether a measured winner transfers:
/// the host-executable ISA set, the detected cache geometry, the JIT
/// compiler identity, and the record version, 0x1f-separated like
/// jitArtifactKey. Computed once per process.
uint64_t priorMachineKey();

/// The power-of-two shape-class bucket a problem falls in (e.g.
/// "g128x128x2048"): the fallback key for shapes without an exact record.
std::string priorShapeClass(int64_t M, int64_t N, int64_t K);

/// One measured tuning winner. Blocking fields at 0 mean "use the
/// analytical model's blocking for this tile"; Prefetch and Fma are
/// recorded for forward compatibility (the v1 search resolves the FMA
/// style through ukr::shapeConfig and has no prefetch knob yet).
struct PriorRecord {
  uint32_t Version = PriorDbVersion;
  uint64_t Machine = 0; ///< priorMachineKey() of the measuring host.
  /// Element type the winner was measured under. Part of the storage key
  /// for non-f32 records; absent from pre-dtype records, which parse as
  /// f32 (the only dtype that existed when they were written).
  DType Dtype = DType::F32;
  int64_t M = 0, N = 0, K = 0;
  std::string Class; ///< priorShapeClass(M, N, K), denormalized.
  std::string Isa = "portable"; ///< ISA the tuned kernel ran on (name).
  int64_t MR = 0, NR = 0;
  int64_t MC = 0, NC = 0, KC = 0;
  bool UnrollCompute = false;
  int64_t Prefetch = 0;
  std::string Fma = "auto";
  int64_t Threads = 1; ///< Team size the measurement used.
  double TunedGflops = 0;
  /// The never-lose baseline: the analytical choice, measured on the same
  /// machine, data, and time budget as the winner.
  int64_t ModelMR = 0, ModelNR = 0;
  double ModelGflops = 0;

  /// Stored margin over the model's own choice; the planner rejects
  /// records where this is non-positive.
  double margin() const { return TunedGflops - ModelGflops; }
};

/// Record (de)serialization: versioned key=value text. parsePriorRecord
/// fails (rather than defaulting) on a missing mandatory field, a value
/// that does not fully parse, or a version other than PriorDbVersion —
/// the corrupt-quarantine path.
std::string formatPriorRecord(const PriorRecord &R);
exo::Expected<PriorRecord> parsePriorRecord(const std::string &Text);

/// The kernel config a record's tile maps to, through the one
/// ISA-per-shape rule (ukr::shapeConfig) every other layer uses. The
/// fuzzer's prior-shaped samples and the Engine agree on this mapping.
ukr::UkrConfig priorRecordConfig(const PriorRecord &R);

/// See file comment.
class PriorDb {
public:
  /// A database over an explicit root directory (tests, CLI --db).
  explicit PriorDb(std::string Root);

  /// The process-wide database at `<exo::JitDiskCache::global().root()>/
  /// priors`; it follows the cache root when that is repointed, and an
  /// empty cache root leaves it disabled.
  static PriorDb &global();

  /// Repoints the global database (tests, `ukr_cachectl --db`) until the
  /// JIT cache root next moves. Affects subsequent operations only. Note
  /// the Engine's plan cache snapshots planner decisions: clearPlanCache()
  /// after repointing.
  static void setGlobalRoot(const std::string &Root);

  /// False when no usable root directory exists (an empty root included).
  bool enabled() const;

  const std::string &root() const { return Root; }

  /// Validates and atomically publishes \p R under its exact-shape key;
  /// also installs it as the class representative when it beats the
  /// incumbent's TunedGflops. Machine defaults to priorMachineKey() when 0.
  exo::Error store(const PriorRecord &R);

  /// Best record for this machine and shape: the exact (m, n, k) record
  /// when present, else the shape-class representative. Corrupt entries
  /// encountered on the way are quarantined; machine-key or dimension
  /// mismatches are rejected (counted in stats()). \p ExactOut reports
  /// which level hit.
  std::optional<PriorRecord> lookup(int64_t M, int64_t N, int64_t K,
                                    bool *ExactOut = nullptr);

  /// Dtype-keyed variant: non-f32 records live under dtype-qualified keys,
  /// so an f16 lookup can only ever see f16 winners (and F32 behaves
  /// exactly like the overload above).
  std::optional<PriorRecord> lookup(int64_t M, int64_t N, int64_t K,
                                    DType Ty, bool *ExactOut = nullptr);

  struct Entry {
    PriorRecord Rec; ///< Defaults when Corrupt — must not be trusted.
    std::string Path;
    uint64_t Bytes = 0;
    int64_t Mtime = 0;
    bool Corrupt = false;      ///< Unparsable or version-mismatched.
    bool MachineMatch = false; ///< Rec.Machine == priorMachineKey().
    bool ClassEntry = false;   ///< A c*.prior class representative.
  };

  /// All live (non-quarantined) entries, oldest first.
  std::vector<Entry> list();

  /// Renames every corrupt entry to `<name>.bad` so it is never reparsed;
  /// returns how many were quarantined.
  size_t quarantine();

  /// Deletes quarantined `.bad` files, foreign-machine records when
  /// \p DropForeign, and — when \p MaxRecords > 0 — the oldest records
  /// over that cap. Returns the number of files removed.
  size_t prune(bool DropForeign, int64_t MaxRecords = 0);

  /// Process-wide monotonic counters (all PriorDb instances).
  struct Stats {
    uint64_t Lookups = 0;
    uint64_t Hits = 0;      ///< exact-shape lookup hits
    uint64_t ClassHits = 0; ///< class-representative fallback hits
    uint64_t MachineMismatch = 0;
    uint64_t CorruptSeen = 0;
    uint64_t Quarantined = 0;
  };
  static Stats stats();

private:
  std::string Root;
  bool RootUsable = false;

  std::string entryPath(uint64_t Key, bool ClassEntry) const;
  std::optional<PriorRecord> readChecked(const std::string &Path,
                                         bool &SawFile);
};

} // namespace gemm

#endif // GEMM_PRIORDB_H
