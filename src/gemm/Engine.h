//===- Engine.h - Plan-once/execute-many GEMM front door ------------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving-path entry point: `Engine::sgemm` looks like a BLAS call,
/// but behind it every distinct problem shape is planned once — micro-
/// kernel tile chosen by the planner (Planner.h), kernels resolved through
/// the provider, blocking clamped, team factorized, edge kernels probed —
/// and the resulting ExecPlan is cached and re-executed on every later
/// call. The paper's thesis (specialize the micro-kernel to the problem,
/// §IV) moves from bench-harness code into the dispatch layer.
///
/// Guarantees:
///   - One routine for every dtype: sgemm, gemm and sgemmStridedBatched
///     forward to gemmStridedBatched (as gemm::Client's doors forward to
///     its one request), which validates through the argument rules shared
///     with the Client (detail::checkGemmArgs), runs a lone call or the
///     batch core behind sgemmBatched, and ends in the one five-loop
///     detail::executeGemm. So sgemm and gemm(F32) agree bitwise, batch
///     items of every dtype equal lone calls bitwise, and every dtype is
///     pooled and thread-count invariant alike (EngineTest,
///     PrecisionTest, BatchedTest, GemmDriverTest).
///   - Degenerate calls (m/n/k == 0, alpha == 0) return before touching
///     the plan cache and never allocate or plan.
///   - The steady state performs zero heap allocations per call: plans are
///     cached, workspaces pooled per plan, and team dispatch uses the
///     ThreadPool's raw-callback form (asserted by engine_alloc_test).
///
/// Concurrency: one Engine may serve concurrent callers. Plan lookup takes
/// a shared lock; a miss builds the plan exactly once per key (concurrent
/// requesters for the same shape wait rather than duplicate the JIT work).
/// Every call runs its plan's fixed team (resolveGemmThreads) through
/// ThreadPool::parallel, so concurrent callers queue FIFO for workers
/// instead of oversubscribing them.
///
/// Planning: the planner picks the tile in two stages — the tuned prior
/// database (PriorDb.h, behind the never-lose gate), then the analytical
/// model (Planner.h).
///
/// Knobs: EXO_GEMM_PLAN_CACHE_CAP (entry cap, approximate-LRU eviction past
/// it); see docs/KNOBS.md.
///
//===----------------------------------------------------------------------===//

#ifndef GEMM_ENGINE_H
#define GEMM_ENGINE_H

#include "gemm/Gemm.h"
#include "gemm/Planner.h"

#include <memory>

namespace gemm {

/// How an Engine sources micro-kernels. The fixed series mirror the
/// paper's baselines; Auto prefers generated kernels and degrades to the
/// portable BLIS-style kernel when the JIT cannot produce one.
enum class EngineSeries : uint8_t {
  Auto,         ///< Exo when the JIT delivers, Blis otherwise
  Exo,          ///< generated kernel per shape (ExoProvider)
  HandVector,   ///< the hand-written 8x12 vector kernel ("ALG+NEON")
  Blis,         ///< the BLIS-style C kernel ("ALG+BLIS")
  BlisPrefetch, ///< the prefetching variant ("BLIS")
  Custom,       ///< caller-supplied provider (EngineConfig::Provider)
};

struct EngineConfig {
  EngineSeries Series = EngineSeries::Auto;
  /// Provider for EngineSeries::Custom; shared so cached plans can hold
  /// the kernels alive past caller scope.
  std::shared_ptr<KernelProvider> Provider;
  /// Restricts planner tile candidates to this library's vector width
  /// (the figure benches keep every series at one width). Part of the
  /// plan key.
  const exo::IsaLib *Isa = nullptr;
  /// Pin the full tile instead of consulting the planner (> 0 both).
  int64_t ForceMR = 0, ForceNR = 0;
  /// Macro-kernel team size; 0 resolves EXO_GEMM_THREADS per call
  /// (resolveGemmThreads, ThreadPool.h).
  int64_t Threads = 0;
  bool SpecializeEdges = true;
  bool UnrollCompute = false;
  /// Ablation overrides; unset uses the analytical model / the provider's
  /// edge support (preferredEdgePack; f32 plans only).
  std::optional<BlockSizes> Blocks;
  std::optional<EdgePack> PackMode;
  /// Plan-cache entry cap; -1 defers to EXO_GEMM_PLAN_CACHE_CAP (default
  /// 256 entries).
  int64_t PlanCacheCap = -1;
  /// Consult the autotuner's persistent prior database (PriorDb::global(),
  /// the `priors/` directory of the JIT cache root) before the model.
  /// false is the ablation arm benches use to measure the model alone.
  bool TunedPriors = true;
};

/// Plan-cache counters (relaxed; exact under external synchronization).
struct EngineStats {
  uint64_t Hits = 0;       ///< calls served by a cached plan
  uint64_t Misses = 0;     ///< calls that had to build (or wait for) a plan
  uint64_t Builds = 0;     ///< plans built (exactly one per cached key)
  uint64_t Evictions = 0;  ///< plans dropped by the cache cap
  uint64_t Degenerate = 0; ///< calls answered by the quick return
  uint64_t StickyErrors = 0; ///< sticky build failures recorded in the cache
  uint64_t BatchedItems = 0;  ///< items run by the batch core (sgemmBatched
                              ///< and strided batches of two or more)
  uint64_t BatchedGroups = 0; ///< distinct shape groups executed in batches
  uint64_t BatchedCrossItem = 0; ///< items run whole-item across the pool
  /// Items whose packB was skipped: they ran in a shared-B run behind an
  /// earlier item that had already packed every B block they use.
  uint64_t BatchedBShared = 0;
  // Per-plan provenance (PlanSource), counted at build time.
  uint64_t PlansFromModel = 0; ///< analytical-model tiles
  uint64_t PlansFromTuned = 0; ///< autotuner prior-database tiles
  /// Tuned records rejected during selection: inadmissible tile or a
  /// non-positive margin (the never-lose gate).
  uint64_t PriorRejected = 0;
  /// Live plan-cache entries per dtype, indexed by DType (the
  /// `ukr_cachectl stats --json` per-dtype breakdown). A gauge, not a
  /// counter: stats() counts the cache's current contents, so unlike the
  /// monotonic counters above these drop when plans are evicted or
  /// cleared.
  uint64_t PlansByDtype[DTypeCount] = {};
};

/// One problem of a batch handed to Engine::sgemmBatched. Identical field
/// semantics to the corresponding sgemm arguments. Precondition: no
/// item's C may overlap another item's C, or any item's A or B.
/// Small-item groups execute concurrently, a slice of items per pool
/// worker, and items sharing a B pointer run as one shared-B run that
/// packs each B block once before any of them writes C — so an overlap
/// would be a data race, and would break the batched ==
/// N-sequential-calls equivalence.
/// A and B may be shared between items freely.
struct GemmBatchItem {
  Trans TA = Trans::None, TB = Trans::None;
  int64_t M = 0, N = 0, K = 0;
  float Alpha = 1.0f;
  const float *A = nullptr;
  int64_t Lda = 0;
  const float *B = nullptr;
  int64_t Ldb = 0;
  float Beta = 0.0f;
  float *C = nullptr;
  int64_t Ldc = 0;
};

/// See file comment.
class Engine {
public:
  Engine(); ///< EngineConfig defaults (Auto series).
  explicit Engine(const EngineConfig &Cfg);
  ~Engine();

  Engine(const Engine &) = delete;
  Engine &operator=(const Engine &) = delete;

  /// The process-wide default-configured Engine (examples, dnn drivers).
  static Engine &global();

  /// The one GEMM routine every door below forwards to (the mirror of
  /// gemm::Client::gemmStridedBatched): BatchCount column-major problems,
  /// item i computing C + i*StrideC = alpha * op(A + i*StrideA) *
  /// op(B + i*StrideB) + beta * (C + i*StrideC), strides in elements (the
  /// cuBLAS layout, and the gemmd wire's). Operand storage is in \p Ty's
  /// element types (dtypeInBytes / dtypeOutBytes; docs/PRECISION.md):
  ///
  ///   F32    alpha/beta are rounded to f32 first, so every f32 spelling
  ///          (sgemm, gemm(F32), the batches) agrees bitwise.
  ///   F16    A/B/C are IEEE binary16 (uint16_t storage); FMAs in f32 over
  ///   BF16   convert-packed panels (bf16 likewise), alpha/beta applied in
  ///          f32, C rounded to storage (RNE) once per Kc depth block.
  ///   I8I32  A/B are int8, C is int32; i32 accumulate with two's-
  ///          complement wraparound. Alpha and beta must be exact integers
  ///          (a fractional scale is rejected — quantization policy lives
  ///          in the caller).
  ///
  /// Arguments obey detail::checkGemmArgs (Gemm.h), the rules gemm::Client
  /// checks too: StrideA/StrideB may be 0 (operand shared across items),
  /// and with BatchCount > 1 StrideC must keep the C items disjoint,
  /// because items may run concurrently. Degenerate calls (m/n/k == 0,
  /// alpha == 0) return before touching the plan cache: beta == 0
  /// overwrites in storage type, A/B are unread. A count of 1 is a lone
  /// call (allocation-free once warm); larger counts run the batch core
  /// behind sgemmBatched, so each item is bitwise equal to a lone call.
  /// Every dtype flows through the same plan cache, pooled workspaces and
  /// five-loop executor; plans are keyed by dtype.
  exo::Error gemmStridedBatched(DType Ty, Trans TA, Trans TB, int64_t M,
                                int64_t N, int64_t K, double Alpha,
                                const void *A, int64_t Lda, int64_t StrideA,
                                const void *B, int64_t Ldb, int64_t StrideB,
                                double Beta, void *C, int64_t Ldc,
                                int64_t StrideC, int64_t BatchCount);

  /// The typed lone call: C = alpha * op(A) * op(B) + beta * C.
  exo::Error gemm(DType Ty, Trans TA, Trans TB, int64_t M, int64_t N,
                  int64_t K, double Alpha, const void *A, int64_t Lda,
                  const void *B, int64_t Ldb, double Beta, void *C,
                  int64_t Ldc) {
    return gemmStridedBatched(Ty, TA, TB, M, N, K, Alpha, A, Lda, 0, B, Ldb,
                              0, Beta, C, Ldc, 0, 1);
  }

  /// The f32 lone call, kept as the BLAS-shaped entry the rest of the stack
  /// calls; fails like gemm(), or when no runnable kernel exists for the
  /// shape.
  exo::Error sgemm(Trans TA, Trans TB, int64_t M, int64_t N, int64_t K,
                   float Alpha, const float *A, int64_t Lda, const float *B,
                   int64_t Ldb, float Beta, float *C, int64_t Ldc) {
    return gemm(DType::F32, TA, TB, M, N, K, Alpha, A, Lda, B, Ldb, Beta, C,
                Ldc);
  }

  /// Non-transposed convenience form.
  exo::Error sgemm(int64_t M, int64_t N, int64_t K, float Alpha,
                   const float *A, int64_t Lda, const float *B, int64_t Ldb,
                   float Beta, float *C, int64_t Ldc) {
    return sgemm(Trans::None, Trans::None, M, N, K, Alpha, A, Lda, B, Ldb,
                 Beta, C, Ldc);
  }

  /// The f32 strided batch.
  exo::Error sgemmStridedBatched(Trans TA, Trans TB, int64_t M, int64_t N,
                                 int64_t K, float Alpha, const float *A,
                                 int64_t Lda, int64_t StrideA, const float *B,
                                 int64_t Ldb, int64_t StrideB, float Beta,
                                 float *C, int64_t Ldc, int64_t StrideC,
                                 int64_t BatchCount) {
    return gemmStridedBatched(DType::F32, TA, TB, M, N, K, Alpha, A, Lda,
                              StrideA, B, Ldb, StrideB, Beta, C, Ldc, StrideC,
                              BatchCount);
  }

  /// Executes \p Count independent f32 GEMMs, result-equivalent (bitwise,
  /// for every thread count) to calling sgemm once per item in order — the
  /// batch core every batch runs on. Items are grouped by (TA, TB, M, N, K)
  /// so each distinct shape hits the plan cache once, and each group picks
  /// its execution strategy via the planner's cache model
  /// (batchPrefersCrossItem): large items keep the intra-item team split,
  /// small items run whole — a contiguous slice of items per pool worker
  /// with its own pooled packing workspace — so a batch of thousands of
  /// tiny GEMMs stops wasting the pool on shapes too small to split. Within
  /// a group (or a worker's slice), consecutive items with the same B
  /// pointer and Ldb form one shared-B run whose B blocks are packed once
  /// (EngineStats::BatchedBShared). Validates every item (sgemm's argument
  /// rules) and plans every group before any work: on an invalid item or a
  /// plan error, no C is written. Degenerate items (M/N/K == 0,
  /// alpha == 0) follow sgemm's quick-return semantics wherever they sit
  /// in the batch.
  exo::Error sgemmBatched(const GemmBatchItem *Items, int64_t Count);

  /// Convenience overload.
  exo::Error sgemmBatched(const std::vector<GemmBatchItem> &Items) {
    return sgemmBatched(Items.data(), static_cast<int64_t>(Items.size()));
  }

  /// Builds (and caches) the plan for a shape ahead of traffic. The build
  /// resolves the plan's kernel family through KernelService — the main
  /// kernel, plus the edge widths the shape dispatches for F32 (the other
  /// dtypes run no edge kernels; I8I32 compiles nothing), so the next
  /// call runs fully specialized — the `ukr_cachectl warm
  /// --shape/--model/--dtype` path.
  exo::Error warm(DType Ty, Trans TA, Trans TB, int64_t M, int64_t N,
                  int64_t K);

  /// F32 warm-up.
  exo::Error warm(Trans TA, Trans TB, int64_t M, int64_t N, int64_t K) {
    return warm(DType::F32, TA, TB, M, N, K);
  }

  /// Tile + provider the cached (or freshly built) plan for this shape
  /// uses; builds the plan as a side effect. For tests and bench labels.
  exo::Expected<PlanChoice> planFor(Trans TA, Trans TB, int64_t M, int64_t N,
                                    int64_t K);

  /// Drops every cached plan (bench_dispatch's cold-plan series; tests).
  void clearPlanCache();

  /// Cached plan count.
  size_t planCount() const;

  EngineStats stats() const;
  void resetStats();

  /// The active series' display name ("exo", "blis", ...).
  const char *seriesName() const;

private:
  struct Impl;
  Impl *I;
};

} // namespace gemm

#endif // GEMM_ENGINE_H
