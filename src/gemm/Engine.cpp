//===- Engine.cpp ---------------------------------------------------------===//

#include "gemm/Engine.h"

#include "exo/support/Env.h"
#include "gemm/ExoProvider.h"
#include "gemm/PriorDb.h"
#include "gemm/Kernels.h"
#include "gemm/ThreadPool.h"
#include "obs/Obs.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <tuple>

using namespace exo;
using namespace gemm;

namespace {

/// Everything that distinguishes one cached plan from another within an
/// Engine. Threads enter pre-resolved (EXO_GEMM_THREADS can change between
/// calls); the ISA pointer covers engines reconfigured per series.
struct PlanKey {
  uint8_t TA = 0, TB = 0;
  int64_t M = 0, N = 0, K = 0;
  int64_t T = 1;
  const exo::IsaLib *Isa = nullptr;
  uint8_t Ty = 0; ///< DType of the call

  bool operator<(const PlanKey &O) const {
    return std::tie(TA, TB, M, N, K, T, Isa, Ty) <
           std::tie(O.TA, O.TB, O.M, O.N, O.K, O.T, O.Isa, O.Ty);
  }
};

/// A resolved, immutable-after-publish execution plan plus its workspace
/// pool. Geometry and edge kernels are never mutated once the plan is
/// visible to other threads; in-flight executions hold it through their
/// shared_ptr, so eviction never pulls a plan out from under a call.
struct ExecPlan {
  detail::GemmGeometry G;
  std::vector<std::optional<MicroKernel>> Edges;
  std::shared_ptr<KernelProvider> Provider;
  PlanChoice Choice;

  /// Pooled workspaces, bounded by the reserved capacity so release()
  /// never reallocates the vector (zero-allocation steady state).
  std::mutex PoolMu;
  std::vector<std::unique_ptr<detail::GemmWorkspace>> Pool;

  /// A pooled workspace, or a freshly ensured one when every pooled
  /// workspace is in use.
  std::unique_ptr<detail::GemmWorkspace> acquire() {
    {
      std::lock_guard<std::mutex> Lock(PoolMu);
      if (!Pool.empty()) {
        std::unique_ptr<detail::GemmWorkspace> W = std::move(Pool.back());
        Pool.pop_back();
        return W;
      }
    }
    auto W = std::make_unique<detail::GemmWorkspace>();
    W->ensure(G);
    return W;
  }
  void release(std::unique_ptr<detail::GemmWorkspace> W) {
    std::lock_guard<std::mutex> Lock(PoolMu);
    if (Pool.size() < Pool.capacity())
      Pool.push_back(std::move(W));
    // Past capacity the workspace is simply dropped: an unusual burst of
    // concurrent callers shrinks back to the bounded pool afterwards.
  }
};

constexpr size_t WorkspacePoolCap = 16;

struct CacheEntry {
  std::shared_ptr<ExecPlan> Plan; ///< null while building
  std::string BuildError;         ///< sticky failure (set once, final)
  bool Building = false;
  std::atomic<uint64_t> LastUse{0}; ///< approximate-LRU stamp
};

int64_t envPlanCacheCap() {
  return exo::envInt("EXO_GEMM_PLAN_CACHE_CAP",
                     std::getenv("EXO_GEMM_PLAN_CACHE_CAP"),
                     /*Default=*/256, /*Min=*/1, /*Max=*/1 << 30);
}

/// The executor's call bundle from the user-facing scalars: f32 scales for
/// the float dtypes, exact integers for I8I32 (checkGemmArgs vetted them).
detail::GemmCall makeCall(DType Ty, Trans TA, Trans TB, int64_t M, int64_t N,
                          int64_t K, double Alpha, const void *A, int64_t Lda,
                          const void *B, int64_t Ldb, double Beta, void *C,
                          int64_t Ldc) {
  detail::GemmCall Cl{TA, TB, M, N, K, static_cast<float>(Alpha),
                      static_cast<float>(Beta), 1, 1, A, Lda, B, Ldb, C, Ldc};
  if (Ty == DType::I8I32) {
    Cl.AlphaI = static_cast<int64_t>(Alpha);
    Cl.BetaI = static_cast<int64_t>(Beta);
  }
  return Cl;
}

} // namespace

struct Engine::Impl {
  EngineConfig Cfg;
  int64_t Cap = 256;
  /// Resolved fixed-series / custom provider (null for Exo; Auto keeps it
  /// around as the degradation target).
  std::shared_ptr<KernelProvider> Fixed;
  const char *Name = "auto";

  std::shared_mutex Mu; ///< guards Cache
  std::condition_variable_any Cv;
  std::map<PlanKey, CacheEntry> Cache;

  std::mutex ProvMu; ///< guards ExoProvs (build path only)
  std::map<std::pair<int64_t, int64_t>, std::shared_ptr<ExoProvider>>
      ExoProvs;

  std::atomic<uint64_t> Tick{0};
  std::atomic<uint64_t> Hits{0}, Misses{0}, Builds{0}, Evictions{0},
      Degenerate{0}, StickyErrors{0};
  std::atomic<uint64_t> BatchedItems{0}, BatchedGroups{0},
      BatchedCrossItem{0}, BatchedBShared{0};
  std::atomic<uint64_t> PlansFromModel{0}, PlansFromTuned{0},
      PriorRejected{0};

  std::shared_ptr<ExoProvider> exoProviderFor(int64_t MR, int64_t NR,
                                              bool UnrollCompute) {
    // UnrollCompute is part of the memo key: a tuned prior can request the
    // unrolled schedule for one shape while others keep the default.
    const int64_t UnrollTag = UnrollCompute ? (int64_t(1) << 62) : 0;
    std::lock_guard<std::mutex> Lock(ProvMu);
    auto It = ExoProvs.find({MR, NR | UnrollTag});
    if (It != ExoProvs.end())
      return It->second;
    auto P = std::make_shared<ExoProvider>(MR, NR, Cfg.Isa, UnrollCompute);
    P->setSpecializeEdges(Cfg.SpecializeEdges);
    ExoProvs.emplace(std::make_pair(MR, NR | UnrollTag), P);
    return P;
  }

  PlanKey key(DType Ty, Trans TA, Trans TB, int64_t M, int64_t N, int64_t K,
              int64_t T) const {
    return PlanKey{static_cast<uint8_t>(TA), static_cast<uint8_t>(TB), M, N,
                   K, T, Cfg.Isa, static_cast<uint8_t>(Ty)};
  }

  Expected<std::shared_ptr<ExecPlan>> build(const PlanKey &Key);
  std::shared_ptr<ExecPlan> lookupOrBuild(const PlanKey &Key, Error &Err);
  void evictLocked(const PlanKey *Keep = nullptr);
  void quickReturn(DType Ty, const detail::GemmCall &Cl);
  Error run(DType Ty, const detail::GemmCall &Cl);
  Error runBatch(DType Ty, std::vector<detail::GemmCall> &Calls);
};

Expected<std::shared_ptr<ExecPlan>> Engine::Impl::build(const PlanKey &Key) {
  EXO_OBS_SPAN("plan.build");
  // Every entry point (sgemm, gemm, batches, planFor, warm) funnels through
  // here, so this is the one place the misconfiguration must be caught
  // before the fixed-series branch dereferences a null provider.
  if (Cfg.Series == EngineSeries::Custom && !Fixed)
    return errorf("gemm engine: custom series without a provider");
  const DType Ty = static_cast<DType>(Key.Ty);

  PlanChoice Choice;
  std::shared_ptr<KernelProvider> Provider;
  MicroKernel Main;
  if (Ty == DType::I8I32) {
    // The i8 policy's built-in K-grouped dot: no provider, no JIT — the
    // planner answers with the dot's fixed tile (Planner.h).
    Choice = choosePlan(Key.M, Key.N, Key.K, nullptr, nullptr, Ty, nullptr);
    Main.MR = Choice.MR;
    Main.NR = Choice.NR;
  } else {
    const bool WantExo = Cfg.Series == EngineSeries::Exo ||
                         Cfg.Series == EngineSeries::Auto;
    if (WantExo) {
      if (Cfg.ForceMR > 0 && Cfg.ForceNR > 0) {
        Choice =
            PlanChoice::make(Cfg.ForceMR, Cfg.ForceNR, PlanSource::Forced);
      } else {
        PlanOutcome Out;
        Choice = choosePlan(Key.M, Key.N, Key.K, Cfg.Isa, &Out, Ty,
                            Cfg.TunedPriors ? &PriorDb::global() : nullptr);
        PriorRejected.fetch_add(Out.TunedRejected, std::memory_order_relaxed);
      }
      Provider = exoProviderFor(Choice.MR, Choice.NR,
                                Cfg.UnrollCompute || Choice.UnrollCompute);
    } else {
      Provider = Fixed;
      MicroKernel Mk = Provider->main();
      Choice = PlanChoice::make(Mk.MR, Mk.NR, PlanSource::Fixed);
    }

    Main = Provider->main();
    if (!Main.Fn && Cfg.Series == EngineSeries::Auto) {
      // No generated kernel (JIT or compiler unavailable): degrade to the
      // portable BLIS-style kernel so Auto engines always serve.
      Provider = Fixed;
      Main = Provider->main();
      Choice = PlanChoice::make(Main.MR, Main.NR, PlanSource::Fallback);
    }
    if (!Main.Fn)
      return errorf("gemm engine (%s): provider '%s' has no runnable kernel "
                    "for %lldx%lldx%lld",
                    Name, Provider->name(), static_cast<long long>(Key.M),
                    static_cast<long long>(Key.N),
                    static_cast<long long>(Key.K));
  }

  const BlockSizes Blocks =
      Cfg.Blocks      ? *Cfg.Blocks
      : Choice.Blocks ? *Choice.Blocks
                      : analyticalBlockSizes(CacheConfig::host(), Main.MR,
                                             Main.NR, dtypePackBytes(Ty));
  // Only the f32 policy dispatches specialized edge kernels; the others
  // run the main kernel (or the i8 dot) over zero-padded panels, so no
  // edge kernel is probed, resolved or JIT'd for them.
  const EdgePack PackMode = Ty != DType::F32 ? EdgePack::ZeroPad
                            : Cfg.PackMode   ? *Cfg.PackMode
                                             : preferredEdgePack(*Provider);

  // Per-plan provenance: one count and one obs mark per plan built. Forced,
  // fixed-series, and fallback plans mark but do not count — the two
  // counters answer "which selection stage chose the tile", and those plans
  // never ran selection.
  switch (Choice.Src) {
  case PlanSource::Model:
    PlansFromModel.fetch_add(1, std::memory_order_relaxed);
    break;
  case PlanSource::Tuned:
    PlansFromTuned.fetch_add(1, std::memory_order_relaxed);
    break;
  default:
    break;
  }
  obs::mark(Choice.Src == PlanSource::Model   ? "plan.source.model"
            : Choice.Src == PlanSource::Tuned ? "plan.source.tuned"
                                              : "plan.source.other");

  auto P = std::make_shared<ExecPlan>();
  P->Provider = Provider;
  P->Choice = Choice;
  P->G = detail::deriveGeometry(Main, PackMode, Blocks, Key.T, Key.M, Key.N,
                                Key.K);
  P->G.Ty = Ty;
  if (P->G.PackMode == EdgePack::Tight)
    detail::resolveEdgeKernels(*Provider, P->G, Key.N, P->Edges);
  P->Pool.reserve(WorkspacePoolCap);
  P->Pool.push_back(P->acquire());
  return P;
}

void Engine::Impl::evictLocked(const PlanKey *Keep) {
  while (static_cast<int64_t>(Cache.size()) > Cap) {
    auto Victim = Cache.end();
    uint64_t Oldest = ~uint64_t{0};
    for (auto It = Cache.begin(); It != Cache.end(); ++It) {
      if (It->second.Building)
        continue;
      if (Keep && !(It->first < *Keep) && !(*Keep < It->first))
        continue; // never evict the entry the caller is about to return
      // Sticky build-error entries are eligible too (their LastUse stays 0,
      // so they go first); otherwise unbuildable-shape probes would pin the
      // cache over cap forever.
      if (!It->second.Plan && It->second.BuildError.empty())
        continue;
      uint64_t Use = It->second.LastUse.load(std::memory_order_relaxed);
      if (Use < Oldest) {
        Oldest = Use;
        Victim = It;
      }
    }
    if (Victim == Cache.end())
      return; // everything in flight; over-cap is transient
    Cache.erase(Victim);
    Evictions.fetch_add(1, std::memory_order_relaxed);
  }
}

std::shared_ptr<ExecPlan> Engine::Impl::lookupOrBuild(const PlanKey &Key,
                                                      Error &Err) {
  {
    EXO_OBS_SPAN("plan.lookup");
    std::shared_lock<std::shared_mutex> SL(Mu);
    auto It = Cache.find(Key);
    if (It != Cache.end() && It->second.Plan) {
      It->second.LastUse.store(
          Tick.fetch_add(1, std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
      Hits.fetch_add(1, std::memory_order_relaxed);
      obs::mark("plan.hit");
      return It->second.Plan;
    }
  }

  Misses.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<std::shared_mutex> UL(Mu);
  for (;;) {
    CacheEntry &E = Cache[Key];
    if (E.Plan) {
      // Built while we waited for the lock (or by the builder we waited
      // on) — a miss in the counters, but no duplicate work.
      E.LastUse.store(Tick.fetch_add(1, std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
      return E.Plan;
    }
    if (!E.BuildError.empty()) {
      Err = errorf("%s", E.BuildError.c_str());
      return nullptr;
    }
    if (!E.Building) {
      E.Building = true;
      break;
    }
    Cv.wait(UL);
  }
  UL.unlock();

  Expected<std::shared_ptr<ExecPlan>> Built = build(Key);

  UL.lock();
  CacheEntry &E = Cache[Key];
  E.Building = false;
  if (!Built) {
    // Failures are sticky: a shape with no runnable kernel fails the same
    // way on every retry, and re-planning per call would hide that behind
    // repeated JIT attempts.
    E.BuildError = Built.message();
    StickyErrors.fetch_add(1, std::memory_order_relaxed);
    Err = errorf("%s", E.BuildError.c_str());
    // Error entries occupy cache slots too; evict here as well so a
    // workload probing many unbuildable shapes cannot grow the map past
    // cap (successful builds are the only other eviction point).
    evictLocked(&Key);
    Cv.notify_all();
    return nullptr;
  }
  E.Plan = Built.take();
  E.LastUse.store(Tick.fetch_add(1, std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
  Builds.fetch_add(1, std::memory_order_relaxed);
  // Copy out before evicting: even though evictLocked() spares Key itself,
  // returning through the map reference would read a destroyed node if a
  // future victim policy ever touched it.
  std::shared_ptr<ExecPlan> Ret = E.Plan;
  evictLocked(&Key);
  Cv.notify_all();
  return Ret;
}

Engine::Engine() : Engine(EngineConfig{}) {}

Engine::Engine(const EngineConfig &Cfg) : I(new Impl) {
  I->Cfg = Cfg;
  I->Cap = Cfg.PlanCacheCap >= 0 ? std::max<int64_t>(Cfg.PlanCacheCap, 1)
                                 : envPlanCacheCap();
  switch (Cfg.Series) {
  case EngineSeries::Auto:
    I->Name = "auto";
    I->Fixed = std::make_shared<FixedProvider>(blisKernel(), "blis");
    break;
  case EngineSeries::Exo:
    I->Name = "exo";
    break;
  case EngineSeries::HandVector:
    I->Name = "hand-vector";
    I->Fixed =
        std::make_shared<FixedProvider>(handVectorKernel(), "hand-vector");
    break;
  case EngineSeries::Blis:
    I->Name = "blis";
    I->Fixed = std::make_shared<FixedProvider>(blisKernel(), "blis");
    break;
  case EngineSeries::BlisPrefetch:
    I->Name = "blis-prefetch";
    I->Fixed = std::make_shared<FixedProvider>(blisKernelPrefetch(),
                                               "blis-prefetch");
    break;
  case EngineSeries::Custom:
    I->Name = Cfg.Provider ? Cfg.Provider->name() : "custom";
    I->Fixed = Cfg.Provider;
    break;
  }
}

Engine::~Engine() { delete I; }

Engine &Engine::global() {
  static Engine E;
  return E;
}

/// Degenerate calls skip the plan cache (beta == 0 overwrites in storage
/// type; m == 0 or n == 0 touches nothing).
void Engine::Impl::quickReturn(DType Ty, const detail::GemmCall &Cl) {
  Degenerate.fetch_add(1, std::memory_order_relaxed);
  if (Cl.M != 0 && Cl.N != 0)
    detail::scaleByBeta(Ty, Cl.M, Cl.N,
                        Ty == DType::I8I32 ? static_cast<double>(Cl.BetaI)
                                           : Cl.Beta,
                        Cl.C, Cl.Ldc);
}

Error Engine::Impl::run(DType Ty, const detail::GemmCall &Cl) {
  if (detail::isDegenerate(Cl.M, Cl.N, Cl.K, Cl.Alpha)) {
    quickReturn(Ty, Cl);
    return Error::success();
  }
  Error Err = Error::success();
  const int64_t T = resolveGemmThreads(Cfg.Threads);
  std::shared_ptr<ExecPlan> Plan =
      lookupOrBuild(key(Ty, Cl.TA, Cl.TB, Cl.M, Cl.N, Cl.K, T), Err);
  if (!Plan)
    return Err;
  std::unique_ptr<detail::GemmWorkspace> WS = Plan->acquire();
  detail::executeGemm(Plan->G, &Cl, 1, *WS);
  Plan->release(std::move(WS));
  return Error::success();
}

namespace {

/// Calls \p F(Run, Len) for each shared-B run of Calls[Begin, End):
/// consecutive calls with the same B pointer and Ldb (a shape group
/// already shares TB and the shape), whose B blocks the nest packs once
/// (executeGemm). Returns the number of calls that skipped their packB.
template <class Fn>
uint64_t forEachSharedBRun(const detail::GemmCall *Calls, int64_t Begin,
                           int64_t End, Fn &&F) {
  uint64_t Shared = 0;
  for (int64_t R = Begin; R < End;) {
    int64_t E = R + 1;
    while (E < End && Calls[E].B == Calls[R].B &&
           Calls[E].Ldb == Calls[R].Ldb)
      ++E;
    F(Calls + R, E - R);
    Shared += static_cast<uint64_t>(E - R - 1);
    R = E;
  }
  return Shared;
}

/// Pool-callback context for one cross-item chunk: worker Tid runs the
/// Tid-th contiguous slice of the chunk's calls whole, shared-B run by
/// run, in its own workspace. The plan was keyed with T == 1, so the inner
/// executeGemm dispatches inline and never re-enters the pool with a team.
struct BatchJob {
  const detail::GemmGeometry *G;
  const detail::GemmCall *Calls; ///< this chunk's calls, in group order
  int64_t NItems;                ///< chunk size
  int64_t W;                     ///< worker count
  detail::GemmWorkspace *const *WSs; ///< one workspace per worker
  std::atomic<uint64_t> *BShared;    ///< EngineStats::BatchedBShared
};

void runBatchItems(void *Ctx, int64_t Tid) {
  const BatchJob &J = *static_cast<BatchJob *>(Ctx);
  const uint64_t Shared = forEachSharedBRun(
      J.Calls, Tid * J.NItems / J.W, (Tid + 1) * J.NItems / J.W,
      [&](const detail::GemmCall *Run, int64_t Len) {
        detail::executeGemm(*J.G, Run, Len, *J.WSs[Tid]);
      });
  J.BShared->fetch_add(Shared, std::memory_order_relaxed);
}

/// Max items per cross-item dispatch: chunking bounds the per-dispatch
/// workspace residency on huge batches.
constexpr int64_t BatchChunkMax = 4096;

} // namespace

Error Engine::Impl::runBatch(DType Ty, std::vector<detail::GemmCall> &Calls) {
  BatchedItems.fetch_add(Calls.size(), std::memory_order_relaxed);
  // Degenerate calls move behind the rest, which sort stably by shape: each
  // distinct (TA, TB, M, N, K) becomes one contiguous group, in batch order,
  // that plans once. Every group plans before any C is written, so a plan
  // error (a shape with no runnable kernel, a Custom series without a
  // provider) leaves the whole batch untouched.
  auto Shape = [](const detail::GemmCall &Cl) {
    return std::tie(Cl.TA, Cl.TB, Cl.M, Cl.N, Cl.K);
  };
  const auto Live = std::stable_partition(
      Calls.begin(), Calls.end(), [](const detail::GemmCall &Cl) {
        return !detail::isDegenerate(Cl.M, Cl.N, Cl.K, Cl.Alpha);
      });
  std::stable_sort(Calls.begin(), Live,
                   [&](const detail::GemmCall &X, const detail::GemmCall &Y) {
                     return Shape(X) < Shape(Y);
                   });

  const int64_t T = resolveGemmThreads(Cfg.Threads);
  const bool InPool = ThreadPool::global().inParallel();
  struct Group {
    int64_t Begin, Len;
    bool Cross;
    std::shared_ptr<ExecPlan> Plan;
  };
  std::vector<Group> Groups;
  const int64_t NLive = Live - Calls.begin();
  for (int64_t Begin = 0, End = 0; Begin < NLive; Begin = End) {
    const detail::GemmCall &Cl = Calls[Begin];
    End = Begin + 1;
    while (End < NLive && Shape(Calls[End]) == Shape(Cl))
      ++End;
    const bool Cross =
        batchPrefersCrossItem(Cl.M, Cl.N, Cl.K, T, End - Begin) && !InPool;
    // Cross-item groups run every item single-threaded, so they want the
    // T == 1 plan — a distinct cache key from the intra-item plan, which
    // is exactly right: the two strategies use different geometry.
    Error Err = Error::success();
    std::shared_ptr<ExecPlan> Plan = lookupOrBuild(
        key(Ty, Cl.TA, Cl.TB, Cl.M, Cl.N, Cl.K, Cross ? 1 : T), Err);
    if (!Plan)
      return Err;
    Groups.push_back({Begin, End - Begin, Cross, std::move(Plan)});
  }

  for (auto It = Live; It != Calls.end(); ++It)
    quickReturn(Ty, *It);

  for (const auto &[Begin, GroupItems, Cross, Plan] : Groups) {
    const detail::GemmCall *GroupCalls = Calls.data() + Begin;
    BatchedGroups.fetch_add(1, std::memory_order_relaxed);
    if (!Cross) {
      // Intra-item slab parallelism: the lone-call execution body, one
      // shared-B run at a time, amortizing one workspace over the group.
      std::unique_ptr<detail::GemmWorkspace> WS = Plan->acquire();
      const uint64_t Shared = forEachSharedBRun(
          GroupCalls, 0, GroupItems,
          [&](const detail::GemmCall *Run, int64_t Len) {
            detail::executeGemm(Plan->G, Run, Len, *WS);
          });
      BatchedBShared.fetch_add(Shared, std::memory_order_relaxed);
      Plan->release(std::move(WS));
      continue;
    }

    // Cross-item scheduling: a contiguous slice of whole items per pool
    // worker, per-worker workspaces from the plan's pool, in chunks of at
    // most BatchChunkMax items.
    BatchedCrossItem.fetch_add(static_cast<uint64_t>(GroupItems),
                               std::memory_order_relaxed);
    for (int64_t At = 0; At < GroupItems; At += BatchChunkMax) {
      const int64_t NItems = std::min(BatchChunkMax, GroupItems - At);
      const int64_t W = std::min<int64_t>(T, NItems);
      std::vector<std::unique_ptr<detail::GemmWorkspace>> Owned(
          static_cast<size_t>(W));
      std::vector<detail::GemmWorkspace *> WSs(static_cast<size_t>(W));
      for (int64_t WI = 0; WI < W; ++WI) {
        Owned[WI] = Plan->acquire();
        WSs[WI] = Owned[WI].get();
      }
      BatchJob Job{&Plan->G, GroupCalls + At, NItems, W, WSs.data(),
                   &BatchedBShared};
      ThreadPool::global().parallel(W, &runBatchItems, &Job);
      for (int64_t WI = 0; WI < W; ++WI)
        Plan->release(std::move(Owned[WI]));
    }
  }
  return Error::success();
}

Error Engine::gemmStridedBatched(DType Ty, Trans TA, Trans TB, int64_t M,
                                 int64_t N, int64_t K, double Alpha,
                                 const void *A, int64_t Lda, int64_t StrideA,
                                 const void *B, int64_t Ldb, int64_t StrideB,
                                 double Beta, void *C, int64_t Ldc,
                                 int64_t StrideC, int64_t BatchCount) {
  // The f32 door takes sgemm's f32 scales, so every f32 spelling agrees
  // bitwise (including which tiny alpha counts as zero).
  if (Ty == DType::F32) {
    Alpha = static_cast<float>(Alpha);
    Beta = static_cast<float>(Beta);
  }
  if (Error E = detail::checkGemmArgs("gemm engine", Ty, TA, TB, M, N, K,
                                      Alpha, Beta, Lda, Ldb, Ldc, StrideA,
                                      StrideB, StrideC, BatchCount))
    return E;
  const detail::GemmCall Item0 =
      makeCall(Ty, TA, TB, M, N, K, Alpha, A, Lda, B, Ldb, Beta, C, Ldc);
  if (BatchCount == 1)
    return I->run(Ty, Item0);
  // Item i's operands sit i strides (in elements) past item 0's.
  const int64_t InB = dtypeInBytes(Ty), OutB = dtypeOutBytes(Ty);
  std::vector<detail::GemmCall> Calls(static_cast<size_t>(BatchCount), Item0);
  for (int64_t Ix = 1; Ix < BatchCount; ++Ix) {
    Calls[Ix].A = static_cast<const unsigned char *>(A) + Ix * StrideA * InB;
    Calls[Ix].B = static_cast<const unsigned char *>(B) + Ix * StrideB * InB;
    Calls[Ix].C = static_cast<unsigned char *>(C) + Ix * StrideC * OutB;
  }
  return I->runBatch(Ty, Calls);
}

Error Engine::sgemmBatched(const GemmBatchItem *Items, int64_t Count) {
  if (Count < 0)
    return errorf("gemm engine: negative batch count");
  if (Count > 0 && !Items)
    return errorf("gemm engine: null batch item array");
  // Validate the whole batch before touching any C: a batch either starts
  // or fails — callers never see half-written output on a bad item.
  std::vector<detail::GemmCall> Calls;
  Calls.reserve(static_cast<size_t>(Count));
  for (int64_t Ix = 0; Ix < Count; ++Ix) {
    const GemmBatchItem &It = Items[Ix];
    if (Error E = detail::checkGemmArgs("gemm engine", DType::F32, It.TA,
                                        It.TB, It.M, It.N, It.K, It.Alpha,
                                        It.Beta, It.Lda, It.Ldb, It.Ldc))
      return errorf("batch item %lld: %s", static_cast<long long>(Ix),
                    E.message().c_str());
    Calls.push_back(makeCall(DType::F32, It.TA, It.TB, It.M, It.N, It.K,
                             It.Alpha, It.A, It.Lda, It.B, It.Ldb, It.Beta,
                             It.C, It.Ldc));
  }
  return I->runBatch(DType::F32, Calls);
}

Expected<PlanChoice> Engine::planFor(Trans TA, Trans TB, int64_t M,
                                     int64_t N, int64_t K) {
  if (M <= 0 || N <= 0 || K <= 0)
    return errorf("gemm engine: planFor needs positive dimensions");
  Error Err = Error::success();
  const int64_t T = resolveGemmThreads(I->Cfg.Threads);
  std::shared_ptr<ExecPlan> Plan =
      I->lookupOrBuild(I->key(DType::F32, TA, TB, M, N, K, T), Err);
  if (!Plan)
    return Err;
  return Plan->Choice;
}

Error Engine::warm(DType Ty, Trans TA, Trans TB, int64_t M, int64_t N,
                   int64_t K) {
  if (M <= 0 || N <= 0 || K <= 0)
    return Error::success(); // degenerate shapes never plan
  // Building the plan resolves its kernel family (the main kernel plus the
  // edge widths it dispatches) through KernelService::global(), the one
  // kernel cache, so it returns with every kernel built.
  Error Err = Error::success();
  const int64_t T = resolveGemmThreads(I->Cfg.Threads);
  if (!I->lookupOrBuild(I->key(Ty, TA, TB, M, N, K, T), Err))
    return Err;
  return Error::success();
}

void Engine::clearPlanCache() {
  std::unique_lock<std::shared_mutex> UL(I->Mu);
  for (auto It = I->Cache.begin(); It != I->Cache.end();) {
    if (It->second.Building)
      ++It; // the in-flight builder still owns this entry
    else
      It = I->Cache.erase(It);
  }
}

size_t Engine::planCount() const {
  std::shared_lock<std::shared_mutex> SL(I->Mu);
  size_t N = 0;
  for (const auto &[Key, E] : I->Cache)
    if (E.Plan)
      ++N;
  return N;
}

EngineStats Engine::stats() const {
  EngineStats S;
  S.Hits = I->Hits.load(std::memory_order_relaxed);
  S.Misses = I->Misses.load(std::memory_order_relaxed);
  S.Builds = I->Builds.load(std::memory_order_relaxed);
  S.Evictions = I->Evictions.load(std::memory_order_relaxed);
  S.Degenerate = I->Degenerate.load(std::memory_order_relaxed);
  S.StickyErrors = I->StickyErrors.load(std::memory_order_relaxed);
  S.BatchedItems = I->BatchedItems.load(std::memory_order_relaxed);
  S.BatchedGroups = I->BatchedGroups.load(std::memory_order_relaxed);
  S.BatchedCrossItem = I->BatchedCrossItem.load(std::memory_order_relaxed);
  S.BatchedBShared = I->BatchedBShared.load(std::memory_order_relaxed);
  S.PlansFromModel = I->PlansFromModel.load(std::memory_order_relaxed);
  S.PlansFromTuned = I->PlansFromTuned.load(std::memory_order_relaxed);
  S.PriorRejected = I->PriorRejected.load(std::memory_order_relaxed);
  {
    // A gauge, not a counter: the cache's live per-dtype contents, read
    // under the shared lock like planCount().
    std::shared_lock<std::shared_mutex> SL(I->Mu);
    for (const auto &[Key, E] : I->Cache)
      if (E.Plan && Key.Ty < DTypeCount)
        ++S.PlansByDtype[Key.Ty];
  }
  return S;
}

void Engine::resetStats() {
  I->Hits.store(0);
  I->Misses.store(0);
  I->Builds.store(0);
  I->Evictions.store(0);
  I->Degenerate.store(0);
  I->StickyErrors.store(0);
  I->BatchedItems.store(0);
  I->BatchedGroups.store(0);
  I->BatchedCrossItem.store(0);
  I->BatchedBShared.store(0);
  I->PlansFromModel.store(0);
  I->PlansFromTuned.store(0);
  I->PriorRejected.store(0);
}

const char *Engine::seriesName() const { return I->Name; }
