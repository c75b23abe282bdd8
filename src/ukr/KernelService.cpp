//===- KernelService.cpp --------------------------------------------------===//

#include "ukr/KernelService.h"

#include "exo/jit/DiskCache.h"
#include "exo/support/Str.h"
#include "obs/Obs.h"

#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

using namespace exo;
using namespace ukr;

//===----------------------------------------------------------------------===//
// KernelService
//===----------------------------------------------------------------------===//

struct KernelService::Impl {
  struct Entry {
    enum class State { Queued, Building, Ready, Failed } S = State::Queued;
    UkrConfig Cfg;
    Kernel K;
    std::string Err;
  };

  mutable std::mutex Mu;
  std::condition_variable Cv;
  std::map<std::string, Entry> Entries;
  std::deque<std::string> Queue;
  std::vector<std::thread> Workers;
  bool Stop = false;

  // Service-level counters; the JIT-layer fields of CacheStats are deltas
  // against this baseline (taken at construction / resetStats).
  CacheStats St;
  JitStats JitBase;

  uint64_t inFlightLocked() const {
    uint64_t N = 0;
    for (const auto &[Name, E] : Entries)
      N += E.S == Entry::State::Queued || E.S == Entry::State::Building;
    return N;
  }

  /// Inserts (once) and enqueues the build for \p Cfg. Lock held.
  Entry &enqueueLocked(const UkrConfig &Cfg, const std::string &Key) {
    auto [It, Inserted] = Entries.try_emplace(Key);
    if (Inserted) {
      It->second.Cfg = Cfg;
      Queue.push_back(Key);
      Cv.notify_all();
    }
    return It->second;
  }

  void workerLoop() {
    std::unique_lock<std::mutex> Lock(Mu);
    while (true) {
      Cv.wait(Lock, [&] { return Stop || !Queue.empty(); });
      if (Stop)
        return;
      std::string Key = Queue.front();
      Queue.pop_front();
      Entry &E = Entries.at(Key);
      E.S = Entry::State::Building;
      UkrConfig Cfg = E.Cfg;
      Lock.unlock();

      exo::Expected<Kernel> Built = [&] {
        // Spans the full build pipeline: codegen + (disk-cache probe or
        // compiler invocation) + dlopen. Disk hits show up as short
        // jit.build spans with zero jit compile time in CacheStats.
        obs::Span Span("jit.build");
        return buildKernel(Cfg);
      }();

      Lock.lock();
      ++St.Builds;
      if (Built) {
        E.K = Built.take();
        E.S = Entry::State::Ready;
      } else {
        E.Err = Built.takeError().message();
        E.S = Entry::State::Failed;
        ++St.Failures;
      }
      Cv.notify_all();
    }
  }
};

KernelService::KernelService() : KernelService(Options{}) {}

KernelService::KernelService(const Options &Opts) : I(new Impl) {
  if (!Opts.CacheDir.empty())
    JitDiskCache::setGlobalRoot(Opts.CacheDir);
  const unsigned N = Opts.Workers ? Opts.Workers : 2;
  I->JitBase = jitStats();
  for (unsigned W = 0; W < N; ++W)
    I->Workers.emplace_back([this] { I->workerLoop(); });
}

KernelService::~KernelService() {
  {
    std::lock_guard<std::mutex> Lock(I->Mu);
    I->Stop = true;
  }
  I->Cv.notify_all();
  for (std::thread &T : I->Workers)
    T.join();
  delete I;
}

KernelService &KernelService::global() {
  static KernelService S;
  return S;
}

Expected<const Kernel *> KernelService::get(const UkrConfig &Cfg) {
  std::string Key = Cfg.kernelName();
  std::unique_lock<std::mutex> Lock(I->Mu);
  auto It = I->Entries.find(Key);
  if (It != I->Entries.end() &&
      It->second.S == Impl::Entry::State::Ready) {
    ++I->St.Hits;
    obs::mark("ukr.cache.hit");
    return const_cast<const Kernel *>(&It->second.K);
  }
  ++I->St.Misses;
  obs::mark("ukr.cache.miss");
  Impl::Entry &E = I->enqueueLocked(Cfg, Key);
  I->Cv.wait(Lock, [&] {
    return E.S == Impl::Entry::State::Ready ||
           E.S == Impl::Entry::State::Failed;
  });
  if (E.S == Impl::Entry::State::Failed)
    return errorf("kernel service: build of %s failed: %s", Key.c_str(),
                  E.Err.c_str());
  return const_cast<const Kernel *>(&E.K);
}

void KernelService::prefetch(const UkrConfig &Cfg) {
  std::lock_guard<std::mutex> Lock(I->Mu);
  I->enqueueLocked(Cfg, Cfg.kernelName());
}

Error KernelService::warm(const std::vector<UkrConfig> &Cfgs) {
  for (const UkrConfig &Cfg : Cfgs)
    prefetch(Cfg);
  wait();
  std::lock_guard<std::mutex> Lock(I->Mu);
  std::vector<std::string> Failed;
  for (const UkrConfig &Cfg : Cfgs) {
    auto It = I->Entries.find(Cfg.kernelName());
    if (It != I->Entries.end() &&
        It->second.S == Impl::Entry::State::Failed)
      Failed.push_back(Cfg.kernelName() + ": " + It->second.Err);
  }
  if (Failed.empty())
    return Error::success();
  return errorf("%zu kernel(s) failed to warm:\n%s", Failed.size(),
                join(Failed, "\n").c_str());
}

void KernelService::wait() {
  std::unique_lock<std::mutex> Lock(I->Mu);
  I->Cv.wait(Lock, [&] { return I->inFlightLocked() == 0; });
}

size_t KernelService::size() const {
  std::lock_guard<std::mutex> Lock(I->Mu);
  size_t N = 0;
  for (const auto &[Name, E] : I->Entries)
    N += E.S == Impl::Entry::State::Ready;
  return N;
}

CacheStats KernelService::stats() const {
  JitStats Jit = jitStats();
  std::lock_guard<std::mutex> Lock(I->Mu);
  CacheStats Out = I->St;
  Out.InFlight = I->inFlightLocked();
  Out.DiskHits = Jit.DiskHits - I->JitBase.DiskHits;
  Out.Compiles = Jit.Compiles - I->JitBase.Compiles;
  Out.CompileMs = Jit.CompileMs - I->JitBase.CompileMs;
  return Out;
}

void KernelService::resetStats() {
  JitStats Jit = jitStats();
  std::lock_guard<std::mutex> Lock(I->Mu);
  I->St = CacheStats();
  I->JitBase = Jit;
}

std::vector<UkrConfig> ukr::standardShapeFamily(int64_t MR, int64_t NR,
                                                bool AllCandidates) {
  // Tiles to expand: the requested full tile, plus (with AllCandidates)
  // every shape ExoProvider::pickShape can select on this host.
  std::vector<std::pair<int64_t, int64_t>> Tiles = {{MR, NR}};
  if (AllCandidates) {
    static const std::pair<int64_t, int64_t> Candidates[] = {
        {8, 12}, {8, 8}, {8, 6},  {8, 4},  {16, 12}, {16, 8},
        {16, 6}, {16, 4}, {4, 12}, {4, 8}, {4, 4},   {24, 4},
    };
    for (auto [M, N] : Candidates)
      if (bestIsaForMr(M))
        Tiles.emplace_back(M, N);
  }

  std::set<std::pair<int64_t, int64_t>> Shapes;
  for (auto [M, N] : Tiles) {
    // The §IV-C edge family around a full tile: the tile itself plus the
    // half-width and scalar M edges crossed with the common N edges.
    for (int64_t EdgeM : {M, std::min<int64_t>(M, 4), int64_t(1)})
      for (int64_t EdgeN : {N, std::min<int64_t>(N, 8),
                            std::min<int64_t>(N, 4)})
        Shapes.emplace(EdgeM, EdgeN);
  }

  std::vector<UkrConfig> Out;
  for (auto [M, N] : Shapes)
    Out.push_back(shapeConfig(M, N));
  return Out;
}

CacheStats ukr::globalCacheStats() {
  CacheStats St = KernelService::global().stats();
  JitStats Jit = jitStats();
  St.DiskHits = Jit.DiskHits;
  St.Compiles = Jit.Compiles;
  St.CompileMs = Jit.CompileMs;
  St.CorruptMeta = JitDiskCache::corruptMetaObserved();
  return St;
}

void ukr::printCacheStats(const CacheStats &St, std::FILE *Out) {
  std::fprintf(Out,
               "kernel-cache: hits=%llu misses=%llu builds=%llu "
               "failures=%llu in-flight=%llu\n"
               "jit: disk-hits=%llu compiles=%llu compile-ms=%.1f "
               "corrupt-meta=%llu (cache dir: %s%s)\n",
               static_cast<unsigned long long>(St.Hits),
               static_cast<unsigned long long>(St.Misses),
               static_cast<unsigned long long>(St.Builds),
               static_cast<unsigned long long>(St.Failures),
               static_cast<unsigned long long>(St.InFlight),
               static_cast<unsigned long long>(St.DiskHits),
               static_cast<unsigned long long>(St.Compiles), St.CompileMs,
               static_cast<unsigned long long>(St.CorruptMeta),
               JitDiskCache::global().root().c_str(),
               JitDiskCache::global().enabled() ? "" : ", disabled");
}
