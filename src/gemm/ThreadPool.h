//===- ThreadPool.h - Reusable worker pool for the macro-kernel -----------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A lazily-initialized, process-wide pool of persistent worker threads for
/// the parallel macro-kernel (Gemm.cpp). The design goals, in order
/// (docs/CONCURRENCY.md is the full contract):
///
///   1. Zero cost when unused: no thread is spawned until the first call
///      that needs a worker, so single-threaded runs (the paper's
///      methodology, and the default when EXO_GEMM_THREADS is unset) are
///      byte-for-byte the sequential driver.
///   2. Reusable: workers persist across GEMM calls — a serving workload
///      issuing thousands of small GEMMs must not pay thread creation per
///      call. The pool only ever grows, up to the largest team requested.
///   3. Concurrent teams on disjoint workers: two callers can each run a
///      team at the same time as long as enough workers are idle. Each
///      worker belongs to at most one team at a time; teams never share a
///      worker, so every TeamBarrier member is genuinely co-scheduled.
///   4. Fork-join with the caller participating: parallel(N, Body) runs
///      Body(0) on the calling thread and Body(1..N-1) on workers, and
///      returns when all N are done. A parallel() call issued from inside
///      a running job of the same pool (re-entrancy) is detected and
///      degrades to inline sequential execution — see parallel() below.
///
/// Admission: parallel(N, ...) guarantees a full team of N. When fewer than
/// N - 1 workers are idle it waits, FIFO, until enough drain; waiters are
/// served strictly in arrival order, so a stream of small teams cannot
/// starve one large request (waiter fairness).
///
/// TeamBarrier is the in-job synchronization primitive: a central
/// generation-counting barrier sized to the team, used by the driver to
/// separate the cooperative packB / beta pre-scale phase from the compute
/// phase of each (jc, pc) iteration.
///
//===----------------------------------------------------------------------===//

#ifndef GEMM_THREADPOOL_H
#define GEMM_THREADPOOL_H

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gemm {

/// See file comment.
class ThreadPool {
public:
  /// The process-wide pool used by the GEMM executor.
  static ThreadPool &global();

  ThreadPool() = default;
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Raw job signature: Fn(Ctx, Tid). The pointer-plus-context form exists
  /// so the steady-state GEMM hot path (Engine's cached plans) can dispatch
  /// a team without constructing a std::function — the std::function
  /// overload below may allocate for capturing lambdas.
  using ParallelFn = void (*)(void *Ctx, int64_t Tid);

  /// Runs Fn(Ctx, Tid) for Tid in [0, NThreads): Tid 0 on the calling
  /// thread, the rest on pool workers (spawned on first use, kept forever).
  /// Returns when every Tid has completed. NThreads <= 1 calls Fn(Ctx, 0)
  /// inline without touching any synchronization. Concurrent calls from
  /// different threads are safe and run on disjoint workers when enough
  /// are idle; otherwise the caller waits its FIFO turn.
  ///
  /// Re-entrancy: a call made from a thread already running a job of this
  /// pool would deadlock (the outer team is holding the very workers the
  /// inner call waits for). Such calls are detected via a thread-local
  /// marker and degrade to inline execution: Fn(Ctx, 0..NThreads-1) runs
  /// sequentially on the calling thread. This is only correct for jobs
  /// whose Tids do not synchronize with each other (no TeamBarrier); the
  /// GEMM driver guarantees that by collapsing nested teams to size 1
  /// before dispatching (see executeGemm). Performs no heap allocation
  /// beyond one-time worker spawning.
  void parallel(int64_t NThreads, ParallelFn Fn, void *Ctx);

  /// True iff the calling thread is currently executing a job of this pool
  /// (i.e. a parallel() body, on the caller's thread or a worker). Used by
  /// the GEMM driver to collapse nested teams instead of blocking.
  bool inParallel() const;

  /// Convenience overload wrapping \p Body in the raw form above.
  void parallel(int64_t NThreads, const std::function<void(int64_t)> &Body);

  /// Workers currently alive (high-water mark of demand).
  int64_t workerCount() const;

private:
  /// One fork-join dispatch. Lives on the dispatching caller's stack;
  /// Remaining is guarded by Mu.
  struct TeamCtl {
    ParallelFn Fn = nullptr;
    void *Ctx = nullptr;
    int64_t Remaining = 0;
  };

  /// Per-worker assignment slot, guarded by Mu.
  struct Slot {
    TeamCtl *Team = nullptr; ///< team to run next / running now; null = idle
    int64_t Tid = 0;         ///< this worker's Tid within Team
  };

  /// FIFO queue node for a parallel() caller short on workers; lives on
  /// the waiting caller's stack.
  struct Waiter {
    int64_t Need = 0;
    Waiter *Next = nullptr;
  };

  void workerLoop(int64_t WorkerIdx);
  /// Spawns workers until at least \p Target exist (Mu held).
  void ensureWorkersLocked(int64_t Target);
  /// Idle = spawned and not assigned to a team (Mu held).
  int64_t idleLocked() const {
    return static_cast<int64_t>(Slots.size()) - ClaimedCount;
  }
  /// Claims \p Count idle workers, assigning them Tids Base.. (Mu held).
  void claimAndAssignLocked(int64_t Count, TeamCtl *Team, int64_t TidBase);

  mutable std::mutex Mu;
  std::condition_variable CvWork;   ///< wakes workers: a slot was assigned
  std::condition_variable CvDone;   ///< wakes dispatchers: a team drained
  std::condition_variable CvTicket; ///< wakes FIFO waiters: workers freed
  std::vector<std::thread> Workers;
  std::vector<Slot> Slots; ///< parallel to Workers
  int64_t ClaimedCount = 0;
  Waiter *WaitHead = nullptr; ///< FIFO queue of short parallel() callers
  Waiter *WaitTail = nullptr;
  bool Stop = false;
};

/// Generation-counting central barrier for a fixed-size team. All N
/// participants must call arriveAndWait() the same number of times; the
/// last arrival releases the rest. Trivially reusable (phase flips).
class TeamBarrier {
public:
  explicit TeamBarrier(int64_t N) : Count(N), Waiting(N) {}

  void arriveAndWait() {
    std::unique_lock<std::mutex> Lock(Mu);
    uint64_t MyPhase = Phase;
    if (--Waiting == 0) {
      Waiting = Count;
      ++Phase;
      Cv.notify_all();
      return;
    }
    Cv.wait(Lock, [&] { return Phase != MyPhase; });
  }

private:
  std::mutex Mu;
  std::condition_variable Cv;
  const int64_t Count;
  int64_t Waiting;
  uint64_t Phase = 0;
};

/// Resolves a requested team size (EngineConfig::Threads) to a concrete one:
///   > 0          that many threads;
///   0 (default)  EXO_GEMM_THREADS — unset/empty means 1 (the sequential
///                driver, preserving the paper's single-core methodology);
///                "auto" or "0" means std::thread::hardware_concurrency().
/// Anything unparsable resolves to 1. Exposed for bench reporting.
int64_t resolveGemmThreads(int64_t PlanThreads);

} // namespace gemm

#endif // GEMM_THREADPOOL_H
