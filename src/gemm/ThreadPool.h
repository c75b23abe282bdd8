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
/// Two admission paths share the worker set:
///
///   - parallel(N, ...) *guarantees* a full team of N: when fewer than
///     N - 1 workers are idle it waits, FIFO, until enough drain. Waiters
///     are served strictly in arrival order so a stream of small teams
///     cannot starve one large request (waiter fairness).
///   - tryReserve(...) *never waits*: it claims however many workers are
///     idle right now (possibly zero) up to the requested width, and it
///     refuses to touch workers the head FIFO waiter is owed. This is the
///     governor's path (Governor.h): a governed GEMM shrinks its team
///     under contention instead of queuing behind it.
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

  /// A claim on specific idle workers, produced by tryReserve() and
  /// consumed by runTeam() (which dispatches on exactly those workers) or
  /// release() (which returns them unused). Value-semantically a small
  /// fixed array of worker indices; movable only in the trivial sense of
  /// being copyable before consumption. A non-empty Reservation must be
  /// consumed before it goes out of scope or its workers leak (debug
  /// builds assert in ~Reservation via the pool bookkeeping staying
  /// non-zero; release() is cheap — call it).
  struct Reservation {
    static constexpr int64_t CapSlots = 64;
    int32_t Slots[CapSlots];
    int64_t Count = 0;
  };

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

  /// Claims up to \p Want currently-idle workers and records them in \p R
  /// (appending to any prior claim is not supported: R must be empty).
  /// Never blocks and never waits: under contention it claims fewer than
  /// Want, possibly zero. New workers are spawned only while the pool has
  /// fewer than \p SpawnCap total; an explicit parallel() may already have
  /// grown the pool past that, in which case existing idle workers are
  /// still claimable. Workers owed to the head FIFO waiter of parallel()
  /// are never claimed (waiter fairness). Returns R.Count.
  int64_t tryReserve(int64_t Want, int64_t SpawnCap, Reservation &R);

  /// Returns the workers of \p R to the idle set without running anything.
  /// R becomes empty. No-op on an empty reservation.
  void release(Reservation &R);

  /// Runs Fn(Ctx, Tid) for Tid in [0, R.Count]: Tid 0 on the calling
  /// thread, Tid I on the worker R.Slots[I-1]. Returns when every member
  /// has completed; the reservation is consumed (R becomes empty and its
  /// workers are idle again). An empty reservation runs Fn(Ctx, 0) inline.
  /// Re-entrant use is a caller bug: reserve only from outside pool jobs
  /// (the Engine checks inParallel() before taking the governed path).
  void runTeam(Reservation &R, ParallelFn Fn, void *Ctx);

  /// True iff the calling thread is currently executing a job of this pool
  /// (i.e. a parallel() or runTeam() body, on the caller's thread or a
  /// worker). Used by the GEMM driver to collapse nested teams instead of
  /// blocking.
  bool inParallel() const;

  /// Convenience overload wrapping \p Body in the raw form above.
  void parallel(int64_t NThreads, const std::function<void(int64_t)> &Body);

  /// Workers currently alive (high-water mark of demand).
  int64_t workerCount() const;

  /// Workers currently claimed by a reservation or running a team body —
  /// the live-occupancy input to the governor's decision.
  int64_t busyWorkers() const;

private:
  /// One fork-join dispatch, shared by parallel() and runTeam(). Lives on
  /// the dispatching caller's stack; Remaining is guarded by Mu.
  struct TeamCtl {
    ParallelFn Fn = nullptr;
    void *Ctx = nullptr;
    int64_t Remaining = 0;
  };

  /// Per-worker assignment slot, guarded by Mu.
  struct Slot {
    TeamCtl *Team = nullptr; ///< team to run next / running now
    int64_t Tid = 0;         ///< this worker's Tid within Team
    bool Claimed = false;    ///< reserved (or running) — not idle
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
  /// Idle = spawned and not claimed (Mu held).
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
