//===- ThreadPool.cpp -----------------------------------------------------===//

#include "gemm/ThreadPool.h"

#include "exo/support/Env.h"

#include <cassert>
#include <cstdlib>
#include <cstring>

using namespace gemm;

namespace {
/// The pool whose job the current thread is executing, if any. Set around
/// every job body (caller Tid 0 and workers alike) so parallel() can detect
/// re-entrant calls and inParallel() can answer from any thread.
thread_local const ThreadPool *CurrentJobPool = nullptr;

/// RAII setter restoring the previous value (re-entrant degradation can
/// itself be nested).
struct JobPoolScope {
  const ThreadPool *Prev;
  explicit JobPoolScope(const ThreadPool *P) : Prev(CurrentJobPool) {
    CurrentJobPool = P;
  }
  ~JobPoolScope() { CurrentJobPool = Prev; }
};
} // namespace

ThreadPool &ThreadPool::global() {
  static ThreadPool Pool;
  return Pool;
}

bool ThreadPool::inParallel() const { return CurrentJobPool == this; }

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Stop = true;
  }
  CvWork.notify_all();
  CvTicket.notify_all(); // queued callers fall back to inline execution
  for (std::thread &T : Workers)
    T.join();
}

int64_t ThreadPool::workerCount() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return static_cast<int64_t>(Workers.size());
}

void ThreadPool::ensureWorkersLocked(int64_t Target) {
  while (static_cast<int64_t>(Workers.size()) < Target) {
    int64_t Idx = static_cast<int64_t>(Workers.size());
    Slots.emplace_back();
    Workers.emplace_back([this, Idx] { workerLoop(Idx); });
  }
}

void ThreadPool::claimAndAssignLocked(int64_t Count, TeamCtl *Team,
                                      int64_t TidBase) {
  int64_t Assigned = 0;
  for (size_t I = 0; I < Slots.size() && Assigned < Count; ++I) {
    if (Slots[I].Team)
      continue;
    Slots[I].Team = Team;
    Slots[I].Tid = TidBase + Assigned;
    ++ClaimedCount;
    ++Assigned;
  }
  assert(Assigned == Count && "claimAndAssignLocked: not enough idle workers");
}

void ThreadPool::workerLoop(int64_t WorkerIdx) {
  std::unique_lock<std::mutex> Lock(Mu);
  while (true) {
    CvWork.wait(Lock, [&] { return Stop || Slots[WorkerIdx].Team != nullptr; });
    if (Stop)
      return;
    TeamCtl *T = Slots[WorkerIdx].Team;
    int64_t Tid = Slots[WorkerIdx].Tid;
    Lock.unlock();
    {
      JobPoolScope Scope(this);
      T->Fn(T->Ctx, Tid);
    }
    Lock.lock();
    Slots[WorkerIdx].Team = nullptr;
    --ClaimedCount;
    if (--T->Remaining == 0)
      CvDone.notify_all();
    // A freed worker may complete the head FIFO waiter's quota.
    if (WaitHead)
      CvTicket.notify_all();
  }
}

void ThreadPool::parallel(int64_t NThreads, ParallelFn Fn, void *Ctx) {
  if (NThreads <= 1) {
    Fn(Ctx, 0);
    return;
  }
  // Re-entrant call: this thread is already inside a job of this pool, so
  // waiting for workers would deadlock (the outer team is holding them, and
  // it cannot finish until this call returns). Degrade to inline sequential
  // execution of every Tid. Only valid for bodies whose Tids do not
  // synchronize with each other — see the header.
  if (CurrentJobPool == this) {
    for (int64_t Tid = 0; Tid < NThreads; ++Tid)
      Fn(Ctx, Tid);
    return;
  }
  const int64_t Need = NThreads - 1;
  TeamCtl Ctl;
  Ctl.Fn = Fn;
  Ctl.Ctx = Ctx;
  {
    std::unique_lock<std::mutex> Lock(Mu);
    ensureWorkersLocked(Need); // pool grows to the high-water mark
    if (WaitHead != nullptr || idleLocked() < Need) {
      // Not enough idle workers (or others arrived first): wait FIFO.
      // Strict arrival order means a large team is never starved by a
      // stream of small ones. The node lives on this stack frame.
      Waiter Me;
      Me.Need = Need;
      if (WaitTail)
        WaitTail->Next = &Me;
      else
        WaitHead = &Me;
      WaitTail = &Me;
      CvTicket.wait(Lock,
                    [&] { return Stop || (WaitHead == &Me && idleLocked() >= Need); });
      WaitHead = Me.Next;
      if (!WaitHead)
        WaitTail = nullptr;
      else
        CvTicket.notify_all(); // the new head may already be satisfiable
      if (Stop) {
        // Process teardown with callers still queued: run inline rather
        // than hang (teams then must not use a TeamBarrier, which holds at
        // exit — matching the re-entrancy degrade contract).
        Lock.unlock();
        for (int64_t Tid = 0; Tid < NThreads; ++Tid)
          Fn(Ctx, Tid);
        return;
      }
    }
    Ctl.Remaining = Need;
    claimAndAssignLocked(Need, &Ctl, /*TidBase=*/1);
  }
  CvWork.notify_all();
  {
    JobPoolScope Scope(this);
    Fn(Ctx, 0);
  }
  std::unique_lock<std::mutex> Lock(Mu);
  CvDone.wait(Lock, [&] { return Ctl.Remaining == 0; });
}

void ThreadPool::parallel(int64_t NThreads,
                          const std::function<void(int64_t)> &Body) {
  parallel(
      NThreads,
      [](void *Ctx, int64_t Tid) {
        (*static_cast<const std::function<void(int64_t)> *>(Ctx))(Tid);
      },
      const_cast<void *>(static_cast<const void *>(&Body)));
}

int64_t gemm::resolveGemmThreads(int64_t PlanThreads) {
  if (PlanThreads > 0)
    return PlanThreads;
  const char *V = std::getenv("EXO_GEMM_THREADS");
  if (!V || !*V)
    return 1;
  auto Auto = [] {
    unsigned N = std::thread::hardware_concurrency();
    return static_cast<int64_t>(N > 0 ? N : 1);
  };
  if (std::strcmp(V, "auto") == 0)
    return Auto();
  // Unparsable or out-of-range values warn and stay sequential rather than
  // surprise-scale.
  long long N = exo::envInt("EXO_GEMM_THREADS", V, /*Default=*/1, /*Min=*/0,
                            /*Max=*/1 << 20);
  if (N == 0)
    return Auto();
  return static_cast<int64_t>(N);
}
