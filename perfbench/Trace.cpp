//===- Trace.cpp ----------------------------------------------------------===//

#include "Trace.h"

#include "obs/Obs.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

using namespace pb::trace;

namespace {

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Rec {
  const char *Name;
  uint32_t Tid;
  uint64_t StartNs, EndNs;
  int64_t Parent; ///< index in the same thread buffer, -1 for a root
  uint64_t Op;
};

/// One buffer per recording thread, touched only by that thread until
/// analyze() runs with every thread idle.
struct ThreadBuf {
  std::vector<Rec> Recs;
  std::vector<int64_t> Open; ///< stack of open span indices
  uint64_t Op = 0;
};

std::mutex RegMu;
std::vector<std::shared_ptr<ThreadBuf>> &registry() {
  static auto *R = new std::vector<std::shared_ptr<ThreadBuf>>;
  return *R;
}

ThreadBuf &threadBuf() {
  thread_local std::shared_ptr<ThreadBuf> Buf = [] {
    auto B = std::make_shared<ThreadBuf>();
    std::lock_guard<std::mutex> Lock(RegMu);
    registry().push_back(B);
    return B;
  }();
  return *Buf;
}

/// Names of benchmark spans (everything else in the obs trace belongs to
/// the library).
std::set<std::string> &mineNames() {
  static auto *S = new std::set<std::string>;
  return *S;
}

const NameStat Empty{};

} // namespace

Span::Span(const char *Name, uint64_t Op) : Obs(Name) {
  if (!obs::enabled())
    return;
  ThreadBuf &B = threadBuf();
  {
    std::lock_guard<std::mutex> Lock(RegMu);
    mineNames().insert(Name);
  }
  if (Op != 0)
    B.Op = Op;
  Idx = static_cast<int64_t>(B.Recs.size());
  B.Recs.push_back({Name, obs::threadId(), nowNs(), 0,
                    B.Open.empty() ? -1 : B.Open.back(), B.Op});
  B.Open.push_back(Idx);
}

Span::~Span() {
  if (Idx < 0)
    return;
  ThreadBuf &B = threadBuf();
  B.Recs[static_cast<size_t>(Idx)].EndNs = nowNs();
  B.Open.pop_back();
}

const NameStat &Summary::operator[](const std::string &Name) const {
  auto It = ByName.find(Name);
  return It == ByName.end() ? Empty : It->second;
}

const NameStat &Summary::under(const std::string &Name,
                               const std::string &Anc) const {
  return (*this)[Name + "<" + Anc];
}

Summary pb::trace::analyze() {
  struct Node {
    const char *Name;
    uint32_t Tid;
    uint64_t S, E;
    bool Mine, Root;
    const char *Anc = nullptr; ///< nearest enclosing benchmark span
    double ChildNs = 0;
  };
  // Benchmark spans are obs spans too, so one clock orders everything.
  std::set<std::string> Mine;
  {
    std::lock_guard<std::mutex> Lock(RegMu);
    Mine = mineNames();
  }
  std::vector<Node> Nodes;
  for (const obs::Event &E : obs::events())
    if (!E.IsMark)
      Nodes.push_back({E.Name, E.Tid, E.StartNs, E.StartNs + E.DurNs,
                       Mine.count(E.Name) != 0, false});
  // Per thread, in start order (outer span first on ties): the innermost
  // still-open span containing a node is its parent.
  std::sort(Nodes.begin(), Nodes.end(), [](const Node &A, const Node &B) {
    if (A.Tid != B.Tid)
      return A.Tid < B.Tid;
    if (A.S != B.S)
      return A.S < B.S;
    return A.E > B.E;
  });
  std::vector<size_t> Stack;
  for (size_t I = 0; I != Nodes.size(); ++I) {
    if (I == 0 || Nodes[I].Tid != Nodes[I - 1].Tid)
      Stack.clear();
    while (!Stack.empty() && Nodes[Stack.back()].E <= Nodes[I].S)
      Stack.pop_back();
    Nodes[I].Root = Nodes[I].Mine && Stack.empty();
    if (!Stack.empty()) {
      Node &Parent = Nodes[Stack.back()];
      Parent.ChildNs += static_cast<double>(Nodes[I].E - Nodes[I].S);
      Nodes[I].Anc = Parent.Mine ? Parent.Name : Parent.Anc;
    }
    Stack.push_back(I);
  }
  Summary Sum;
  for (const Node &N : Nodes) {
    const double Dur = static_cast<double>(N.E - N.S);
    NameStat &St = Sum.ByName[N.Name];
    St.SelfNs += Dur - N.ChildNs;
    St.DurNs += Dur;
    St.Count += 1;
    if (N.Anc) {
      NameStat &Under = Sum.ByName[std::string(N.Name) + "<" + N.Anc];
      Under.SelfNs += Dur - N.ChildNs;
      Under.DurNs += Dur;
      Under.Count += 1;
    }
    if (N.Root) {
      Sum.RootSelfNs += Dur - N.ChildNs;
      Sum.RootDurNs += Dur;
    }
  }
  return Sum;
}

bool pb::trace::writeSpans(const std::string &Path,
                          const std::string &Workload, uint64_t Seed,
                          const Summary &S) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"workload\":\"%s\",\"seed\":%llu}\n", Workload.c_str(),
               static_cast<unsigned long long>(Seed));
  std::lock_guard<std::mutex> Lock(RegMu);
  int64_t Base = 0;
  for (const auto &B : registry()) {
    for (size_t I = 0; I != B->Recs.size(); ++I) {
      const Rec &R = B->Recs[I];
      std::fprintf(F,
                   "{\"id\":%lld,\"name\":\"%s\",\"tid\":%u,\"start_ns\":%llu,"
                   "\"end_ns\":%llu,\"parent\":%lld,\"op\":%llu}\n",
                   static_cast<long long>(Base + static_cast<int64_t>(I)),
                   R.Name, R.Tid, static_cast<unsigned long long>(R.StartNs),
                   static_cast<unsigned long long>(R.EndNs),
                   static_cast<long long>(R.Parent < 0 ? -1 : Base + R.Parent),
                   static_cast<unsigned long long>(R.Op));
    }
    Base += static_cast<int64_t>(B->Recs.size());
  }
  for (const auto &[Name, St] : S.ByName)
    std::fprintf(F,
                 "{\"summary\":\"%s\",\"self_ns\":%.0f,\"dur_ns\":%.0f,"
                 "\"count\":%llu}\n",
                 Name.c_str(), St.SelfNs, St.DurNs,
                 static_cast<unsigned long long>(St.Count));
  return std::fclose(F) == 0;
}
