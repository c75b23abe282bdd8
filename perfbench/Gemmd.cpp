//===- Gemmd.cpp - gemmd request round-trip workload ----------------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// gemmd_mixed: an in-process gemmd::Server on a private socket and two
/// closed-loop client threads, each with its own gemm::Client, sending the
/// next request as soon as the previous reply lands. The seeded mix is 60%
/// f32 sgemm over {64^3, 100x62x64, 128^3}, 20% bf16 gemm at 128^3 (wire
/// v3) and 20% strided-batched 16 x 64^3 with a stride-0 B (wire v2).
/// Every reply is compared bitwise against a local Engine's result.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Trace.h"
#include "Workload.h"

#include "daemon/Server.h"
#include "gemm/DType.h"
#include "ipc/Client.h"
#include "obs/Obs.h"

#include <atomic>
#include <cstring>
#include <thread>
#include <unistd.h>

using namespace pb;
using gemm::DType;
using gemm::Trans;

namespace {

struct Kind {
  const char *Name;
  int64_t M, N, K, Batch;
  DType Ty;
  const char *Span; ///< benchmark span around the Client call
  int Class;        ///< 0 f32, 1 bf16, 2 batch (rtt_us.* split)
};

const Kind Kinds[] = {
    {"f32 64^3", 64, 64, 64, 1, DType::F32, "client.sgemm", 0},
    {"f32 100x62x64", 100, 62, 64, 1, DType::F32, "client.sgemm", 0},
    {"f32 128^3", 128, 128, 128, 1, DType::F32, "client.sgemm", 0},
    {"bf16 128^3", 128, 128, 128, 1, DType::BF16, "client.gemm", 1},
    {"f32 16x64^3 stride-0 B", 64, 64, 64, 16, DType::F32, "client.batch", 2},
};
constexpr int NumKinds = sizeof(Kinds) / sizeof(Kinds[0]);
const char *const ClassSuffix[] = {".f32", ".bf16", ".batch"};
constexpr int Variants = 4; ///< seeded operand sets per kind
constexpr int Clients = 2;

/// 60% f32 (three shapes, 20% each), 20% bf16, 20% batch.
int drawKind(Rng &R) { return static_cast<int>(R.below(5)); }

struct Operands {
  std::vector<uint8_t> A, B, Want;
};

size_t cBytes(const Kind &K) {
  return static_cast<size_t>(K.M * K.N * K.Batch) * gemm::dtypeOutBytes(K.Ty);
}

/// Bytes a request moves over the wire: A and B in (a stride-0 B once),
/// C back (beta = 0, so C is never shipped in).
double wireBytes(const Kind &K) {
  const unsigned E = gemm::dtypeInBytes(K.Ty);
  return static_cast<double>(K.M * K.K * K.Batch + K.K * K.N) * E +
         static_cast<double>(cBytes(K));
}

double flops(const Kind &K) { return 2.0 * K.M * K.N * K.K * K.Batch; }

/// A and B read and written once by packing, per item.
double packBytes(const Kind &K) {
  return 2.0 * gemm::dtypeInBytes(K.Ty) *
         static_cast<double>((K.M * K.K + K.K * K.N) * K.Batch);
}

/// One request of kind \p K through either front door (Engine and Client
/// share these signatures).
template <typename Door>
exo::Error issue(Door &D, const Kind &K, const Operands &Op, void *C) {
  if (K.Batch > 1)
    return D.sgemmStridedBatched(
        Trans::None, Trans::None, K.M, K.N, K.K, 1.0f,
        reinterpret_cast<const float *>(Op.A.data()), K.M, K.M * K.K,
        reinterpret_cast<const float *>(Op.B.data()), K.K, 0, 0.0f,
        static_cast<float *>(C), K.M, K.M * K.N, K.Batch);
  if (K.Ty == DType::F32)
    return D.sgemm(Trans::None, Trans::None, K.M, K.N, K.K, 1.0f,
                   reinterpret_cast<const float *>(Op.A.data()), K.M,
                   reinterpret_cast<const float *>(Op.B.data()), K.K, 0.0f,
                   static_cast<float *>(C), K.M);
  return D.gemm(K.Ty, Trans::None, Trans::None, K.M, K.N, K.K, 1.0,
                Op.A.data(), K.M, Op.B.data(), K.K, 0.0, C, K.M);
}

std::vector<uint8_t> storage(DType Ty, size_t Elems, Rng &R) {
  std::vector<uint8_t> V(Elems * gemm::dtypeInBytes(Ty));
  for (size_t I = 0; I != Elems; ++I) {
    const float X = R.sym();
    if (Ty == DType::F32)
      std::memcpy(V.data() + I * 4, &X, 4);
    else {
      const uint16_t H = gemm::f32ToBf16(X);
      std::memcpy(V.data() + I * 2, &H, 2);
    }
  }
  return V;
}

struct ClientLog {
  std::vector<double> Untraced, Traced;
  std::vector<double> ByClass[3];
  double TracedFlops = 0, TracedPackBytes = 0, Bytes = 0;
  uint64_t Attempted = 0, Failed = 0;
};

} // namespace

int pb::runGemmd(const Options &O, Result &R) {
  std::vector<Shape> F32Shapes, Bf16Shapes;
  for (const Kind &K : Kinds)
    (K.Ty == DType::F32 ? F32Shapes : Bf16Shapes).push_back({K.M, K.N, K.K});

  gemmd::ServerOptions SO;
  SO.SocketPath =
      O.OutDir + "/gemmd-" + std::to_string(::getpid()) + ".sock";
  gemm::Client::Options CO;
  CO.SocketPath = SO.SocketPath;
  CO.ShmBytes = 8u << 20;
  CO.TimeoutMs = 60000;

  // Set-up: server start, client connects, warm-up of every kind's plan.
  SetupTimer Setup;
  gemmd::Server Srv(SO);
  if (exo::Error E = Srv.start()) {
    std::fprintf(stderr, "perfbench: gemmd start: %s\n", E.message().c_str());
    return 1;
  }
  std::vector<std::unique_ptr<gemm::Client>> Cl;
  for (int I = 0; I != Clients; ++I) {
    Cl.push_back(std::make_unique<gemm::Client>(CO));
    if (exo::Error E = Cl.back()->connect()) {
      std::fprintf(stderr, "perfbench: connect: %s\n", E.message().c_str());
      return 1;
    }
  }
  if (!Setup.warm(Srv.engine(), F32Shapes, {DType::F32}) ||
      !Setup.warm(Srv.engine(), Bf16Shapes, {DType::BF16}))
    return 1;
  Setup.finish(R);
  if (O.SetupOnly)
    return 0;
  notePlans(Srv.engine(), F32Shapes, R);
  Probes P;
  if (!P.start(Srv.engine(), {128, 128, 128}, O.Trace, R))
    return 1;

  // Seeded operands and their local-Engine results, then the gate: every
  // kind and variant through the daemon must match bitwise.
  Rng Gen(O.Seed);
  gemm::Engine Local;
  std::vector<Operands> Ops(NumKinds * Variants);
  for (int K = 0; K != NumKinds; ++K)
    for (int V = 0; V != Variants; ++V) {
      const Kind &Kd = Kinds[K];
      Operands &Op = Ops[K * Variants + V];
      Op.A = storage(Kd.Ty, static_cast<size_t>(Kd.M * Kd.K * Kd.Batch), Gen);
      Op.B = storage(Kd.Ty, static_cast<size_t>(Kd.K * Kd.N), Gen);
      Op.Want.assign(cBytes(Kd), 0);
      std::vector<uint8_t> Got(cBytes(Kd), 0xff);
      exo::Error E1 = issue(Local, Kd, Op, Op.Want.data());
      exo::Error E2 = issue(*Cl[0], Kd, Op, Got.data());
      if (E1 || E2 || Got != Op.Want) {
        R.gateFail("gemmd %s (variant %d) differs from a local Engine%s%s",
                   Kd.Name, V, E1 ? ": " : "",
                   E1 ? E1.message().c_str()
                      : (E2 ? E2.message().c_str() : ""));
        return 0;
      }
    }
  R.note("gate_gemmd_bitwise", "\"ok: every request kind equals Engine\"");

  const gemm::EngineStats S0 = Srv.engine().stats();
  const ipc::StatsReplyMsg W0 = Srv.stats().Wire;
  std::atomic<bool> Stop{false};
  ClientLog Logs[Clients];
  const auto T0 = Clock::now();
  auto client = [&](int Id) {
    ClientLog &L = Logs[Id];
    Rng Draw(O.Seed * 0x9e37 + static_cast<uint64_t>(Id) + 1);
    std::vector<uint8_t> C(cBytes(Kinds[NumKinds - 1])); // the batch: largest
    for (uint64_t N = 1; !Stop.load(std::memory_order_relaxed); ++N) {
      const int K = drawKind(Draw);
      const int V = static_cast<int>(Draw.below(Variants));
      const Operands &Op = Ops[K * Variants + V];
      const Kind &Kd = Kinds[K];
      const bool Traced = obs::enabled();
      const auto S = Clock::now();
      exo::Error E;
      {
        trace::Span Root("request", (static_cast<uint64_t>(Id) + 1) << 40 | N);
        trace::Span Call(Kd.Span);
        E = issue(*Cl[Id], Kd, Op, C.data());
      }
      const double Dt = secondsSince(S);
      ++L.Attempted;
      if (E || std::memcmp(C.data(), Op.Want.data(), Op.Want.size()))
        ++L.Failed;
      L.Bytes += wireBytes(Kd);
      // A request that straddles a trace toggle belongs to neither side.
      if (Traced == obs::enabled()) {
        (Traced ? L.Traced : L.Untraced).push_back(Dt);
        if (Traced) {
          L.TracedFlops += flops(Kd);
          L.TracedPackBytes += packBytes(Kd);
        }
        else
          L.ByClass[Kd.Class].push_back(Dt);
      }
      if (secondsSince(T0) >= O.Seconds)
        Stop = true;
    }
  };
  std::vector<std::thread> Threads;
  for (int I = 0; I != Clients; ++I)
    Threads.emplace_back(client, I);
  // Traced runs alternate 200 ms untraced and traced phases, so both sides
  // see the same host conditions.
  while (!Stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(O.Trace ? 200 : 20));
    if (O.Trace)
      obs::setEnabled(!obs::enabled());
  }
  for (std::thread &T : Threads)
    T.join();
  obs::setEnabled(false);
  OpLog Log;
  Log.Wall = secondsSince(T0);
  const gemm::EngineStats S1 = Srv.engine().stats();
  const ipc::StatsReplyMsg W1 = Srv.stats().Wire;
  P.finish(R);

  ClientLog All;
  for (const ClientLog &L : Logs) {
    Log.Untraced.insert(Log.Untraced.end(), L.Untraced.begin(),
                        L.Untraced.end());
    Log.Traced.insert(Log.Traced.end(), L.Traced.begin(), L.Traced.end());
    for (int C = 0; C != 3; ++C)
      All.ByClass[C].insert(All.ByClass[C].end(), L.ByClass[C].begin(),
                            L.ByClass[C].end());
    All.TracedFlops += L.TracedFlops;
    All.TracedPackBytes += L.TracedPackBytes;
    All.Bytes += L.Bytes;
    R.Attempted += L.Attempted;
    R.Failed += L.Failed;
  }
  Srv.stop();

  reportOps(Log, R, "request round trip", 0.99);
  if (!O.Trace)
    return 0;
  const trace::Summary Sum = trace::analyze();
  const double Reqs = static_cast<double>(Sum["request"].Count);
  for (int C = 0; C != 3; ++C)
    R.add(std::string("rtt_us") + ClassSuffix[C], "us",
          median(All.ByClass[C]) * 1e6, All.ByClass[C].size());
  auto meanUs = [&](std::initializer_list<const char *> Names, bool Self) {
    double Ns = 0, N = 0;
    for (const char *Name : Names) {
      Ns += Self ? Sum[Name].SelfNs : Sum[Name].DurNs;
      N += static_cast<double>(Sum[Name].Count);
    }
    return N > 0 ? Ns * 1e-3 / N : 0;
  };
  const double ServerUs = meanUs({"gemmd.request", "gemmd.batch"}, false);
  const uint64_t N = Log.Traced.size();
  R.add("ipc.stage_us", "us", meanUs({"gemmd.client.stage"}, true), N);
  R.add("ipc.collect_us", "us", meanUs({"gemmd.client.collect"}, true), N);
  R.add("ipc.transport_us", "us",
        meanUs({"gemmd.client.call", "gemmd.client.batch"}, true) - ServerUs,
        N);
  R.add("ipc.bytes_per_req", "B", All.Bytes / static_cast<double>(R.Attempted),
        R.Attempted);
  R.add("daemon.request_us", "us", meanUs({"gemmd.request"}, false), N);
  R.add("daemon.batch_us", "us", meanUs({"gemmd.batch"}, false), N);
  const double Requests = static_cast<double>(W1.Requests - W0.Requests);
  R.add("daemon.busy_frac", "frac",
        Requests > 0 ? static_cast<double>(W1.Busy - W0.Busy) / Requests : 0,
        static_cast<uint64_t>(Requests));
  double TracedRtt = 0;
  for (double X : Log.Traced)
    TracedRtt += X;
  R.add("daemon.exec_frac", "frac",
        N ? ServerUs * 1e-6 / (TracedRtt / static_cast<double>(N)) : 0, N);
  reportGemmStages(Sum, "gemm.call", false, "", All.TracedFlops / Reqs,
                   All.TracedPackBytes / Reqs, Reqs, P, R);
  reportPlanStats(S0, S1, R);
  reportTraceCommon(Log, Sum, R);
  writeSpanFile(O, Sum);
  return 0;
}
