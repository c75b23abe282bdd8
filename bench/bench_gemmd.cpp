//===- bench_gemmd.cpp - gemmd saturation: req/s vs client count ----------===//
//
// What the daemon transport costs and how it scales: an in-process
// gemmd::Server on a private socket, then 1/2/4/8 concurrent client
// sessions (one thread + one gemm::Client each) hammering the same GEMM
// shape for the time budget. Rows per client count:
//
//   gemmd  req_per_s (better=higher)  — aggregate completed requests/s,
//          with aggregate GFLOPS and the per-call mean riding along as
//          extras
//
// plus one "local" baseline row: the same shape through an in-process
// Engine::sgemm on one thread — the ceiling the IPC round trip (staging
// copies + doorbells + scheduling) is measured against. The main shape
// (256^3; 512^3 with --big) fills the "gemmd" and "local" series; a 64^3
// run, where the round trip rather than the GEMM sets the rate, fills
// "gemmd_64" and "local_64".
//
// Each shape's first remote call is verified bitwise against the local Engine
// before anything is timed (the gemmd correctness contract; the real
// gate lives in daemon_test).
//
//===----------------------------------------------------------------------===//

#include "FigCommon.h"

#include "daemon/Server.h"
#include "ipc/Client.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <unistd.h>

using namespace gemm;

namespace {

std::string uniqueSocketPath() {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "/tmp/exo-gemmd-bench-%ld.sock",
                static_cast<long>(::getpid()));
  return Buf;
}

struct LoadPoint {
  uint64_t Requests = 0;
  double Seconds = 0;
  double reqPerS() const { return Requests / Seconds; }
};

/// \p Clients sessions flat-out for \p Budget seconds. Sessions connect
/// and warm up before the clock starts, so this measures the steady
/// state, not handshakes.
LoadPoint runLoad(const std::string &Socket, int Clients, int64_t S,
                  double Budget) {
  std::vector<std::unique_ptr<Client>> Cs;
  std::vector<std::vector<float>> As(Clients), Bs(Clients), Ccs(Clients);
  for (int I = 0; I != Clients; ++I) {
    Client::Options O;
    O.SocketPath = Socket;
    Cs.push_back(std::make_unique<Client>(O));
    As[I].resize(S * S);
    Bs[I].resize(S * S);
    Ccs[I].resize(S * S);
    benchutil::fillRandom(As[I].data(), As[I].size(), 11 + I);
    benchutil::fillRandom(Bs[I].data(), Bs[I].size(), 22 + I);
    // Warm-up call: connect + plan-cache hit path established.
    Cs[I]->sgemm(S, S, S, 1.f, As[I].data(), S, Bs[I].data(), S, 0.f,
                 Ccs[I].data(), S);
  }
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Total{0};
  std::vector<std::thread> Ts;
  for (int I = 0; I != Clients; ++I)
    Ts.emplace_back([&, I] {
      uint64_t Mine = 0;
      while (!Stop.load(std::memory_order_relaxed)) {
        if (!Cs[I]->sgemm(S, S, S, 1.f, As[I].data(), S, Bs[I].data(), S,
                          0.f, Ccs[I].data(), S))
          ++Mine;
      }
      Total.fetch_add(Mine, std::memory_order_relaxed);
    });
  auto Start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(Budget));
  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &T : Ts)
    T.join();
  LoadPoint P;
  P.Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  P.Requests = Total.load(std::memory_order_relaxed);
  return P;
}

/// One shape's rows: the remote result is checked bitwise against the
/// local Engine first, then the local ceiling and one row per client
/// count. \p Suffix tells the shape's series apart ("" for the main one).
bool runSeries(fig::Context &Ctx, benchutil::Table &T, Engine &Local,
               const std::string &Socket, int64_t S,
               const std::vector<int> &ClientCounts,
               const std::string &Suffix) {
  benchutil::BenchOptions &Opt = Ctx.Opt;
  const double Flops = 2.0 * S * S * S;
  const std::string Shape = std::to_string(S) + "^3";

  // Correctness first: the remote result must equal the local Engine's
  // bitwise before any number is reported.
  {
    std::vector<float> A(S * S), B(S * S), CR(S * S, 1.f), CL(S * S, 1.f);
    benchutil::fillRandom(A.data(), A.size(), 11);
    benchutil::fillRandom(B.data(), B.size(), 22);
    Client::Options CO;
    CO.SocketPath = Socket;
    Client Probe(CO);
    exo::Error E1 =
        Probe.sgemm(S, S, S, 1.f, A.data(), S, B.data(), S, 1.f, CR.data(), S);
    exo::Error E2 =
        Local.sgemm(S, S, S, 1.f, A.data(), S, B.data(), S, 1.f, CL.data(), S);
    if (E1 || E2) {
      std::fprintf(stderr, "gemm failed: %s\n",
                   (E1 ? E1 : E2).message().c_str());
      return false;
    }
    if (std::memcmp(CR.data(), CL.data(), CR.size() * sizeof(float)) != 0) {
      std::fprintf(stderr, "WRONG RESULT: remote differs from local Engine "
                           "at %lld\n",
                   static_cast<long long>(S));
      return false;
    }
  }

  // The local ceiling: one thread, no transport.
  benchutil::Measurement MLocal;
  {
    std::vector<float> A(S * S), B(S * S), C(S * S);
    benchutil::fillRandom(A.data(), A.size(), 11);
    benchutil::fillRandom(B.data(), B.size(), 22);
    MLocal = benchutil::measure(
        [&] {
          Local.sgemm(S, S, S, 1.f, A.data(), S, B.data(), S, 0.f, C.data(),
                      S);
        },
        Opt.Seconds);
  }
  double LocalReqPerS = 1.0 / MLocal.SecondsPerCall;
  T.addRow(Shape + " local", {LocalReqPerS,
                              benchutil::gflops(Flops, MLocal.SecondsPerCall),
                              MLocal.SecondsPerCall * 1e3});
  {
    benchutil::ReportRow Row;
    Row.Label = "local";
    Row.Series = "local" + Suffix;
    Row.Metric = "req_per_s";
    Row.Better = "higher";
    Row.Value = LocalReqPerS;
    Row.SecondsPerCall = MLocal.SecondsPerCall;
    Row.Reps = MLocal.Reps;
    Row.Threads = resolveGemmThreads(0);
    Row.M = Row.N = Row.K = S;
    Row.Extra["clients"] = 0;
    Row.Extra["agg_gflops"] =
        benchutil::gflops(Flops, MLocal.SecondsPerCall);
    Ctx.Rep.addRow(std::move(Row));
  }

  for (int Clients : ClientCounts) {
    LoadPoint P = runLoad(Socket, Clients, S, Opt.Seconds);
    double AggGflops = benchutil::gflops(Flops * P.Requests, P.Seconds);
    double MsPerReq =
        P.Requests ? P.Seconds / P.Requests * 1e3 * Clients : 0.0;
    T.addRow(Shape + " x" + std::to_string(Clients),
             {P.reqPerS(), AggGflops, MsPerReq});

    benchutil::ReportRow Row;
    Row.Label = "clients" + std::to_string(Clients);
    Row.Series = "gemmd" + Suffix;
    Row.Metric = "req_per_s";
    Row.Better = "higher";
    Row.Value = P.reqPerS();
    Row.SecondsPerCall = P.Requests ? P.Seconds / P.Requests : 0.0;
    Row.Reps = static_cast<int64_t>(P.Requests);
    Row.Threads = resolveGemmThreads(0);
    Row.M = Row.N = Row.K = S;
    Row.Extra["clients"] = Clients;
    Row.Extra["agg_gflops"] = AggGflops;
    Ctx.Rep.addRow(std::move(Row));
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  fig::Context Ctx("gemmd", Argc, Argv);
  benchutil::BenchOptions &Opt = Ctx.Opt;
  std::printf("gemmd saturation: req/s and aggregate GFLOPS vs concurrent "
              "clients (one shared daemon engine)\n");

  const int64_t S = Opt.Smoke ? 64 : Opt.Big ? 512 : 256;
  std::vector<int> ClientCounts =
      Opt.Smoke ? std::vector<int>{1, 2}
                : Opt.Big ? std::vector<int>{1, 2, 4, 8}
                          : std::vector<int>{1, 2, 4};

  gemmd::ServerOptions SO;
  SO.SocketPath = uniqueSocketPath();
  gemmd::Server Server(SO);
  if (exo::Error E = Server.start()) {
    std::fprintf(stderr, "gemmd server: %s\n", E.message().c_str());
    return 1;
  }

  Engine Local;
  benchutil::Table T("gemmd_saturation",
                     {"shape clients", "req_per_s", "agg_gflops",
                      "ms_per_req"},
                     Opt.Csv);
  // The main shape, then 64^3: a request small enough that the round
  // trip (staging, doorbells, wake-ups), not the GEMM, sets its rate.
  if (!runSeries(Ctx, T, Local, SO.SocketPath, S, ClientCounts, "") ||
      !runSeries(Ctx, T, Local, SO.SocketPath, 64, ClientCounts, "_64"))
    return 1;
  T.print();

  gemmd::ServerStats St = Server.stats();
  std::printf("daemon: %llu request(s), %llu ok, %llu busy, %llu client(s); "
              "plan %llu hit / %llu built; jit %llu compile(s)\n",
              static_cast<unsigned long long>(St.Wire.Requests),
              static_cast<unsigned long long>(St.Wire.Ok),
              static_cast<unsigned long long>(St.Wire.Busy),
              static_cast<unsigned long long>(St.Wire.TotalClients),
              static_cast<unsigned long long>(St.Wire.PlanHits),
              static_cast<unsigned long long>(St.Wire.PlanBuilds),
              static_cast<unsigned long long>(St.Wire.UkrCompiles));
  Server.stop();
  return Ctx.finish();
}
