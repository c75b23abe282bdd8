//===- gemmd.cpp - the GEMM-as-a-service daemon entry point ---------------===//
//
// Runs one gemmd::Server until SIGINT/SIGTERM:
//
//   gemmd [--socket PATH] [--max-clients N] [--workers N] [--queue-max N]
//         [--foreground]
//
// By default the process detaches (fork + setsid) and prints the child pid;
// --foreground keeps it attached, which is what tests, bench_gemmd and
// anything under a supervisor want. On shutdown the server drains accepted
// work, replies, closes every session and dumps its final stats.
//
// --workers N counts every thread that runs requests, the socket poller
// included: N - 1 executors beside it, so at most N GEMMs run at once
// (default 1: the poller runs each request itself).
//
// Knobs: EXO_GEMMD_SOCKET and EXO_GEMMD_WORKERS stand in for an unset
// --socket and --workers (docs/KNOBS.md); flags win. --max-clients and
// --queue-max default to 64.
//
//===----------------------------------------------------------------------===//

#include "daemon/Server.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <unistd.h>

namespace {

std::atomic<bool> StopRequested{false};

void onSignal(int) { StopRequested.store(true, std::memory_order_relaxed); }

void usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--socket PATH] [--max-clients N] [--workers N] "
               "[--queue-max N] [--foreground]\n"
               "  --workers N  threads running requests, the poller "
               "included (default 1)\n",
               Argv0);
}

void dumpStats(const gemmd::ServerStats &St) {
  const ipc::StatsReplyMsg &W = St.Wire;
  std::fprintf(stderr,
               "gemmd: served %llu request(s) (%llu ok, %llu error, %llu "
               "busy) for %llu client(s), %llu reaped\n"
               "gemmd: plan cache %llu hit / %llu miss / %llu built / %llu "
               "evicted; jit %llu compile(s), %llu disk hit(s)\n",
               static_cast<unsigned long long>(W.Requests),
               static_cast<unsigned long long>(W.Ok),
               static_cast<unsigned long long>(W.Errors),
               static_cast<unsigned long long>(W.Busy),
               static_cast<unsigned long long>(W.TotalClients),
               static_cast<unsigned long long>(W.Reaped),
               static_cast<unsigned long long>(W.PlanHits),
               static_cast<unsigned long long>(W.PlanMisses),
               static_cast<unsigned long long>(W.PlanBuilds),
               static_cast<unsigned long long>(W.PlanEvictions),
               static_cast<unsigned long long>(W.UkrCompiles),
               static_cast<unsigned long long>(W.UkrDiskHits));
}

} // namespace

int main(int Argc, char **Argv) {
  gemmd::ServerOptions Opts;
  bool Foreground = false;

  for (int I = 1; I < Argc; ++I) {
    auto Value = [&](const char *Flag) -> const char * {
      if (std::strcmp(Argv[I], Flag) != 0)
        return nullptr;
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "%s needs a value\n", Flag);
        std::exit(2);
      }
      return Argv[++I];
    };
    if (const char *V = Value("--socket")) {
      Opts.SocketPath = V;
    } else if (const char *V = Value("--max-clients")) {
      Opts.MaxClients = std::atoi(V);
      if (Opts.MaxClients < 1) {
        std::fprintf(stderr, "--max-clients: '%s' is not a positive count\n",
                     V);
        return 2;
      }
    } else if (const char *V = Value("--workers")) {
      int W = std::atoi(V);
      if (W < 1) {
        std::fprintf(stderr, "--workers: '%s' is not a positive count\n", V);
        return 2;
      }
      Opts.Workers = static_cast<unsigned>(W);
    } else if (const char *V = Value("--queue-max")) {
      int Q = std::atoi(V);
      if (Q < 1) {
        std::fprintf(stderr, "--queue-max: '%s' is not a positive depth\n", V);
        return 2;
      }
      Opts.QueueMax = static_cast<size_t>(Q);
    } else if (!std::strcmp(Argv[I], "--foreground")) {
      Foreground = true;
    } else if (!std::strcmp(Argv[I], "--help") || !std::strcmp(Argv[I], "-h")) {
      usage(Argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", Argv[I]);
      usage(Argv[0]);
      return 2;
    }
  }

  if (!Foreground) {
    // Classic detach. The child reports readiness by outliving the bind;
    // supervisors that need synchronous startup should use --foreground.
    pid_t Pid = ::fork();
    if (Pid < 0) {
      std::perror("gemmd: fork");
      return 1;
    }
    if (Pid > 0) {
      std::printf("gemmd: started pid %ld\n", static_cast<long>(Pid));
      return 0;
    }
    ::setsid();
  }

  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  gemmd::Server Server(Opts);
  if (exo::Error E = Server.start()) {
    std::fprintf(stderr, "gemmd: %s\n", E.message().c_str());
    return 1;
  }
  std::fprintf(stderr, "gemmd: listening on %s\n",
               Server.socketPath().c_str());

  while (!StopRequested.load(std::memory_order_relaxed))
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::fprintf(stderr, "gemmd: shutting down\n");
  gemmd::ServerStats Final = Server.stats();
  Server.stop();
  dumpStats(Final);
  return 0;
}
