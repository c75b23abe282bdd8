//===- gemmd_client_helper.cpp - out-of-process gemmd test client ---------===//
//
// A real separate client process for daemon_test's fault-isolation cases
// (fork+exec keeps the gtest/TSan runtime out of the child). Loops
// remote sgemm calls and verifies each result bitwise against a local
// Engine::sgemm with the same configuration:
//
//   gemmd_client_helper --socket PATH --iters N [--seed S] [--sleep-ms N]
//   gemmd_client_helper --die-after-region
//
// Exit codes: 0 all iterations verified, 2 a result mismatched, 3 a
// remote call failed. The SIGKILL cases kill this process mid-loop; the
// survivors' exit 0 is the fault-isolation proof. --die-after-region
// creates a session region and SIGKILLs itself before connecting: the
// window in which a named region used to leak.
//
//===----------------------------------------------------------------------===//

#include "gemm/Engine.h"
#include "ipc/Client.h"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

int main(int Argc, char **Argv) {
  std::string Socket;
  int Iters = 8;
  unsigned Seed = 1;
  int SleepMs = 0;
  for (int I = 1; I < Argc; ++I) {
    auto Value = [&](const char *Flag) -> const char * {
      if (std::strcmp(Argv[I], Flag) != 0)
        return nullptr;
      if (I + 1 >= Argc)
        std::exit(3);
      return Argv[++I];
    };
    if (const char *V = Value("--socket"))
      Socket = V;
    else if (const char *V = Value("--iters"))
      Iters = std::atoi(V);
    else if (const char *V = Value("--seed"))
      Seed = static_cast<unsigned>(std::atoi(V));
    else if (const char *V = Value("--sleep-ms"))
      SleepMs = std::atoi(V);
    else if (std::strcmp(Argv[I], "--die-after-region") == 0) {
      exo::Expected<ipc::ShmRegion> R = ipc::ShmRegion::create(1 << 20);
      if (!R)
        return 3;
      std::raise(SIGKILL);
    } else
      std::exit(3);
  }

  const int64_t M = 64, N = 48, K = 32;
  std::mt19937 Rng(Seed);
  std::uniform_real_distribution<float> Dist(-1.0f, 1.0f);
  std::vector<float> A(M * K), B(K * N), CRemote(M * N), CLocal(M * N);

  gemm::Client::Options CO;
  CO.SocketPath = Socket;
  CO.TimeoutMs = 30000;
  gemm::Client Remote(CO);
  gemm::Engine Local;

  for (int It = 0; It != Iters; ++It) {
    for (float &X : A)
      X = Dist(Rng);
    for (float &X : B)
      X = Dist(Rng);
    for (int64_t I = 0; I != M * N; ++I)
      CRemote[I] = CLocal[I] = Dist(Rng);
    const float Beta = It % 2 ? 0.5f : 0.0f;
    if (exo::Error E = Remote.sgemm(M, N, K, 1.0f, A.data(), M, B.data(), K,
                                    Beta, CRemote.data(), M)) {
      std::fprintf(stderr, "helper: remote: %s\n", E.message().c_str());
      return 3;
    }
    if (exo::Error E = Local.sgemm(M, N, K, 1.0f, A.data(), M, B.data(), K,
                                   Beta, CLocal.data(), M)) {
      std::fprintf(stderr, "helper: local: %s\n", E.message().c_str());
      return 3;
    }
    if (std::memcmp(CRemote.data(), CLocal.data(),
                    CRemote.size() * sizeof(float)) != 0) {
      std::fprintf(stderr, "helper: iteration %d mismatched\n", It);
      return 2;
    }
    if (SleepMs)
      std::this_thread::sleep_for(std::chrono::milliseconds(SleepMs));
  }
  std::printf("helper: %d iteration(s) verified\n", Iters);
  return 0;
}
