//===- DaemonTest.cpp - gemmd server/client integration tests -------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// The gemmd contracts, tested end to end with a real in-process server:
//
//   - remote sgemm results are bitwise identical to a local Engine::sgemm
//     (including degenerate and error paths),
//   - a cold client's first call on a daemon-warmed shape is a pure cache
//     hit (no plan build, no JIT compile),
//   - fault isolation: a SIGKILLed client process, a malformed packet
//     header, or an oversized header costs exactly that client its
//     session while every other stream keeps serving,
//   - admission control answers Busy instead of queueing unboundedly,
//   - handshake rejections (bad version, --max-clients, a region fd that
//     is missing, extra, unsealed or mis-sized) are clean and leak no fd,
//     a silent or short-Hello peer stalls no other tenant, and a session
//     region never has a /dev/shm name to leak,
//   - the response ring's Spinning word skips exactly the doorbells of
//     the session that set it, and stop() answers every admitted request
//     whether the poller runs it or an executor does.
//
// Out-of-process clients are fork+exec'd real binaries
// (gemmd_client_helper), so SIGKILL kills a genuine separate process.
//
//===----------------------------------------------------------------------===//

#include "daemon/Server.h"
#include "exo/jit/Jit.h"
#include "gemm/Engine.h"
#include "gemm/Planner.h"
#include "gemm/PriorDb.h"
#include "ipc/Client.h"
#include "ipc/Ring.h"
#include "ipc/Shm.h"
#include "ipc/Socket.h"
#include "obs/Obs.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <random>
#include <set>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace exo;

namespace {

std::string uniqueSocketPath() {
  static std::atomic<int> Counter{0};
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "/tmp/exo-gemmd-test-%ld-%d.sock",
                static_cast<long>(::getpid()),
                Counter.fetch_add(1, std::memory_order_relaxed));
  return Buf;
}

/// A server on a fresh unique socket, torn down with the test.
struct ServerFixture {
  gemmd::ServerOptions Opts;
  std::unique_ptr<gemmd::Server> Srv;

  explicit ServerFixture(gemmd::ServerOptions O = {}) {
    O.SocketPath = uniqueSocketPath();
    Opts = O;
    Srv = std::make_unique<gemmd::Server>(O);
    Error E = Srv->start();
    EXPECT_FALSE(E) << (E ? E.message() : "");
  }
  ~ServerFixture() { Srv->stop(); }

  gemm::Client::Options clientOpts(uint64_t ShmBytes = 8ull << 20) const {
    gemm::Client::Options CO;
    CO.SocketPath = Opts.SocketPath;
    CO.ShmBytes = ShmBytes;
    CO.TimeoutMs = 60000; // CI machines are slow; never hang forever
    return CO;
  }
};

void fillRandom(std::vector<float> &V, unsigned Seed) {
  std::mt19937 Rng(Seed);
  std::uniform_real_distribution<float> Dist(-1.0f, 1.0f);
  for (float &X : V)
    X = Dist(Rng);
}

/// Runs one (TA, TB, M, N, K, beta) problem remotely and locally and
/// expects bitwise-identical C.
void expectRemoteMatchesLocal(gemm::Client &Remote, gemm::Engine &Local,
                              gemm::Trans TA, gemm::Trans TB, int64_t M,
                              int64_t N, int64_t K, float Beta,
                              unsigned Seed) {
  const int64_t ARows = TA == gemm::Trans::None ? M : K;
  const int64_t ACols = TA == gemm::Trans::None ? K : M;
  const int64_t BRows = TB == gemm::Trans::None ? K : N;
  const int64_t BCols = TB == gemm::Trans::None ? N : K;
  std::vector<float> A(ARows * ACols), B(BRows * BCols), C0(M * N);
  fillRandom(A, Seed);
  fillRandom(B, Seed + 1);
  fillRandom(C0, Seed + 2);
  std::vector<float> CR = C0, CL = C0;
  Error ER = Remote.sgemm(TA, TB, M, N, K, 1.0f, A.data(), ARows, B.data(),
                          BRows, Beta, CR.data(), M);
  ASSERT_FALSE(ER) << ER.message();
  Error EL = Local.sgemm(TA, TB, M, N, K, 1.0f, A.data(), ARows, B.data(),
                         BRows, Beta, CL.data(), M);
  ASSERT_FALSE(EL) << EL.message();
  EXPECT_EQ(0,
            std::memcmp(CR.data(), CL.data(), CR.size() * sizeof(float)))
      << "remote result diverged for " << M << "x" << N << "x" << K;
}

/// What a RawSession's Hello passes along as SCM_RIGHTS fds. Only Sealed
/// (the session's own sealed memfd, what gemm::Client sends) is valid.
enum class HelloFds { Sealed, None, Two, Pipe, WrongSize, Unsealed };

/// Sends \p Hello with two fds in one SCM_RIGHTS message, which
/// Socket::sendAll cannot.
Error sendWithTwoFds(int Sock, const ipc::HelloMsg &Hello, int A, int B) {
  iovec Iov{const_cast<ipc::HelloMsg *>(&Hello), sizeof(Hello)};
  alignas(cmsghdr) char Ctl[CMSG_SPACE(2 * sizeof(int))] = {};
  msghdr Msg{};
  Msg.msg_iov = &Iov;
  Msg.msg_iovlen = 1;
  Msg.msg_control = Ctl;
  Msg.msg_controllen = sizeof(Ctl);
  cmsghdr *C = CMSG_FIRSTHDR(&Msg);
  C->cmsg_level = SOL_SOCKET;
  C->cmsg_type = SCM_RIGHTS;
  C->cmsg_len = CMSG_LEN(2 * sizeof(int));
  const int Fds[2] = {A, B};
  std::memcpy(CMSG_DATA(C), Fds, sizeof(Fds));
  if (::sendmsg(Sock, &Msg, MSG_NOSIGNAL) != sizeof(Hello))
    return errorf("raw session: sendmsg failed: %s", std::strerror(errno));
  return Error::success();
}

/// A hand-rolled session speaking the raw wire protocol — what a buggy or
/// malicious client "looks like" to the server.
struct RawSession {
  ipc::ShmRegion Shm;
  ipc::SessionLayout Layout;
  ipc::Socket Sock;
  ipc::RingView Req, Resp;
  ipc::HelloAck Ack;
  HelloFds Fds = HelloFds::Sealed; ///< set before connect()

  /// Connects and handshakes; \p Mutate can corrupt the HelloMsg first.
  Error connect(const std::string &Path,
                void (*Mutate)(ipc::HelloMsg &) = nullptr,
                uint64_t Bytes = 1 << 20, uint32_t Slots = 16) {
    Expected<ipc::SessionLayout> L = ipc::SessionLayout::derive(Bytes, Slots);
    if (!L)
      return L.takeError();
    Layout = *L;
    Expected<ipc::ShmRegion> R = ipc::ShmRegion::create(Bytes);
    if (!R)
      return R.takeError();
    Shm = R.take();
    auto *H = reinterpret_cast<ipc::ShmSessionHeader *>(Shm.base());
    *H = ipc::ShmSessionHeader{};
    H->TotalBytes = Bytes;
    H->RingSlots = Slots;
    H->ArenaOff = Layout.ArenaOff;
    H->ArenaBytes = Layout.ArenaBytes;
    Req.init(Shm.at(Layout.ReqRingOff), Slots);
    Resp.init(Shm.at(Layout.RespRingOff), Slots);
    Expected<ipc::Socket> S = ipc::Socket::connect(Path);
    if (!S)
      return S.takeError();
    Sock = S.take();
    ipc::HelloMsg Hello;
    Hello.ShmBytes = Bytes;
    Hello.RingSlots = Slots;
    if (Mutate)
      Mutate(Hello);
    if (Error E = sendHello(Hello))
      return E;
    return Sock.recvAllTimed(&Ack, sizeof(Ack), 60000);
  }

  /// Sends \p Hello with the fds Fds names.
  Error sendHello(const ipc::HelloMsg &Hello) {
    switch (Fds) {
    case HelloFds::Sealed:
      return Sock.sendAll(&Hello, sizeof(Hello), Shm.fd());
    case HelloFds::None:
      return Sock.sendAll(&Hello, sizeof(Hello));
    case HelloFds::Two:
      return sendWithTwoFds(Sock.fd(), Hello, Shm.fd(), Shm.fd());
    case HelloFds::Pipe: {
      int P[2];
      if (::pipe2(P, O_CLOEXEC) != 0)
        return errorf("raw session: pipe2 failed");
      Error E = Sock.sendAll(&Hello, sizeof(Hello), P[0]);
      ::close(P[0]);
      ::close(P[1]);
      return E;
    }
    case HelloFds::WrongSize: {
      Expected<ipc::ShmRegion> Other =
          ipc::ShmRegion::create(Layout.TotalBytes * 2);
      if (!Other)
        return Other.takeError();
      return Sock.sendAll(&Hello, sizeof(Hello), Other->fd());
    }
    case HelloFds::Unsealed: {
      // The same formatted region, minus the seals.
      const off_t Size = static_cast<off_t>(Layout.TotalBytes);
      int U = ::memfd_create("unsealed", MFD_CLOEXEC);
      if (U < 0 || ::ftruncate(U, Size) != 0 ||
          ::pwrite(U, Shm.base(), Layout.ArenaOff, 0) !=
              static_cast<ssize_t>(Layout.ArenaOff)) {
        if (U >= 0)
          ::close(U);
        return errorf("raw session: unsealed memfd failed");
      }
      Error E = Sock.sendAll(&Hello, sizeof(Hello), U);
      ::close(U);
      return E;
    }
    }
    return errorf("raw session: unknown HelloFds");
  }

  /// True once the server has closed its end (after a rejection, it has
  /// then also closed every fd the Hello passed).
  bool closedByServer(int TimeoutMs = 60000) {
    pollfd P{Sock.fd(), POLLIN, 0};
    char Byte;
    return ::poll(&P, 1, TimeoutMs) == 1 && ::recv(Sock.fd(), &Byte, 1, 0) == 0;
  }

  bool admitted() const {
    return Ack.Status == static_cast<uint16_t>(ipc::HelloStatus::Ok);
  }

  /// Pushes raw bytes as one packet and rings the request doorbell.
  Error post(const void *Packet, uint32_t Bytes) {
    if (!Req.push(Packet, Bytes))
      return errorf("raw session: request ring full");
    return Sock.ring(ipc::DoorbellRequest);
  }

  /// Pops the next reply, waiting on the doorbell as needed.
  Error nextReply(void *Slot, int TimeoutMs = 60000) {
    for (;;) {
      if (Resp.pop(Slot))
        return Error::success();
      uint8_t Bell;
      if (Error E = Sock.recvAllTimed(&Bell, 1, TimeoutMs))
        return E;
    }
  }

  /// Pops the next reply by watching the ring alone — what a spinning
  /// client does — never reading a doorbell.
  Error ringReply(void *Slot, int TimeoutMs = 60000) {
    auto Until = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(TimeoutMs);
    while (!Resp.pop(Slot)) {
      if (std::chrono::steady_clock::now() > Until)
        return errorf("raw session: no reply in the ring");
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return Error::success();
  }

  /// True when a doorbell byte (or EOF) is readable within \p Ms.
  bool doorbellWithin(int Ms) {
    pollfd P{Sock.fd(), POLLIN, 0};
    return ::poll(&P, 1, Ms) == 1;
  }

  /// The response ring's Spinning word, written raw (any value).
  std::atomic<uint32_t> &spinningWord() {
    return reinterpret_cast<ipc::RingHeader *>(Shm.at(Layout.RespRingOff))
        ->Spinning;
  }
};

/// fork+execs gemmd_client_helper; returns the child pid.
pid_t spawnHelper(const std::string &Socket, int Iters, int Seed,
                  int SleepMs) {
  std::string ItersS = std::to_string(Iters);
  std::string SeedS = std::to_string(Seed);
  std::string SleepS = std::to_string(SleepMs);
  pid_t Pid = ::fork();
  if (Pid == 0) {
    ::execl(GEMMD_HELPER, GEMMD_HELPER, "--socket", Socket.c_str(),
            "--iters", ItersS.c_str(), "--seed", SeedS.c_str(),
            "--sleep-ms", SleepS.c_str(), static_cast<char *>(nullptr));
    _exit(127); // exec failed
  }
  return Pid;
}

/// The /dev/shm entries a named region of one of \p Pids would leave
/// (the pre-memfd scheme named them exo-gemmd-<pid>-<clock>-<n>).
std::vector<std::string> shmEntriesOf(std::initializer_list<pid_t> Pids) {
  std::vector<std::string> Found;
  if (DIR *D = ::opendir("/dev/shm")) {
    while (dirent *E = ::readdir(D))
      for (pid_t P : Pids) {
        std::string Prefix = "exo-gemmd-" + std::to_string(P) + "-";
        if (std::strncmp(E->d_name, Prefix.c_str(), Prefix.size()) == 0)
          Found.push_back(E->d_name);
      }
    ::closedir(D);
  }
  return Found;
}

/// Open fds of this process, the in-process server's included.
size_t openFdCount() {
  size_t N = 0;
  if (DIR *D = ::opendir("/proc/self/fd")) {
    while (::readdir(D))
      ++N;
    ::closedir(D);
  }
  return N;
}

//===----------------------------------------------------------------------===//
// Differential correctness (the satellite-5 contract)
//===----------------------------------------------------------------------===//

TEST(GemmdDifferential, RemoteMatchesLocalBitwise) {
  ServerFixture F;
  gemm::Client Remote(F.clientOpts());
  gemm::Engine Local; // same default EngineConfig as the server's engine
  expectRemoteMatchesLocal(Remote, Local, gemm::Trans::None,
                           gemm::Trans::None, 64, 48, 32, 0.0f, 11);
  expectRemoteMatchesLocal(Remote, Local, gemm::Trans::None,
                           gemm::Trans::None, 33, 29, 17, 0.5f, 22);
  expectRemoteMatchesLocal(Remote, Local, gemm::Trans::Transpose,
                           gemm::Trans::None, 40, 24, 16, 1.0f, 33);
  expectRemoteMatchesLocal(Remote, Local, gemm::Trans::None,
                           gemm::Trans::Transpose, 24, 40, 16, 0.0f, 44);
  expectRemoteMatchesLocal(Remote, Local, gemm::Trans::Transpose,
                           gemm::Trans::Transpose, 16, 16, 48, 0.25f, 55);
}

TEST(GemmdDifferential, DegenerateCallsMatchEngineExactly) {
  ServerFixture F;
  gemm::Client Remote(F.clientOpts());
  gemm::Engine Local;
  // m == 0: C untouched, no wire traffic.
  std::vector<float> C{1, 2, 3, 4};
  ASSERT_FALSE(Remote.sgemm(0, 2, 2, 1.0f, nullptr, 1, nullptr, 1, 0.0f,
                            C.data(), 1));
  EXPECT_EQ(1.0f, C[0]);
  // k == 0: beta scaling, bitwise-identical to the Engine's path.
  std::vector<float> CR{1, 2, 3, 4}, CL{1, 2, 3, 4};
  ASSERT_FALSE(Remote.sgemm(2, 2, 0, 1.0f, nullptr, 2, nullptr, 1, 0.3f,
                            CR.data(), 2));
  ASSERT_FALSE(Local.sgemm(2, 2, 0, 1.0f, nullptr, 2, nullptr, 1, 0.3f,
                           CL.data(), 2));
  EXPECT_EQ(0, std::memcmp(CR.data(), CL.data(), 4 * sizeof(float)));
  // Errors: negative dims and bad leading dimensions fail client-side.
  Error E1 = Remote.sgemm(-1, 2, 2, 1.0f, nullptr, 1, nullptr, 1, 0.0f,
                          C.data(), 1);
  ASSERT_TRUE(E1);
  EXPECT_NE(E1.message().find("negative dimension"), std::string::npos);
  Error E2 = Remote.sgemm(4, 2, 3, 1.0f, C.data(), 2, C.data(), 3, 0.0f,
                          C.data(), 4);
  ASSERT_TRUE(E2);
  EXPECT_NE(E2.message().find("leading dimension"), std::string::npos);
}

TEST(GemmdDifferential, OutOfProcessClientVerifies) {
  ServerFixture F;
  pid_t Pid = spawnHelper(F.Opts.SocketPath, 4, 7, 0);
  ASSERT_GT(Pid, 0);
  int Status = 0;
  ASSERT_EQ(Pid, ::waitpid(Pid, &Status, 0));
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(0, WEXITSTATUS(Status)) << "helper found a divergence";
}

TEST(GemmdDifferential, ConcurrentClientsOnExecutorsMatchLocalBitwise) {
  // The poller plus three executors: with four clients in flight the
  // queue holds more than one request, so the executors run some of them.
  gemmd::ServerOptions O;
  O.Workers = 4;
  ServerFixture F(O);
  constexpr unsigned Clients = 4, Rounds = 6;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != Clients; ++T)
    Threads.emplace_back([&F, T] {
      gemm::Client Remote(F.clientOpts());
      gemm::Engine Local;
      for (unsigned R = 0; R != Rounds; ++R) {
        const int64_t M = 24 + 8 * T + R, N = 40 - 4 * T + R, K = 16 + 3 * R;
        expectRemoteMatchesLocal(Remote, Local, gemm::Trans::None,
                                 R % 2 ? gemm::Trans::Transpose
                                       : gemm::Trans::None,
                                 M, N, K, R % 3 ? 0.5f : 0.0f,
                                 1000 * T + 10 * R);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  uint64_t Ok = 0;
  for (const gemmd::ClientStat &C : F.Srv->stats().PerClient)
    Ok += C.Ok;
  EXPECT_EQ(Clients * Rounds, Ok);
}

//===----------------------------------------------------------------------===//
// Batched round trips
//===----------------------------------------------------------------------===//

TEST(GemmdBatched, StridedBatchedMatchesLocalBitwise) {
  ServerFixture F;
  gemm::Client Remote(F.clientOpts());
  gemm::Engine Local; // same default EngineConfig as the server's engine
  const int64_t M = 17, N = 23, K = 31, Count = 6;
  const int64_t SA = M * K + 2, SB = K * N + 1, SC = M * N + 3;
  std::vector<float> A(SA * Count), B(SB * Count), C0(SC * Count);
  fillRandom(A, 101);
  fillRandom(B, 102);
  fillRandom(C0, 103);
  std::vector<float> CR = C0, CL = C0;
  Error ER = Remote.sgemmStridedBatched(
      gemm::Trans::None, gemm::Trans::None, M, N, K, 1.25f, A.data(), M, SA,
      B.data(), K, SB, 0.5f, CR.data(), M, SC, Count);
  ASSERT_FALSE(ER) << ER.message();
  Error EL = Local.sgemmStridedBatched(
      gemm::Trans::None, gemm::Trans::None, M, N, K, 1.25f, A.data(), M, SA,
      B.data(), K, SB, 0.5f, CL.data(), M, SC, Count);
  ASSERT_FALSE(EL) << EL.message();
  EXPECT_EQ(0, std::memcmp(CR.data(), CL.data(), CR.size() * sizeof(float)))
      << "remote batch diverged from local engine";

  // A one-item batch is a single GEMM: remote batch == local sgemm.
  std::vector<float> C1R(C0.begin(), C0.begin() + SC), C1L = C1R;
  ER = Remote.sgemmStridedBatched(gemm::Trans::None, gemm::Trans::None, M, N,
                                  K, 1.25f, A.data(), M, SA, B.data(), K, SB,
                                  0.5f, C1R.data(), M, SC, 1);
  ASSERT_FALSE(ER) << ER.message();
  EL = Local.sgemm(gemm::Trans::None, gemm::Trans::None, M, N, K, 1.25f,
                   A.data(), M, B.data(), K, 0.5f, C1L.data(), M);
  ASSERT_FALSE(EL) << EL.message();
  EXPECT_EQ(0,
            std::memcmp(C1R.data(), C1L.data(), C1R.size() * sizeof(float)))
      << "remote one-item batch diverged from local sgemm";
}

TEST(GemmdBatched, StrideZeroSharedOperandsMatchLocal) {
  ServerFixture F;
  gemm::Client Remote(F.clientOpts());
  gemm::Engine Local;
  const int64_t M = 24, N = 36, K = 48, Count = 5;
  std::vector<float> A(M * K), B(K * N), CR(M * N * Count, 0.0f),
      CL(M * N * Count, 0.0f);
  fillRandom(A, 201);
  fillRandom(B, 202);
  // A and B shared across the batch (stride 0): the client ships each
  // exactly once, the server fans them out.
  Error ER = Remote.sgemmStridedBatched(gemm::Trans::None, gemm::Trans::None,
                                        M, N, K, 1.0f, A.data(), M, 0,
                                        B.data(), K, 0, 0.0f, CR.data(), M,
                                        M * N, Count);
  ASSERT_FALSE(ER) << ER.message();
  Error EL = Local.sgemmStridedBatched(gemm::Trans::None, gemm::Trans::None,
                                       M, N, K, 1.0f, A.data(), M, 0,
                                       B.data(), K, 0, 0.0f, CL.data(), M,
                                       M * N, Count);
  ASSERT_FALSE(EL) << EL.message();
  EXPECT_EQ(0, std::memcmp(CR.data(), CL.data(), CR.size() * sizeof(float)));
}

TEST(GemmdBatched, DegenerateAndInvalidBatchesResolveClientSide) {
  ServerFixture F;
  gemm::Client Remote(F.clientOpts());
  gemm::Engine Local;
  // Empty batch: success, no wire traffic needed.
  ASSERT_FALSE(Remote.sgemmStridedBatched(gemm::Trans::None,
                                          gemm::Trans::None, 8, 8, 8, 1.0f,
                                          nullptr, 8, 64, nullptr, 8, 64,
                                          0.0f, nullptr, 8, 64, 0));
  // alpha == 0: local beta scaling per item, identical to the engine's.
  const int64_t M = 3, N = 2, Count = 2, SC = M * N;
  std::vector<float> CR(SC * Count), CL(SC * Count);
  fillRandom(CR, 301);
  std::memcpy(CL.data(), CR.data(), CR.size() * sizeof(float));
  ASSERT_FALSE(Remote.sgemmStridedBatched(gemm::Trans::None,
                                          gemm::Trans::None, M, N, 4, 0.0f,
                                          nullptr, M, 0, nullptr, 4, 0,
                                          0.25f, CR.data(), M, SC, Count));
  ASSERT_FALSE(Local.sgemmStridedBatched(gemm::Trans::None,
                                         gemm::Trans::None, M, N, 4, 0.0f,
                                         nullptr, M, 0, nullptr, 4, 0,
                                         0.25f, CL.data(), M, SC, Count));
  EXPECT_EQ(0, std::memcmp(CR.data(), CL.data(), CR.size() * sizeof(float)));
  // Overlapping C panels fail before any traffic.
  std::vector<float> Buf(256);
  Error E = Remote.sgemmStridedBatched(gemm::Trans::None, gemm::Trans::None,
                                       8, 8, 8, 1.0f, Buf.data(), 8, 0,
                                       Buf.data(), 8, 0, 0.0f, Buf.data(), 8,
                                       32, 2);
  ASSERT_TRUE(E);
  // Ldc * N = 2^64 wraps a 64-bit product to 0, which would let StrideC 0
  // pass the same rule and send the collect loop to C[j * 2^62].
  std::vector<float> COut(8, 7.0f);
  EXPECT_TRUE(Remote.sgemmStridedBatched(
      gemm::Trans::None, gemm::Trans::None, 1, 4, 1, 1.0f, Buf.data(), 1, 1,
      Buf.data(), 1, 4, 0.0f, COut.data(), int64_t(1) << 62, 0, 2));
  EXPECT_EQ(COut, std::vector<float>(8, 7.0f));
  EXPECT_FALSE(Remote.ping()) << "the session must keep serving";
}

//===----------------------------------------------------------------------===//
// The warm shared cache (the headline acceptance criterion)
//===----------------------------------------------------------------------===//

TEST(GemmdWarmCache, ColdClientSkipsPlanBuildAndJitOnWarmShape) {
  ServerFixture F;
  const int64_t M = 72, N = 36, K = 24;
  std::vector<float> A(M * K), B(K * N), C(M * N);
  fillRandom(A, 1);
  fillRandom(B, 2);

  // First client warms the daemon: its call pays plan build (and possibly
  // JIT compiles).
  gemm::Client Warmer(F.clientOpts());
  ASSERT_FALSE(Warmer.sgemm(M, N, K, 1.0f, A.data(), M, B.data(), K, 0.0f,
                            C.data(), M));
  ipc::StatsReplyMsg Warm;
  ASSERT_FALSE(Warmer.serverStats(Warm));
  EXPECT_GE(Warm.PlanBuilds, 1u);

  // A brand-new session ("cold client") on the same shape must ride the
  // warm caches: plan hit, no new build, no compiler invocation.
  gemm::Client Cold(F.clientOpts());
  ASSERT_FALSE(Cold.sgemm(M, N, K, 1.0f, A.data(), M, B.data(), K, 0.0f,
                          C.data(), M));
  ipc::StatsReplyMsg After;
  ASSERT_FALSE(Cold.serverStats(After));
  EXPECT_EQ(Warm.PlanBuilds, After.PlanBuilds);
  EXPECT_EQ(Warm.UkrCompiles, After.UkrCompiles);
  EXPECT_EQ(Warm.PlanHits + 1, After.PlanHits);
  EXPECT_TRUE(Cold.lastFlags() & ipc::ReplyPlanHit);
  EXPECT_FALSE(Cold.lastFlags() & ipc::ReplyPlanBuilt);
  EXPECT_FALSE(Cold.lastFlags() & ipc::ReplyJitCompiled);
  EXPECT_EQ(2u, After.TotalClients);
}

//===----------------------------------------------------------------------===//
// Fault isolation
//===----------------------------------------------------------------------===//

TEST(GemmdFaultIsolation, SigkilledClientMidRequestSparesOthers) {
  ServerFixture F;
  // Three real client processes; the victim runs long enough that SIGKILL
  // lands mid-stream (1 ms pause per iteration keeps it alive past the
  // kill without slowing the suite).
  pid_t Victim = spawnHelper(F.Opts.SocketPath, 2000, 101, 1);
  pid_t S1 = spawnHelper(F.Opts.SocketPath, 20, 102, 0);
  pid_t S2 = spawnHelper(F.Opts.SocketPath, 20, 103, 0);
  ASSERT_GT(Victim, 0);
  ASSERT_GT(S1, 0);
  ASSERT_GT(S2, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_EQ(0, ::kill(Victim, SIGKILL));
  int Status = 0;
  ASSERT_EQ(Victim, ::waitpid(Victim, &Status, 0));
  EXPECT_TRUE(WIFSIGNALED(Status));

  // The survivors complete all iterations bitwise-correct...
  ASSERT_EQ(S1, ::waitpid(S1, &Status, 0));
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(0, WEXITSTATUS(Status)) << "survivor 1 failed";
  ASSERT_EQ(S2, ::waitpid(S2, &Status, 0));
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(0, WEXITSTATUS(Status)) << "survivor 2 failed";

  // ...and the server keeps serving fresh sessions, with the death
  // recorded as a reap.
  gemm::Client After(F.clientOpts());
  ASSERT_FALSE(After.ping());
  ipc::StatsReplyMsg St;
  ASSERT_FALSE(After.serverStats(St));
  EXPECT_GE(St.Reaped, 1u);
}

TEST(GemmdFaultIsolation, HostileShrinkCannotSigbusTheServer) {
  ServerFixture F;
  // An unsealed region could be truncated under the server's mapping, so
  // the server refuses it.
  RawSession Unsealed;
  Unsealed.Fds = HelloFds::Unsealed;
  ASSERT_FALSE(Unsealed.connect(F.Opts.SocketPath));
  EXPECT_EQ(static_cast<uint16_t>(ipc::HelloStatus::BadRegion),
            Unsealed.Ack.Status);

  // An admitted region cannot be shrunk, even by the client that made it...
  RawSession Admitted;
  ASSERT_FALSE(Admitted.connect(F.Opts.SocketPath));
  ASSERT_TRUE(Admitted.admitted());
  errno = 0;
  EXPECT_EQ(-1, ::ftruncate(Admitted.Shm.fd(), 0));
  EXPECT_EQ(EPERM, errno);

  // ...so that session and every other one keep being served.
  ipc::PacketHeader Ping;
  Ping.Type = static_cast<uint16_t>(ipc::PacketType::Ping);
  Ping.Seq = 1;
  Ping.Bytes = sizeof(Ping);
  ASSERT_FALSE(Admitted.post(&Ping, sizeof(Ping)));
  alignas(8) unsigned char Slot[ipc::SlotBytes] = {};
  ASSERT_FALSE(Admitted.nextReply(Slot));
  ipc::PacketHeader Pong;
  std::memcpy(&Pong, Slot, sizeof(Pong));
  EXPECT_EQ(static_cast<uint16_t>(ipc::PacketType::PingReply), Pong.Type);
  gemm::Client Other(F.clientOpts());
  gemm::Engine Local;
  expectRemoteMatchesLocal(Other, Local, gemm::Trans::None,
                           gemm::Trans::None, 64, 48, 32, 0.5f, 66);
  expectRemoteMatchesLocal(Other, Local, gemm::Trans::Transpose,
                           gemm::Trans::None, 33, 29, 17, 0.0f, 67);
}

TEST(GemmdFaultIsolation, MalformedHeaderReapsOnlyThatClient) {
  ServerFixture F;
  gemm::Client Healthy(F.clientOpts());
  ASSERT_FALSE(Healthy.ping());

  RawSession Evil;
  ASSERT_FALSE(Evil.connect(F.Opts.SocketPath));
  ASSERT_TRUE(Evil.admitted());
  unsigned char Garbage[64];
  std::memset(Garbage, 0xAB, sizeof(Garbage)); // wrong magic, wrong all
  ASSERT_FALSE(Evil.post(Garbage, sizeof(Garbage)));

  // The server reaps the violator: its socket reads EOF.
  uint8_t Bell;
  Error E = Evil.Sock.recvAllTimed(&Bell, 1, 60000);
  ASSERT_TRUE(E);
  EXPECT_NE(E.message().find("closed"), std::string::npos) << E.message();

  // The healthy session never noticed.
  std::vector<float> A(8 * 8, 1.0f), C(8 * 8, 0.0f);
  EXPECT_FALSE(Healthy.sgemm(8, 8, 8, 1.0f, A.data(), 8, A.data(), 8, 0.0f,
                             C.data(), 8));
  ipc::StatsReplyMsg St;
  ASSERT_FALSE(Healthy.serverStats(St));
  EXPECT_GE(St.Reaped, 1u);
}

TEST(GemmdFaultIsolation, OversizedHeaderReaped) {
  ServerFixture F;
  RawSession Evil;
  ASSERT_FALSE(Evil.connect(F.Opts.SocketPath));
  ASSERT_TRUE(Evil.admitted());
  // Valid magic/version, but Bytes claims more than a slot can hold.
  ipc::PacketHeader H;
  H.Type = static_cast<uint16_t>(ipc::PacketType::GemmRequest);
  H.Bytes = ipc::SlotBytes * 4;
  ASSERT_FALSE(Evil.post(&H, sizeof(H)));
  uint8_t Bell;
  Error E = Evil.Sock.recvAllTimed(&Bell, 1, 60000);
  ASSERT_TRUE(E); // EOF: session reaped

  // Server still admits and serves new sessions.
  gemm::Client After(F.clientOpts());
  EXPECT_FALSE(After.ping());
}

/// Polls Server::stats() until session \p Id has departed; returns its
/// recorded reap reason ("" if it never departs or has none).
std::string reapReasonOf(const gemmd::Server &Srv, uint32_t Id) {
  for (int Try = 0; Try != 500; ++Try) {
    for (const gemmd::ClientStat &C : Srv.stats().PerClient)
      if (C.Id == Id && !C.Active)
        return C.ReapReason ? C.ReapReason : "";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return "";
}

TEST(GemmdFaultIsolation, ReapReasonsAreRecorded) {
  ServerFixture F;
  uint8_t Bell;

  // A v4 GemmRequest whose header still claims the v3 packet size.
  RawSession Short;
  ASSERT_FALSE(Short.connect(F.Opts.SocketPath));
  ASSERT_TRUE(Short.admitted());
  ipc::GemmRequestMsg Q;
  Q.H.Type = static_cast<uint16_t>(ipc::PacketType::GemmRequest);
  Q.H.Seq = 1;
  Q.H.Bytes = 104;
  ASSERT_FALSE(Short.post(&Q, Q.H.Bytes));
  EXPECT_TRUE(bool(Short.Sock.recvAllTimed(&Bell, 1, 60000))); // EOF
  EXPECT_EQ("truncated GemmRequest",
            reapReasonOf(*F.Srv, Short.Ack.ClientId));

  // The retired v3 batch request type.
  RawSession Retired;
  ASSERT_FALSE(Retired.connect(F.Opts.SocketPath));
  ASSERT_TRUE(Retired.admitted());
  ipc::PacketHeader H;
  H.Type = 7;
  H.Seq = 2;
  H.Bytes = sizeof(H);
  ASSERT_FALSE(Retired.post(&H, sizeof(H)));
  EXPECT_TRUE(bool(Retired.Sock.recvAllTimed(&Bell, 1, 60000))); // EOF
  EXPECT_EQ("unexpected packet type",
            reapReasonOf(*F.Srv, Retired.Ack.ClientId));

  // A healthy client is served bitwise-correct afterwards.
  gemm::Client Healthy(F.clientOpts());
  gemm::Engine Local;
  expectRemoteMatchesLocal(Healthy, Local, gemm::Trans::None,
                           gemm::Trans::None, 24, 20, 16, 0.5f, 77);
}

//===----------------------------------------------------------------------===//
// Request validation: one validator for every GEMM request
//===----------------------------------------------------------------------===//

/// A well-formed 8x8x8 request: A, B and C at arena bytes 0, 1024 and
/// 2048, each operand's items 64 elements apart, so a batch of up to 4
/// items of any dtype fits.
ipc::GemmRequestMsg wellFormedRequest(uint32_t Seq) {
  ipc::GemmRequestMsg Q;
  Q.H.Type = static_cast<uint16_t>(ipc::PacketType::GemmRequest);
  Q.H.Seq = Seq;
  Q.H.Bytes = sizeof(Q);
  Q.M = Q.N = Q.K = 8;
  Q.Lda = Q.Ldb = Q.Ldc = 8;
  Q.OffB = 1024;
  Q.OffC = 2048;
  Q.StrideA = Q.StrideB = Q.StrideC = 64;
  return Q;
}

/// One corrupted field of a well-formed request.
struct HostileRow {
  const char *Name;
  void (*Corrupt)(ipc::GemmRequestMsg &);
};

/// Posts each row's corrupted request on one raw session and expects a
/// `Bad` reply with the request's own Seq. Bad geometry is a client bug,
/// not a protocol violation: the session must survive and still serve a
/// single f32, a single i8, an f32 batch and a bf16 batch.
void expectBadAndSessionSurvivesOn(const std::string &Path,
                                   std::initializer_list<HostileRow> Rows) {
  RawSession S;
  ASSERT_FALSE(S.connect(Path));
  ASSERT_TRUE(S.admitted());

  alignas(8) unsigned char Slot[ipc::SlotBytes];
  ipc::GemmReplyMsg Rep;
  uint32_t Seq = 100;
  auto Roundtrip = [&](const ipc::GemmRequestMsg &Q) {
    ASSERT_FALSE(S.post(&Q, sizeof(Q)));
    ASSERT_FALSE(S.nextReply(Slot));
    std::memcpy(&Rep, Slot, sizeof(Rep));
    EXPECT_EQ(static_cast<uint16_t>(ipc::PacketType::GemmReply), Rep.H.Type);
    EXPECT_EQ(Q.H.Seq, Rep.H.Seq);
  };
  for (const HostileRow &R : Rows) {
    SCOPED_TRACE(R.Name);
    ipc::GemmRequestMsg Q = wellFormedRequest(++Seq);
    R.Corrupt(Q);
    Roundtrip(Q);
    EXPECT_EQ(static_cast<int32_t>(ipc::ReqStatus::Bad), Rep.Status);
  }

  for (auto [Ty, Count] : {std::pair{gemm::DType::F32, int64_t(1)},
                           std::pair{gemm::DType::I8I32, int64_t(1)},
                           std::pair{gemm::DType::F32, int64_t(4)},
                           std::pair{gemm::DType::BF16, int64_t(4)}}) {
    SCOPED_TRACE(std::string(gemm::dtypeName(Ty)) + " x" +
                 std::to_string(Count));
    ipc::GemmRequestMsg Q = wellFormedRequest(++Seq);
    Q.DTy = static_cast<uint8_t>(Ty);
    Q.BatchCount = Count;
    Roundtrip(Q);
    EXPECT_EQ(static_cast<int32_t>(ipc::ReqStatus::Ok), Rep.Status);
  }
}

/// The same, on a fresh server of its own.
void expectBadAndSessionSurvives(std::initializer_list<HostileRow> Rows) {
  ServerFixture F;
  expectBadAndSessionSurvivesOn(F.Opts.SocketPath, Rows);
}

TEST(GemmdValidation, HostileRequestsGetBadAndSessionSurvives) {
  expectBadAndSessionSurvives({
      {"BatchCount 0", [](ipc::GemmRequestMsg &Q) { Q.BatchCount = 0; }},
      {"BatchCount -1", [](ipc::GemmRequestMsg &Q) { Q.BatchCount = -1; }},
      {"TA 2", [](ipc::GemmRequestMsg &Q) { Q.TA = 2; }},
      {"negative stride",
       [](ipc::GemmRequestMsg &Q) {
         Q.BatchCount = 4;
         Q.StrideB = -64;
       }},
      {"odd OffA for bf16",
       [](ipc::GemmRequestMsg &Q) {
         Q.DTy = static_cast<uint8_t>(gemm::DType::BF16);
         Q.OffA = 1;
       }},
      {"OffA % 4 != 0 for f32", [](ipc::GemmRequestMsg &Q) { Q.OffA = 2; }},
      {"Lda < rows", [](ipc::GemmRequestMsg &Q) { Q.Lda = 7; }},
      {"overlapping StrideC",
       [](ipc::GemmRequestMsg &Q) {
         Q.BatchCount = 4;
         Q.StrideC = 32;
       }},
  });
}

TEST(GemmdBatched, BatchGeometryEscapingArenaRejectedNotFatal) {
  // Every single item fits; only the stride product puts the last C
  // panel outside the arena, which only wide arithmetic catches.
  expectBadAndSessionSurvives(
      {{"last C escapes through the stride product",
        [](ipc::GemmRequestMsg &Q) {
          Q.BatchCount = 4;
          Q.StrideC = int64_t(1) << 40;
        }}});
}

TEST(GemmdFaultIsolation, GeometryEscapingArenaIsRejectedNotFatal) {
  expectBadAndSessionSurvives({{"4 TiB single request",
                                [](ipc::GemmRequestMsg &Q) {
                                  Q.M = Q.N = Q.K = 1 << 20;
                                  Q.Lda = Q.Ldb = Q.Ldc = 1 << 20;
                                  Q.OffA = Q.OffB = Q.OffC = 0;
                                }}});
}

TEST(GemmdPrecision, UnknownDtypeRejectedNotFatal) {
  expectBadAndSessionSurvives(
      {{"DTy 7", [](ipc::GemmRequestMsg &Q) { Q.DTy = 7; }},
       {"DTy 9", [](ipc::GemmRequestMsg &Q) { Q.DTy = 9; }}});
}

//===----------------------------------------------------------------------===//
// Admission control and handshake rejections
//===----------------------------------------------------------------------===//

TEST(GemmdAdmission, FloodGetsBusyNotUnboundedQueueing) {
  gemmd::ServerOptions O;
  O.Workers = 1;
  O.QueueMax = 1;
  ServerFixture F(O);
  RawSession S;
  ASSERT_FALSE(S.connect(F.Opts.SocketPath, nullptr, 32 << 20));
  ASSERT_TRUE(S.admitted());

  // One heavy request to occupy the worker, then a burst. With a queue of
  // one, most of the burst must come back Busy instead of piling up.
  auto MakeReq = [&](uint32_t Seq, int64_t Dim) {
    ipc::GemmRequestMsg Q;
    Q.H.Type = static_cast<uint16_t>(ipc::PacketType::GemmRequest);
    Q.H.Seq = Seq;
    Q.H.Bytes = sizeof(Q);
    Q.M = Q.N = Q.K = Dim;
    Q.Lda = Q.Ldb = Q.Ldc = Dim;
    Q.OffA = 0;
    Q.OffB = static_cast<uint64_t>(Dim) * Dim * sizeof(float);
    Q.OffC = Q.OffB * 2;
    return Q;
  };
  ipc::GemmRequestMsg Heavy = MakeReq(1, 512);
  ASSERT_FALSE(S.post(&Heavy, sizeof(Heavy)));
  constexpr int Burst = 6;
  for (int I = 0; I != Burst; ++I) {
    ipc::GemmRequestMsg Small = MakeReq(2 + I, 16);
    ASSERT_FALSE(S.post(&Small, sizeof(Small)));
  }
  int Ok = 0, Busy = 0;
  for (int I = 0; I != Burst + 1; ++I) {
    alignas(8) unsigned char Slot[ipc::SlotBytes] = {};
    ASSERT_FALSE(S.nextReply(Slot, 120000));
    ipc::GemmReplyMsg Rep;
    std::memcpy(&Rep, Slot, sizeof(Rep));
    if (Rep.Status == static_cast<int32_t>(ipc::ReqStatus::Ok))
      ++Ok;
    else if (Rep.Status == static_cast<int32_t>(ipc::ReqStatus::Busy))
      ++Busy;
    else
      FAIL() << "unexpected reply status " << Rep.Status;
  }
  // Every request got exactly one answer; the bounded queue shed load.
  EXPECT_EQ(Burst + 1, Ok + Busy);
  EXPECT_GE(Ok, 1);   // at least the heavy one completed
  EXPECT_GE(Busy, 1); // and the burst could not all queue
}

TEST(GemmdAdmission, BadVersionHelloRejected) {
  ServerFixture F;
  RawSession S;
  ASSERT_FALSE(S.connect(F.Opts.SocketPath,
                         [](ipc::HelloMsg &H) { H.Version = 999; }));
  EXPECT_EQ(static_cast<uint16_t>(ipc::HelloStatus::BadVersion),
            S.Ack.Status);
  // The previous wire version, whose ring header has no Spinning word.
  RawSession V5;
  ASSERT_FALSE(V5.connect(F.Opts.SocketPath,
                          [](ipc::HelloMsg &H) { H.Version = 5; }));
  EXPECT_EQ(static_cast<uint16_t>(ipc::HelloStatus::BadVersion),
            V5.Ack.Status);
  // The version that named its region: its Hello passes no fd, and the
  // version check still answers first.
  RawSession V6;
  V6.Fds = HelloFds::None;
  ASSERT_FALSE(V6.connect(F.Opts.SocketPath,
                          [](ipc::HelloMsg &H) { H.Version = 6; }));
  EXPECT_EQ(static_cast<uint16_t>(ipc::HelloStatus::BadVersion),
            V6.Ack.Status);
}

TEST(GemmdAdmission, MaxClientsEnforced) {
  gemmd::ServerOptions O;
  O.MaxClients = 1;
  ServerFixture F(O);
  gemm::Client First(F.clientOpts());
  ASSERT_FALSE(First.ping()); // occupies the only seat
  RawSession Second;
  ASSERT_FALSE(Second.connect(F.Opts.SocketPath));
  EXPECT_EQ(static_cast<uint16_t>(ipc::HelloStatus::Full),
            Second.Ack.Status);
  // The seat frees on disconnect.
  First.disconnect();
  // Reaping is asynchronous (poller sees the hangup); poll briefly.
  bool Admitted = false;
  for (int Try = 0; Try != 100 && !Admitted; ++Try) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    RawSession Third;
    if (!Third.connect(F.Opts.SocketPath) && Third.admitted())
      Admitted = true;
  }
  EXPECT_TRUE(Admitted);
}

// A peer that connects and never sends its Hello waits beside the other
// tenants instead of holding the poller: a fresh client is served at once,
// and a peer whose Hello is short is closed at once.
TEST(GemmdAdmission, SilentPeerDoesNotStallOtherTenants) {
  ServerFixture F;
  const int64_t N = 16;
  std::vector<float> A(N * N, 1.0f), B(N * N, 1.0f), C(N * N, 0.0f);
  {
    // Plan (and maybe JIT) the shape first, so the timed call below
    // measures admission only.
    gemm::Client Warm(F.clientOpts());
    ASSERT_FALSE(Warm.sgemm(N, N, N, 1.0f, A.data(), N, B.data(), N, 0.0f,
                            C.data(), N));
  }
  Expected<ipc::Socket> Silent = ipc::Socket::connect(F.Opts.SocketPath);
  ASSERT_TRUE(static_cast<bool>(Silent)) << Silent.message();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const auto T0 = std::chrono::steady_clock::now();
  gemm::Client Fresh(F.clientOpts());
  ASSERT_FALSE(Fresh.sgemm(N, N, N, 1.0f, A.data(), N, B.data(), N, 0.0f,
                           C.data(), N));
  EXPECT_LT(std::chrono::steady_clock::now() - T0, std::chrono::seconds(1));
  EXPECT_EQ(C[0], static_cast<float>(N));

  Expected<ipc::Socket> Short = ipc::Socket::connect(F.Opts.SocketPath);
  ASSERT_TRUE(static_cast<bool>(Short)) << Short.message();
  const char Part[sizeof(ipc::HelloMsg) / 2] = {};
  ASSERT_FALSE(Short->sendAll(Part, sizeof(Part)));
  pollfd P{Short->fd(), POLLIN, 0};
  char Byte;
  ASSERT_EQ(1, ::poll(&P, 1, 2000));
  EXPECT_EQ(0, ::recv(Short->fd(), &Byte, 1, 0));
}

/// A Hello whose fds are not exactly one sealed memfd of ShmBytes.
class GemmdMalformedHello : public ::testing::TestWithParam<HelloFds> {};

TEST_P(GemmdMalformedHello, GetsBadRegionAndLeaksNoFd) {
  ServerFixture F;
  const size_t Before = openFdCount();
  for (int I = 0; I != 20; ++I) {
    RawSession S;
    S.Fds = GetParam();
    ASSERT_FALSE(S.connect(F.Opts.SocketPath));
    EXPECT_EQ(static_cast<uint16_t>(ipc::HelloStatus::BadRegion),
              S.Ack.Status)
        << S.Ack.Err;
    ASSERT_TRUE(S.closedByServer());
  }
  EXPECT_EQ(Before, openFdCount());
  gemm::Client Fresh(F.clientOpts());
  EXPECT_FALSE(Fresh.ping());
}

INSTANTIATE_TEST_SUITE_P(
    Fds, GemmdMalformedHello,
    ::testing::Values(HelloFds::None, HelloFds::Two, HelloFds::Pipe,
                      HelloFds::WrongSize),
    [](const ::testing::TestParamInfo<HelloFds> &Info) {
      switch (Info.param) {
      case HelloFds::None:
        return "NoFd";
      case HelloFds::Two:
        return "TwoFds";
      case HelloFds::Pipe:
        return "PipeFd";
      default:
        return "WrongSizeMemfd";
      }
    });

//===----------------------------------------------------------------------===//
// Doorbell skipping: the response ring's Spinning word (ipc/Ring.h)
//===----------------------------------------------------------------------===//

TEST(GemmdEventcount, SpinningWordSetSkipsTheDoorbell) {
  ServerFixture F;
  RawSession S;
  ASSERT_FALSE(S.connect(F.Opts.SocketPath));
  ASSERT_TRUE(S.admitted());
  S.Resp.setSpinning(true);
  ipc::GemmRequestMsg Q = wellFormedRequest(1);
  ASSERT_FALSE(S.post(&Q, sizeof(Q)));
  alignas(8) unsigned char Slot[ipc::SlotBytes];
  ASSERT_FALSE(S.ringReply(Slot));
  ipc::GemmReplyMsg Rep;
  std::memcpy(&Rep, Slot, sizeof(Rep));
  EXPECT_EQ(1u, Rep.H.Seq);
  EXPECT_EQ(static_cast<int32_t>(ipc::ReqStatus::Ok), Rep.Status);
  // A doorbell, had there been one, follows the push within
  // microseconds.
  EXPECT_FALSE(S.doorbellWithin(200)) << "a doorbell rang for a spinner";
}

TEST(GemmdEventcount, SpinningWordClearRingsTheDoorbell) {
  ServerFixture F;
  RawSession S;
  ASSERT_FALSE(S.connect(F.Opts.SocketPath));
  ASSERT_TRUE(S.admitted());
  // Set, then withdrawn: the server must ring again.
  S.Resp.setSpinning(true);
  S.Resp.setSpinning(false);
  ipc::GemmRequestMsg Q = wellFormedRequest(1);
  ASSERT_FALSE(S.post(&Q, sizeof(Q)));
  uint8_t Bell = 0;
  ASSERT_FALSE(S.Sock.recvAllTimed(&Bell, 1, 60000));
  EXPECT_EQ(ipc::DoorbellReply, Bell);
  alignas(8) unsigned char Slot[ipc::SlotBytes];
  ASSERT_TRUE(S.Resp.pop(Slot)) << "doorbell rang before the reply landed";
  ipc::GemmReplyMsg Rep;
  std::memcpy(&Rep, Slot, sizeof(Rep));
  EXPECT_EQ(1u, Rep.H.Seq);
  EXPECT_EQ(static_cast<int32_t>(ipc::ReqStatus::Ok), Rep.Status);
}

TEST(GemmdEventcount, ClientMarksEachSleepOnTheDoorbell) {
  // A 512^3 request runs for milliseconds, longer than the client's
  // spin, so each call goes to sleep on the doorbell exactly once.
  ServerFixture F;
  gemm::Client C(F.clientOpts());
  ASSERT_FALSE(C.ping());
  constexpr int64_t S = 512;
  std::vector<float> A(S * S, 1.0f), Out(S * S);
  const bool WasEnabled = obs::enabled();
  obs::setEnabled(true);
  obs::clear();
  for (int I = 0; I != 2; ++I)
    ASSERT_FALSE(C.sgemm(S, S, S, 1.0f, A.data(), S, A.data(), S, 0.0f,
                         Out.data(), S));
  const uint64_t Blocks = obs::stageTotals()["gemmd.client.block"].Count;
  obs::setEnabled(WasEnabled);
  obs::clear();
  EXPECT_EQ(2u, Blocks);
}

TEST(GemmdEventcount, StuckOrScribbledWordCostsOnlyItsOwnDoorbells) {
  ServerFixture F;
  // One session leaves the word stuck at 1, another scribbles it; neither
  // ever clears it.
  RawSession Stuck, Scribbled;
  ASSERT_FALSE(Stuck.connect(F.Opts.SocketPath));
  ASSERT_FALSE(Scribbled.connect(F.Opts.SocketPath));
  ASSERT_TRUE(Stuck.admitted());
  ASSERT_TRUE(Scribbled.admitted());
  Stuck.spinningWord().store(1);
  Scribbled.spinningWord().store(0xA5A5A5A5u);
  uint32_t Seq = 1;
  auto ServedWithoutDoorbell = [&](RawSession &S) {
    ipc::GemmRequestMsg Q = wellFormedRequest(++Seq);
    ASSERT_FALSE(S.post(&Q, sizeof(Q)));
    alignas(8) unsigned char Slot[ipc::SlotBytes];
    ASSERT_FALSE(S.ringReply(Slot));
    ipc::GemmReplyMsg Rep;
    std::memcpy(&Rep, Slot, sizeof(Rep));
    EXPECT_EQ(Q.H.Seq, Rep.H.Seq);
    EXPECT_EQ(static_cast<int32_t>(ipc::ReqStatus::Ok), Rep.Status);
    EXPECT_FALSE(S.doorbellWithin(50));
  };
  ServedWithoutDoorbell(Stuck);
  ServedWithoutDoorbell(Scribbled);

  // Every other session keeps its doorbells and its results.
  gemm::Client Healthy(F.clientOpts());
  gemm::Engine Local;
  expectRemoteMatchesLocal(Healthy, Local, gemm::Trans::None,
                           gemm::Trans::None, 24, 20, 16, 0.5f, 91);
  expectBadAndSessionSurvivesOn(
      F.Opts.SocketPath,
      {{"Lda < rows", [](ipc::GemmRequestMsg &Q) { Q.Lda = 7; }},
       {"DTy 7", [](ipc::GemmRequestMsg &Q) { Q.DTy = 7; }}});

  // The misbehaving sessions are still served, still without doorbells.
  ServedWithoutDoorbell(Stuck);
  ServedWithoutDoorbell(Scribbled);
  for (const gemmd::ClientStat &C : F.Srv->stats().PerClient)
    if (C.Id == Stuck.Ack.ClientId || C.Id == Scribbled.Ack.ClientId) {
      EXPECT_TRUE(C.Active) << "session " << C.Id << " reaped: "
                            << (C.ReapReason ? C.ReapReason : "");
    }
}

//===----------------------------------------------------------------------===//
// Lifecycle hygiene
//===----------------------------------------------------------------------===//

/// Posts a burst of requests, stops the server once it has admitted them
/// all, and expects exactly one reply per request before the session
/// closes — whichever of the \p Workers request runners took each one.
void expectStopAnswersEveryAdmittedRequestOnce(unsigned Workers) {
  gemmd::ServerOptions O;
  O.Workers = Workers;
  ServerFixture F(O);
  constexpr uint32_t Posted = 8;
  constexpr int64_t Dim = 512;
  constexpr uint64_t MatBytes = Dim * Dim * sizeof(float);
  // A and B shared, one C per request (the warm-up's first): requests
  // running on different executors must not write the same C.
  RawSession S;
  ASSERT_FALSE(S.connect(F.Opts.SocketPath, nullptr, 16 << 20));
  ASSERT_TRUE(S.admitted());
  auto Request = [&](uint32_t Seq, uint32_t CIndex) {
    ipc::GemmRequestMsg Q;
    Q.H.Type = static_cast<uint16_t>(ipc::PacketType::GemmRequest);
    Q.H.Seq = Seq;
    Q.H.Bytes = sizeof(Q);
    Q.M = Q.N = Q.K = Dim;
    Q.Lda = Q.Ldb = Q.Ldc = Dim;
    Q.OffB = MatBytes;
    Q.OffC = (2 + CIndex) * MatBytes;
    return Q;
  };
  // Warm the shape first, so the poller is not stuck in a plan build
  // while the burst below lands.
  alignas(8) unsigned char Slot[ipc::SlotBytes];
  ipc::GemmRequestMsg Warm = Request(100, 0);
  ASSERT_FALSE(S.post(&Warm, sizeof(Warm)));
  ASSERT_FALSE(S.nextReply(Slot));
  for (uint32_t I = 1; I <= Posted; ++I) {
    ipc::GemmRequestMsg Q = Request(I, I);
    ASSERT_FALSE(S.post(&Q, sizeof(Q)));
  }
  // Stop once the poller has admitted the burst, some of it likely still
  // queued.
  auto Ledger = [&] {
    for (const gemmd::ClientStat &C : F.Srv->stats().PerClient)
      if (C.Id == S.Ack.ClientId)
        return C;
    return gemmd::ClientStat{};
  };
  for (int Try = 0; Try != 600000 && Ledger().Requests < Posted + 1; ++Try)
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  F.Srv->stop();

  const gemmd::ClientStat After = Ledger();
  EXPECT_FALSE(After.Active);
  EXPECT_STREQ("server shutdown", After.ReapReason);
  std::set<uint32_t> Seen;
  uint64_t Ok = 1; // the warm-up
  while (S.Resp.pop(Slot)) {
    ipc::GemmReplyMsg Rep;
    std::memcpy(&Rep, Slot, sizeof(Rep));
    EXPECT_TRUE(Seen.insert(Rep.H.Seq).second)
        << "request " << Rep.H.Seq << " answered twice";
    EXPECT_GE(Rep.H.Seq, 1u);
    EXPECT_LE(Rep.H.Seq, Posted);
    Ok += Rep.Status == static_cast<int32_t>(ipc::ReqStatus::Ok);
  }
  // Exactly one reply per admitted request, all of them there before the
  // session is closed.
  EXPECT_EQ(Posted + 1, After.Requests);
  EXPECT_EQ(Posted, Seen.size());
  EXPECT_EQ(After.Ok, Ok);
  EXPECT_EQ(Posted + 1, Ok);
  // What is left on the socket is doorbells, then the close: EOF, or a
  // reset when the server closed with our request doorbells unread.
  uint8_t Bells[64];
  ssize_t R;
  while ((R = ::recv(S.Sock.fd(), Bells, sizeof(Bells), 0)) > 0) {
  }
  EXPECT_TRUE(R == 0 || errno == ECONNRESET)
      << "session still open after stop(): " << std::strerror(errno);
}

TEST(GemmdLifecycle, StopAnswersEveryAdmittedRequestOnceBeforeEof) {
  // One worker: the poller runs every request itself.
  expectStopAnswersEveryAdmittedRequestOnce(1);
}

TEST(GemmdLifecycle, StopWithExecutorsAnswersEveryAdmittedRequestOnce) {
  // The poller plus three executors share the burst.
  expectStopAnswersEveryAdmittedRequestOnce(4);
}

//===----------------------------------------------------------------------===//
// The precision dimension over the wire (docs/PRECISION.md)
//===----------------------------------------------------------------------===//

/// Fills \p V with random \p Ty elements: f16 or bf16 halves in [-1, 1],
/// or random bytes for i8 (and so random i32 values in a C buffer).
void fillTyped(std::vector<unsigned char> &V, gemm::DType Ty,
               std::mt19937 &Rng) {
  if (Ty == gemm::DType::I8I32) {
    for (unsigned char &X : V)
      X = static_cast<unsigned char>(Rng());
    return;
  }
  std::uniform_real_distribution<float> D(-1.0f, 1.0f);
  auto *H = reinterpret_cast<uint16_t *>(V.data());
  for (size_t X = 0; X != V.size() / 2; ++X)
    H[X] = Ty == gemm::DType::F16 ? gemm::f32ToF16(D(Rng))
                                  : gemm::f32ToBf16(D(Rng));
}

/// One typed problem remotely and locally; the engine's typed executor is
/// deterministic for a fixed plan, and both sides plan on the same
/// machine, so C must match bitwise for every dtype.
void expectTypedRoundTrip(gemm::Client &Remote, gemm::Engine &Local,
                          gemm::DType Ty, int64_t M, int64_t N, int64_t K,
                          double Alpha, double Beta, unsigned Seed) {
  const unsigned InB = gemm::dtypeInBytes(Ty);
  const unsigned OutB = gemm::dtypeOutBytes(Ty);
  std::vector<unsigned char> A(M * K * InB), B(K * N * InB),
      C0(M * N * OutB);
  std::mt19937 Rng(Seed);
  fillTyped(A, Ty, Rng);
  fillTyped(B, Ty, Rng);
  std::vector<unsigned char> CR = C0, CL = C0;
  Error ER = Remote.gemm(Ty, gemm::Trans::None, gemm::Trans::None, M, N, K,
                         Alpha, A.data(), M, B.data(), K, Beta, CR.data(),
                         M);
  ASSERT_FALSE(ER) << ER.message();
  Error EL = Local.gemm(Ty, gemm::Trans::None, gemm::Trans::None, M, N, K,
                        Alpha, A.data(), M, B.data(), K, Beta, CL.data(),
                        M);
  ASSERT_FALSE(EL) << EL.message();
  EXPECT_EQ(0, std::memcmp(CR.data(), CL.data(), CR.size()))
      << gemm::dtypeName(Ty) << " " << M << "x" << N << "x" << K
      << " diverged over the wire";
}

TEST(GemmdPrecision, TypedRoundTripMatchesLocalBitwise) {
  ServerFixture F;
  gemm::Client Remote(F.clientOpts());
  gemm::Engine Local;
  unsigned Seed = 500;
  for (gemm::DType Ty :
       {gemm::DType::F16, gemm::DType::BF16, gemm::DType::I8I32}) {
    expectTypedRoundTrip(Remote, Local, Ty, 17, 13, 19, 1.0, 0.0, Seed++);
    expectTypedRoundTrip(Remote, Local, Ty, 40, 24, 32, 1.0,
                         Ty == gemm::DType::I8I32 ? 2.0 : 0.0, Seed++);
  }
}

TEST(GemmdPrecision, TypedBatchesMatchLocalEngine) {
  // Every dtype batches through the one typed request: remote batches,
  // strided and with A and B shared through stride 0, equal the local
  // Engine::gemmStridedBatched bitwise, and the session keeps serving.
  ServerFixture F;
  gemm::Client Remote(F.clientOpts());
  gemm::Engine Local;
  const int64_t M = 17, N = 13, K = 19, Count = 4;
  const int64_t SA = M * K + 3, SB = K * N + 1, SC = M * N + 2;
  std::mt19937 Rng(600);
  for (gemm::DType Ty :
       {gemm::DType::F16, gemm::DType::BF16, gemm::DType::I8I32}) {
    const unsigned InB = gemm::dtypeInBytes(Ty);
    const unsigned OutB = gemm::dtypeOutBytes(Ty);
    std::vector<unsigned char> A(SA * Count * InB), B(SB * Count * InB),
        C0(SC * Count * OutB);
    fillTyped(A, Ty, Rng);
    fillTyped(B, Ty, Rng);
    fillTyped(C0, Ty, Rng);
    const double Alpha = Ty == gemm::DType::I8I32 ? 2.0 : 1.25;
    const double Beta = Ty == gemm::DType::I8I32 ? 3.0 : 0.5;
    for (bool Shared : {false, true}) {
      SCOPED_TRACE(std::string(gemm::dtypeName(Ty)) +
                   (Shared ? " stride 0" : " strided"));
      std::vector<unsigned char> CR = C0, CL = C0;
      Error ER = Remote.gemmStridedBatched(
          Ty, gemm::Trans::None, gemm::Trans::None, M, N, K, Alpha, A.data(),
          M, Shared ? 0 : SA, B.data(), K, Shared ? 0 : SB, Beta, CR.data(),
          M, SC, Count);
      ASSERT_FALSE(ER) << ER.message();
      Error EL = Local.gemmStridedBatched(
          Ty, gemm::Trans::None, gemm::Trans::None, M, N, K, Alpha, A.data(),
          M, Shared ? 0 : SA, B.data(), K, Shared ? 0 : SB, Beta, CL.data(),
          M, SC, Count);
      ASSERT_FALSE(EL) << EL.message();
      EXPECT_EQ(0, std::memcmp(CR.data(), CL.data(), CR.size()))
          << "remote typed batch diverged from the local engine";
    }
  }
  expectRemoteMatchesLocal(Remote, Local, gemm::Trans::None,
                           gemm::Trans::None, 24, 20, 16, 0.5f, 610);
}

TEST(GemmdPrecision, ClientRejectsUnrepresentableScalesLocally) {
  ServerFixture F;
  gemm::Client Remote(F.clientOpts());
  std::vector<int8_t> A(16, 1), B(16, 1);
  std::vector<int32_t> C(16, 0);
  // Fractional i8 scale: refused before anything crosses the wire.
  EXPECT_TRUE(bool(Remote.gemm(gemm::DType::I8I32, gemm::Trans::None,
                               gemm::Trans::None, 4, 4, 4, 0.5, A.data(), 4,
                               B.data(), 4, 0.0, C.data(), 4)));
  // Alpha that doesn't survive the wire's f32: likewise refused.
  std::vector<uint16_t> Ah(16, 0), Bh(16, 0), Ch(16, 0);
  EXPECT_TRUE(bool(Remote.gemm(gemm::DType::F16, gemm::Trans::None,
                               gemm::Trans::None, 4, 4, 4, 1.0000000001,
                               Ah.data(), 4, Bh.data(), 4, 0.0, Ch.data(),
                               4)));
}

TEST(GemmdLifecycle, StopClosesSessionsAndUnlinksSocket) {
  auto F = std::make_unique<ServerFixture>();
  std::string Path = F->Opts.SocketPath;
  gemm::Client C(F->clientOpts());
  ASSERT_FALSE(C.ping());
  F->Srv->stop();
  // The client notices on its next call and fails cleanly.
  EXPECT_TRUE(C.ping());
  // The socket file is gone.
  EXPECT_NE(0, ::access(Path.c_str(), F_OK));
}

TEST(GemmdLifecycle, NoSharedMemoryNamesLeak) {
  ServerFixture F;
  gemm::Client C(F.clientOpts());
  ASSERT_FALSE(C.ping());
  pid_t Helper = spawnHelper(F.Opts.SocketPath, 2, 104, 0);
  ASSERT_GT(Helper, 0);
  int Status = 0;
  ASSERT_EQ(Helper, ::waitpid(Helper, &Status, 0));
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(0, WEXITSTATUS(Status));
  // One session live, one gone: neither ever had a name to leak. Only
  // this test's own processes count; other tests may run beside it.
  EXPECT_EQ(std::vector<std::string>{}, shmEntriesOf({::getpid(), Helper}));
}

TEST(GemmdLifecycle, KilledAfterRegionBeforeHelloLeavesNothing) {
  pid_t Pid = ::fork();
  if (Pid == 0) {
    ::execl(GEMMD_HELPER, GEMMD_HELPER, "--die-after-region",
            static_cast<char *>(nullptr));
    _exit(127); // exec failed
  }
  ASSERT_GT(Pid, 0);
  int Status = 0;
  ASSERT_EQ(Pid, ::waitpid(Pid, &Status, 0));
  ASSERT_TRUE(WIFSIGNALED(Status));
  EXPECT_EQ(SIGKILL, WTERMSIG(Status));
  EXPECT_EQ(std::vector<std::string>{}, shmEntriesOf({Pid}));
}

} // namespace
