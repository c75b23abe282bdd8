//===- Client.cpp - gemm::Client, the remote Engine front door ------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "ipc/Client.h"

#include "exo/support/Env.h"
#include "obs/Obs.h"

#include <chrono>
#include <cstdlib>
#include <cstring>

using namespace exo;

namespace gemm {

namespace {

uint64_t resolveShmBytes(uint64_t Configured) {
  if (Configured)
    return Configured;
  return static_cast<uint64_t>(
      exo::envInt("EXO_GEMMD_SHM_BYTES", std::getenv("EXO_GEMMD_SHM_BYTES"),
                  /*Default=*/64ll << 20, /*Min=*/1,
                  /*Max=*/int64_t(1) << 40));
}

int resolveTimeoutMs(int Configured) {
  if (Configured)
    return Configured;
  return static_cast<int>(
      exo::envInt("EXO_GEMMD_TIMEOUT_MS", std::getenv("EXO_GEMMD_TIMEOUT_MS"),
                  /*Default=*/-1, /*Min=*/-1, /*Max=*/1 << 30));
}

/// How long the client spins on the response ring before sleeping on the
/// doorbell: longer than most small requests take on the server. After a
/// reply whose server time exceeded it, the next call does not spin: its
/// reply would likely miss the spin, and the spinning core is one the
/// server's GEMM team could be using.
constexpr uint64_t SpinNs = 250'000;

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Compacts a column-major Rows x Cols operand with leading dimension
/// \p SrcLd (in elements of \p Elem bytes) into \p Dst with ld == Rows.
void copyIn(unsigned char *Dst, const unsigned char *Src, int64_t Rows,
            int64_t Cols, int64_t SrcLd, uint64_t Elem) {
  for (int64_t J = 0; J != Cols; ++J)
    std::memcpy(Dst + static_cast<uint64_t>(J * Rows) * Elem,
                Src + static_cast<uint64_t>(J * SrcLd) * Elem,
                static_cast<size_t>(Rows) * Elem);
}

} // namespace

Client::Client() : Client(Options{}) {}

Client::Client(const Options &O) : Opts(O) {
  if (Opts.SocketPath.empty())
    Opts.SocketPath = ipc::defaultSocketPath();
  Opts.ShmBytes = resolveShmBytes(Opts.ShmBytes);
  Opts.TimeoutMs = resolveTimeoutMs(Opts.TimeoutMs);
}

Client::~Client() = default;

void Client::disconnect() {
  std::lock_guard<std::mutex> Lock(Mu);
  dropSessionLocked();
}

void Client::dropSessionLocked() {
  Sock.close();
  Shm = ipc::ShmRegion();
  Connected = false;
}

Error Client::connect() {
  std::lock_guard<std::mutex> Lock(Mu);
  return ensureConnectedLocked();
}

Error Client::ensureConnectedLocked() {
  if (Connected)
    return Error::success();
  constexpr uint32_t Slots = 64;
  Expected<ipc::SessionLayout> L =
      ipc::SessionLayout::derive(Opts.ShmBytes, Slots);
  if (!L)
    return L.takeError();
  Expected<ipc::ShmRegion> R = ipc::ShmRegion::create(Opts.ShmBytes);
  if (!R)
    return R.takeError();
  Layout = *L;
  Shm = R.take();

  // Format the region before announcing it: header, then both rings.
  auto *H = reinterpret_cast<ipc::ShmSessionHeader *>(Shm.base());
  *H = ipc::ShmSessionHeader{};
  H->TotalBytes = Opts.ShmBytes;
  H->RingSlots = Slots;
  H->ArenaOff = Layout.ArenaOff;
  H->ArenaBytes = Layout.ArenaBytes;
  ReqRing.init(Shm.at(Layout.ReqRingOff), Slots);
  RespRing.init(Shm.at(Layout.RespRingOff), Slots);

  Expected<ipc::Socket> S = ipc::Socket::connect(Opts.SocketPath);
  if (!S) {
    Shm = ipc::ShmRegion();
    return S.takeError();
  }
  Sock = S.take();

  ipc::HelloMsg Hello;
  Hello.ShmBytes = Opts.ShmBytes;
  Hello.RingSlots = Slots;
  if (Error E = Sock.sendAll(&Hello, sizeof(Hello), Shm.fd())) {
    dropSessionLocked();
    return E;
  }
  Shm.closeFd(); // the server has its own copy now
  ipc::HelloAck Ack;
  if (Error E = Sock.recvAllTimed(&Ack, sizeof(Ack), Opts.TimeoutMs)) {
    dropSessionLocked();
    return E;
  }
  if (Ack.Magic != ipc::WireMagic ||
      Ack.Status != static_cast<uint16_t>(ipc::HelloStatus::Ok)) {
    Error E = errorf("gemmd: server rejected session: %.*s",
                     static_cast<int>(sizeof(Ack.Err)), Ack.Err[0]
                         ? Ack.Err
                         : "(unspecified)");
    dropSessionLocked();
    return E;
  }
  Connected = true;
  return Error::success();
}

Error Client::transactLocked(const void *Packet, uint32_t Bytes, void *Reply,
                             ipc::PacketType WantType, uint32_t WantSeq) {
  if (!ReqRing.push(Packet, Bytes)) {
    // Synchronous protocol: a full request ring means the server stopped
    // draining — treat as a dead session.
    dropSessionLocked();
    return errorf("gemmd: request ring full (server stalled)");
  }
  if (Error E = Sock.ring(ipc::DoorbellRequest)) {
    dropSessionLocked();
    return E;
  }
  // Spin on the response ring with the ring's Spinning word set, so the
  // server skips the doorbell; clearing the word and checking the ring
  // once more (the pop loop below) before sleeping on the socket cannot
  // lose a reply (Ring.h).
  if (LastServerNs < SpinNs) {
    RespRing.setSpinning(true);
    const uint64_t Deadline = nowNs() + SpinNs;
    while (RespRing.empty() && nowNs() < Deadline)
      cpuRelax();
    RespRing.setSpinning(false);
  }
  // Wait for reply doorbells; tolerate coalescing and stale packets.
  bool Blocked = false;
  for (;;) {
    alignas(8) unsigned char Slot[ipc::SlotBytes];
    while (RespRing.pop(Slot)) {
      ipc::PacketHeader PH;
      std::memcpy(&PH, Slot, sizeof(PH));
      if (PH.Magic != ipc::WireMagic || PH.Version != ipc::WireVersion ||
          PH.Bytes < sizeof(ipc::PacketHeader) || PH.Bytes > ipc::SlotBytes) {
        dropSessionLocked();
        return errorf("gemmd: malformed reply packet from server");
      }
      if (PH.Type == static_cast<uint16_t>(WantType) && PH.Seq == WantSeq) {
        std::memcpy(Reply, Slot, ipc::SlotBytes);
        return Error::success();
      }
      // Stale reply for an abandoned request; skip.
    }
    if (!Blocked) {
      obs::mark("gemmd.client.block");
      Blocked = true;
    }
    uint8_t Bell;
    if (Error E = Sock.recvAllTimed(&Bell, 1, Opts.TimeoutMs)) {
      dropSessionLocked();
      return E;
    }
  }
}

Error Client::gemmStridedBatched(DType Ty, Trans TA, Trans TB, int64_t M,
                                 int64_t N, int64_t K, double Alpha,
                                 const void *A, int64_t Lda, int64_t StrideA,
                                 const void *B, int64_t Ldb, int64_t StrideB,
                                 double Beta, void *C, int64_t Ldc,
                                 int64_t StrideC, int64_t BatchCount) {
  // The f32 door rounds its scales like the Engine's does, so gemm(F32)
  // stays byte for byte the sgemm request.
  if (Ty == DType::F32) {
    Alpha = static_cast<float>(Alpha);
    Beta = static_cast<float>(Beta);
  }
  if (Error E = detail::checkGemmArgs("gemmd client", Ty, TA, TB, M, N, K,
                                      Alpha, Beta, Lda, Ldb, Ldc, StrideA,
                                      StrideB, StrideC, BatchCount))
    return E;
  // The wire carries alpha/beta as f32; refuse anything that would be
  // silently rounded in transit.
  if (static_cast<double>(static_cast<float>(Alpha)) != Alpha ||
      static_cast<double>(static_cast<float>(Beta)) != Beta)
    return errorf("gemmd client: alpha/beta must be exactly representable "
                  "as f32 (the wire carries them as f32)");
  const uint64_t InB = dtypeInBytes(Ty);
  const uint64_t OutB = dtypeOutBytes(Ty);
  auto *CBytes = static_cast<unsigned char *>(C);
  // Degenerate quick returns stay local, item by item, mirroring the
  // Engine exactly (same scaleByBeta path, so results are bitwise
  // identical).
  if (BatchCount == 0 || M == 0 || N == 0)
    return Error::success();
  if (detail::isDegenerate(M, N, K, Alpha)) {
    for (int64_t I = 0; I < BatchCount; ++I)
      detail::scaleByBeta(Ty, M, N, Beta,
                          CBytes + static_cast<uint64_t>(I * StrideC) * OutB,
                          Ldc);
    return Error::success();
  }
  const int64_t ARows = TA == Trans::None ? M : K;
  const int64_t ACols = TA == Trans::None ? K : M;
  const int64_t BRows = TB == Trans::None ? K : N;
  const int64_t BCols = TB == Trans::None ? N : K;

  std::lock_guard<std::mutex> Lock(Mu);
  if (Error E = ensureConnectedLocked())
    return E;

  // Stage compactly at the dtype's element sizes: each operand is an
  // array of back-to-back compact items (the wire stride), the arrays
  // themselves 64-byte aligned. A zero input stride ships the shared
  // operand once and keeps stride 0 on the wire.
  auto Align = [](uint64_t X) { return (X + 63) & ~uint64_t{63}; };
  const int64_t NA = StrideA ? BatchCount : 1;
  const int64_t NB = StrideB ? BatchCount : 1;
  const uint64_t AItem =
      static_cast<uint64_t>(ARows) * static_cast<uint64_t>(ACols) * InB;
  const uint64_t BItem =
      static_cast<uint64_t>(BRows) * static_cast<uint64_t>(BCols) * InB;
  const uint64_t CItem =
      static_cast<uint64_t>(M) * static_cast<uint64_t>(N) * OutB;
  const uint64_t OffA = 0;
  const uint64_t OffB = Align(AItem * static_cast<uint64_t>(NA));
  const uint64_t OffC = Align(OffB + BItem * static_cast<uint64_t>(NB));
  const uint64_t Need = OffC + CItem * static_cast<uint64_t>(BatchCount);
  if (Need > Layout.ArenaBytes)
    return errorf("gemmd client: %lldx%lldx%lld (%s, batch %lld) needs %llu "
                  "arena bytes but the session has %llu — raise "
                  "EXO_GEMMD_SHM_BYTES or split the batch",
                  static_cast<long long>(M), static_cast<long long>(N),
                  static_cast<long long>(K), dtypeName(Ty),
                  static_cast<long long>(BatchCount),
                  static_cast<unsigned long long>(Need),
                  static_cast<unsigned long long>(Layout.ArenaBytes));

  EXO_OBS_SPAN(BatchCount == 1 ? "gemmd.client.call" : "gemmd.client.batch");
  unsigned char *Arena = Shm.at(Layout.ArenaOff);
  {
    EXO_OBS_SPAN("gemmd.client.stage");
    for (int64_t I = 0; I < NA; ++I)
      copyIn(Arena + OffA + I * AItem,
             static_cast<const unsigned char *>(A) +
                 static_cast<uint64_t>(I * StrideA) * InB,
             ARows, ACols, Lda, InB);
    for (int64_t I = 0; I < NB; ++I)
      copyIn(Arena + OffB + I * BItem,
             static_cast<const unsigned char *>(B) +
                 static_cast<uint64_t>(I * StrideB) * InB,
             BRows, BCols, Ldb, InB);
    if (Beta != 0.0)
      for (int64_t I = 0; I < BatchCount; ++I)
        copyIn(Arena + OffC + I * CItem,
               CBytes + static_cast<uint64_t>(I * StrideC) * OutB, M, N, Ldc,
               OutB);
  }

  ipc::GemmRequestMsg Req;
  Req.H.Type = static_cast<uint16_t>(ipc::PacketType::GemmRequest);
  Req.H.Seq = ++Seq;
  Req.H.Bytes = sizeof(Req);
  Req.TA = TA == Trans::Transpose;
  Req.TB = TB == Trans::Transpose;
  Req.DTy = static_cast<uint8_t>(Ty);
  Req.Alpha = static_cast<float>(Alpha);
  Req.Beta = static_cast<float>(Beta);
  Req.M = M;
  Req.N = N;
  Req.K = K;
  Req.OffA = OffA;
  Req.OffB = OffB;
  Req.OffC = OffC;
  Req.Lda = ARows;
  Req.Ldb = BRows;
  Req.Ldc = M;
  Req.StrideA = StrideA ? ARows * ACols : 0;
  Req.StrideB = StrideB ? BRows * BCols : 0;
  Req.StrideC = M * N;
  Req.BatchCount = BatchCount;

  alignas(8) unsigned char ReplyBuf[ipc::SlotBytes];
  if (Error E = transactLocked(&Req, sizeof(Req), ReplyBuf,
                               ipc::PacketType::GemmReply, Req.H.Seq))
    return E;
  ipc::GemmReplyMsg Reply;
  std::memcpy(&Reply, ReplyBuf, sizeof(Reply));
  LastFlags = Reply.Flags;
  LastServerNs = Reply.ServerNs;
  switch (static_cast<ipc::ReqStatus>(Reply.Status)) {
  case ipc::ReqStatus::Ok:
    break;
  case ipc::ReqStatus::Busy:
    return errorf("gemmd: server busy (admission queue full)");
  default:
    return errorf("gemmd: %.*s", static_cast<int>(sizeof(Reply.Err)),
                  Reply.Err[0] ? Reply.Err : "request failed");
  }
  {
    EXO_OBS_SPAN("gemmd.client.collect");
    for (int64_t I = 0; I < BatchCount; ++I) {
      const unsigned char *Src = Arena + OffC + I * CItem;
      unsigned char *Dst = CBytes + static_cast<uint64_t>(I * StrideC) * OutB;
      for (int64_t J = 0; J != N; ++J)
        std::memcpy(Dst + static_cast<uint64_t>(J * Ldc) * OutB,
                    Src + static_cast<uint64_t>(J * M) * OutB,
                    static_cast<size_t>(M) * OutB);
    }
  }
  return Error::success();
}

Error Client::ping() {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Error E = ensureConnectedLocked())
    return E;
  ipc::PacketHeader P;
  P.Type = static_cast<uint16_t>(ipc::PacketType::Ping);
  P.Seq = ++Seq;
  P.Bytes = sizeof(P);
  alignas(8) unsigned char Reply[ipc::SlotBytes];
  return transactLocked(&P, sizeof(P), Reply, ipc::PacketType::PingReply,
                        P.Seq);
}

Error Client::serverStats(ipc::StatsReplyMsg &Out) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Error E = ensureConnectedLocked())
    return E;
  ipc::PacketHeader P;
  P.Type = static_cast<uint16_t>(ipc::PacketType::StatsRequest);
  P.Seq = ++Seq;
  P.Bytes = sizeof(P);
  alignas(8) unsigned char Reply[ipc::SlotBytes];
  if (Error E = transactLocked(&P, sizeof(P), Reply,
                               ipc::PacketType::StatsReply, P.Seq))
    return E;
  std::memcpy(&Out, Reply, sizeof(Out));
  return Error::success();
}

} // namespace gemm
