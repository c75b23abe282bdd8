//===- Client.cpp - gemm::Client, the remote Engine front door ------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "ipc/Client.h"

#include "exo/support/Env.h"
#include "obs/Obs.h"

#include <cmath>
#include <cstdio>
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

/// Operand footprint as stored (column-major): Rows x Cols with a compact
/// leading dimension equal to Rows.
struct Staged {
  int64_t Rows = 0, Cols = 0;
  uint64_t Off = 0;
  uint64_t bytes() const {
    return static_cast<uint64_t>(Rows) * static_cast<uint64_t>(Cols) *
           sizeof(float);
  }
};

void copyIn(float *Dst, const float *Src, int64_t Rows, int64_t Cols,
            int64_t SrcLd) {
  for (int64_t J = 0; J != Cols; ++J)
    std::memcpy(Dst + J * Rows, Src + J * SrcLd,
                static_cast<size_t>(Rows) * sizeof(float));
}

/// Byte-typed copyIn for the dtype-generic path: column strides are in
/// elements of \p Elem bytes, exactly like the f32 overload.
void copyInBytes(unsigned char *Dst, const unsigned char *Src, int64_t Rows,
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

bool Client::connected() const { return Connected; }

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
  Hello.NameLen = static_cast<uint32_t>(Shm.name().size());
  std::snprintf(Hello.ShmName, sizeof(Hello.ShmName), "%s",
                Shm.name().c_str());
  if (Error E = Sock.sendAll(&Hello, sizeof(Hello))) {
    dropSessionLocked();
    return E;
  }
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
  // The server holds a mapping now; drop the name so a crash on either
  // side can never leak a /dev/shm entry.
  Shm.unlinkName();
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
  // Wait for reply doorbells; tolerate coalescing and stale packets.
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
    uint8_t Bell;
    if (Error E = Sock.recvAllTimed(&Bell, 1, Opts.TimeoutMs)) {
      dropSessionLocked();
      return E;
    }
  }
}

Error Client::sgemm(Trans TA, Trans TB, int64_t M, int64_t N, int64_t K,
                    float Alpha, const float *A, int64_t Lda, const float *B,
                    int64_t Ldb, float Beta, float *C, int64_t Ldc) {
  if (M < 0 || N < 0 || K < 0)
    return errorf("gemmd client: negative dimension");
  // Degenerate quick returns stay local, mirroring Engine::sgemm exactly
  // (same scaleByBeta path, so results are bitwise identical).
  if (M == 0 || N == 0)
    return Error::success();
  if (K == 0 || Alpha == 0.0f) {
    detail::scaleByBeta(DType::F32, M, N, Beta, C, Ldc);
    return Error::success();
  }
  const int64_t ARows = TA == Trans::None ? M : K;
  const int64_t ACols = TA == Trans::None ? K : M;
  const int64_t BRows = TB == Trans::None ? K : N;
  const int64_t BCols = TB == Trans::None ? N : K;
  if (Lda < ARows || Ldb < BRows || Ldc < M)
    return errorf("gemmd client: leading dimension smaller than rows");

  std::lock_guard<std::mutex> Lock(Mu);
  if (Error E = ensureConnectedLocked())
    return E;

  // Stage the operands compactly into the arena (64-byte aligned).
  auto Align = [](uint64_t X) { return (X + 63) & ~uint64_t{63}; };
  Staged SA{ARows, ACols, 0}, SB{BRows, BCols, 0}, SC{M, N, 0};
  SB.Off = Align(SA.bytes());
  SC.Off = Align(SB.Off + SB.bytes());
  uint64_t Need = SC.Off + SC.bytes();
  if (Need > Layout.ArenaBytes)
    return errorf("gemmd client: %lldx%lldx%lld needs %llu arena bytes but "
                  "the session has %llu — raise EXO_GEMMD_SHM_BYTES",
                  static_cast<long long>(M), static_cast<long long>(N),
                  static_cast<long long>(K),
                  static_cast<unsigned long long>(Need),
                  static_cast<unsigned long long>(Layout.ArenaBytes));

  EXO_OBS_SPAN("gemmd.client.call");
  unsigned char *Arena = Shm.at(Layout.ArenaOff);
  {
    EXO_OBS_SPAN("gemmd.client.stage");
    copyIn(reinterpret_cast<float *>(Arena + SA.Off), A, ARows, ACols, Lda);
    copyIn(reinterpret_cast<float *>(Arena + SB.Off), B, BRows, BCols, Ldb);
    if (Beta != 0.0f)
      copyIn(reinterpret_cast<float *>(Arena + SC.Off), C, M, N, Ldc);
  }

  ipc::GemmRequestMsg Req;
  Req.H.Type = static_cast<uint16_t>(ipc::PacketType::GemmRequest);
  Req.H.Seq = ++Seq;
  Req.H.Bytes = sizeof(Req);
  Req.TA = TA == Trans::Transpose;
  Req.TB = TB == Trans::Transpose;
  Req.Alpha = Alpha;
  Req.Beta = Beta;
  Req.M = M;
  Req.N = N;
  Req.K = K;
  Req.OffA = SA.Off;
  Req.OffB = SB.Off;
  Req.OffC = SC.Off;
  Req.Lda = ARows;
  Req.Ldb = BRows;
  Req.Ldc = M;

  alignas(8) unsigned char ReplyBuf[ipc::SlotBytes];
  if (Error E = transactLocked(&Req, sizeof(Req), ReplyBuf,
                               ipc::PacketType::GemmReply, Req.H.Seq))
    return E;
  ipc::GemmReplyMsg Reply;
  std::memcpy(&Reply, ReplyBuf, sizeof(Reply));
  LastFlags = Reply.Flags;
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
    const float *Src = reinterpret_cast<const float *>(Arena + SC.Off);
    for (int64_t J = 0; J != N; ++J)
      std::memcpy(C + J * Ldc, Src + J * M,
                  static_cast<size_t>(M) * sizeof(float));
  }
  ++RequestsOk;
  return Error::success();
}

Error Client::gemm(DType Ty, Trans TA, Trans TB, int64_t M, int64_t N,
                   int64_t K, double Alpha, const void *A, int64_t Lda,
                   const void *B, int64_t Ldb, double Beta, void *C,
                   int64_t Ldc) {
  // The f32 door is the untyped path, byte for byte (DTy stays 0 on the
  // wire, matching every pre-v3 client packet).
  if (Ty == DType::F32)
    return sgemm(TA, TB, M, N, K, static_cast<float>(Alpha),
                 static_cast<const float *>(A), Lda,
                 static_cast<const float *>(B), Ldb,
                 static_cast<float>(Beta), static_cast<float *>(C), Ldc);
  if (M < 0 || N < 0 || K < 0)
    return errorf("gemmd client: negative dimension");
  // The wire carries alpha/beta as f32; refuse anything that would be
  // silently rounded in transit. For I8I32 the engine additionally
  // requires exact integers — check here too so the diagnostic names the
  // caller instead of costing a round trip.
  if (static_cast<double>(static_cast<float>(Alpha)) != Alpha ||
      static_cast<double>(static_cast<float>(Beta)) != Beta)
    return errorf("gemmd client: alpha/beta must be exactly representable "
                  "as f32 (the wire carries them as f32)");
  if (Ty == DType::I8I32 &&
      (Alpha != std::nearbyint(Alpha) || Beta != std::nearbyint(Beta)))
    return errorf("gemmd client: i8 gemm requires integer alpha/beta");
  // Degenerate quick returns stay local, mirroring Engine::gemm exactly.
  if (M == 0 || N == 0)
    return Error::success();
  if (K == 0 || Alpha == 0.0) {
    detail::scaleByBeta(Ty, M, N, Beta, C, Ldc);
    return Error::success();
  }
  const int64_t ARows = TA == Trans::None ? M : K;
  const int64_t ACols = TA == Trans::None ? K : M;
  const int64_t BRows = TB == Trans::None ? K : N;
  const int64_t BCols = TB == Trans::None ? N : K;
  if (Lda < ARows || Ldb < BRows || Ldc < M)
    return errorf("gemmd client: leading dimension smaller than rows");

  std::lock_guard<std::mutex> Lock(Mu);
  if (Error E = ensureConnectedLocked())
    return E;

  // Stage compactly at the dtype's own element sizes (A/B storage
  // elements, i32 for an i8 request's C), 64-byte aligned like sgemm.
  const uint64_t InB = dtypeInBytes(Ty);
  const uint64_t OutB = dtypeOutBytes(Ty);
  auto Align = [](uint64_t X) { return (X + 63) & ~uint64_t{63}; };
  const uint64_t ABytes =
      static_cast<uint64_t>(ARows) * static_cast<uint64_t>(ACols) * InB;
  const uint64_t BBytes =
      static_cast<uint64_t>(BRows) * static_cast<uint64_t>(BCols) * InB;
  const uint64_t CBytes =
      static_cast<uint64_t>(M) * static_cast<uint64_t>(N) * OutB;
  const uint64_t OffA = 0;
  const uint64_t OffB = Align(ABytes);
  const uint64_t OffC = Align(OffB + BBytes);
  const uint64_t Need = OffC + CBytes;
  if (Need > Layout.ArenaBytes)
    return errorf("gemmd client: %lldx%lldx%lld (%s) needs %llu arena bytes "
                  "but the session has %llu — raise EXO_GEMMD_SHM_BYTES",
                  static_cast<long long>(M), static_cast<long long>(N),
                  static_cast<long long>(K), dtypeName(Ty),
                  static_cast<unsigned long long>(Need),
                  static_cast<unsigned long long>(Layout.ArenaBytes));

  EXO_OBS_SPAN("gemmd.client.call");
  unsigned char *Arena = Shm.at(Layout.ArenaOff);
  {
    EXO_OBS_SPAN("gemmd.client.stage");
    copyInBytes(Arena + OffA, static_cast<const unsigned char *>(A), ARows,
                ACols, Lda, InB);
    copyInBytes(Arena + OffB, static_cast<const unsigned char *>(B), BRows,
                BCols, Ldb, InB);
    if (Beta != 0.0)
      copyInBytes(Arena + OffC, static_cast<const unsigned char *>(C), M, N,
                  Ldc, OutB);
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

  alignas(8) unsigned char ReplyBuf[ipc::SlotBytes];
  if (Error E = transactLocked(&Req, sizeof(Req), ReplyBuf,
                               ipc::PacketType::GemmReply, Req.H.Seq))
    return E;
  ipc::GemmReplyMsg Reply;
  std::memcpy(&Reply, ReplyBuf, sizeof(Reply));
  LastFlags = Reply.Flags;
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
    const unsigned char *Src = Arena + OffC;
    unsigned char *Dst = static_cast<unsigned char *>(C);
    for (int64_t J = 0; J != N; ++J)
      std::memcpy(Dst + static_cast<uint64_t>(J * Ldc) * OutB,
                  Src + static_cast<uint64_t>(J * M) * OutB,
                  static_cast<size_t>(M) * OutB);
  }
  ++RequestsOk;
  return Error::success();
}

Error Client::sgemmStridedBatched(Trans TA, Trans TB, int64_t M, int64_t N,
                                  int64_t K, float Alpha, const float *A,
                                  int64_t Lda, int64_t StrideA,
                                  const float *B, int64_t Ldb,
                                  int64_t StrideB, float Beta, float *C,
                                  int64_t Ldc, int64_t StrideC,
                                  int64_t BatchCount) {
  if (M < 0 || N < 0 || K < 0)
    return errorf("gemmd client: negative dimension");
  if (BatchCount < 0)
    return errorf("gemmd client: negative batch count");
  if (StrideA < 0 || StrideB < 0 || StrideC < 0)
    return errorf("gemmd client: negative batch stride");
  if (BatchCount == 0)
    return Error::success();
  // Degenerate batches stay local, item by item, mirroring
  // Engine::sgemmStridedBatched exactly.
  if (M == 0 || N == 0)
    return Error::success();
  if (K == 0 || Alpha == 0.0f) {
    for (int64_t I = 0; I < BatchCount; ++I)
      detail::scaleByBeta(DType::F32, M, N, Beta, C + I * StrideC, Ldc);
    return Error::success();
  }
  if (BatchCount > 1 && StrideC < Ldc * N)
    return errorf("gemmd client: StrideC (%lld) overlaps C items "
                  "(need >= Ldc * N = %lld)",
                  static_cast<long long>(StrideC),
                  static_cast<long long>(Ldc * N));
  const int64_t ARows = TA == Trans::None ? M : K;
  const int64_t ACols = TA == Trans::None ? K : M;
  const int64_t BRows = TB == Trans::None ? K : N;
  const int64_t BCols = TB == Trans::None ? N : K;
  if (Lda < ARows || Ldb < BRows || Ldc < M)
    return errorf("gemmd client: leading dimension smaller than rows");

  std::lock_guard<std::mutex> Lock(Mu);
  if (Error E = ensureConnectedLocked())
    return E;

  // Stage compactly: each operand is an array of back-to-back compact
  // items (the wire stride), the arrays themselves 64-byte aligned. A
  // zero input stride ships the shared operand once and keeps stride 0 on
  // the wire.
  auto Align = [](uint64_t X) { return (X + 63) & ~uint64_t{63}; };
  const int64_t NA = StrideA ? BatchCount : 1;
  const int64_t NB = StrideB ? BatchCount : 1;
  Staged SA{ARows, ACols, 0}, SB{BRows, BCols, 0}, SC{M, N, 0};
  SB.Off = Align(SA.bytes() * static_cast<uint64_t>(NA));
  SC.Off = Align(SB.Off + SB.bytes() * static_cast<uint64_t>(NB));
  uint64_t Need = SC.Off + SC.bytes() * static_cast<uint64_t>(BatchCount);
  if (Need > Layout.ArenaBytes)
    return errorf("gemmd client: batch of %lld %lldx%lldx%lld items needs "
                  "%llu arena bytes but the session has %llu — raise "
                  "EXO_GEMMD_SHM_BYTES or split the batch",
                  static_cast<long long>(BatchCount),
                  static_cast<long long>(M), static_cast<long long>(N),
                  static_cast<long long>(K),
                  static_cast<unsigned long long>(Need),
                  static_cast<unsigned long long>(Layout.ArenaBytes));

  EXO_OBS_SPAN("gemmd.client.batch");
  unsigned char *Arena = Shm.at(Layout.ArenaOff);
  {
    EXO_OBS_SPAN("gemmd.client.stage");
    for (int64_t I = 0; I < NA; ++I)
      copyIn(reinterpret_cast<float *>(Arena + SA.Off) +
                 I * ARows * ACols,
             A + I * StrideA, ARows, ACols, Lda);
    for (int64_t I = 0; I < NB; ++I)
      copyIn(reinterpret_cast<float *>(Arena + SB.Off) +
                 I * BRows * BCols,
             B + I * StrideB, BRows, BCols, Ldb);
    if (Beta != 0.0f)
      for (int64_t I = 0; I < BatchCount; ++I)
        copyIn(reinterpret_cast<float *>(Arena + SC.Off) + I * M * N,
               C + I * StrideC, M, N, Ldc);
  }

  ipc::GemmBatchRequestMsg Req;
  Req.H.Type = static_cast<uint16_t>(ipc::PacketType::GemmBatchRequest);
  Req.H.Seq = ++Seq;
  Req.H.Bytes = sizeof(Req);
  Req.TA = TA == Trans::Transpose;
  Req.TB = TB == Trans::Transpose;
  Req.Alpha = Alpha;
  Req.Beta = Beta;
  Req.M = M;
  Req.N = N;
  Req.K = K;
  Req.OffA = SA.Off;
  Req.OffB = SB.Off;
  Req.OffC = SC.Off;
  Req.Lda = ARows;
  Req.Ldb = BRows;
  Req.Ldc = M;
  Req.StrideA = StrideA ? ARows * ACols : 0;
  Req.StrideB = StrideB ? BRows * BCols : 0;
  Req.StrideC = M * N;
  Req.BatchCount = BatchCount;

  alignas(8) unsigned char ReplyBuf[ipc::SlotBytes];
  if (Error E = transactLocked(&Req, sizeof(Req), ReplyBuf,
                               ipc::PacketType::GemmBatchReply, Req.H.Seq))
    return E;
  ipc::GemmReplyMsg Reply;
  std::memcpy(&Reply, ReplyBuf, sizeof(Reply));
  LastFlags = Reply.Flags;
  switch (static_cast<ipc::ReqStatus>(Reply.Status)) {
  case ipc::ReqStatus::Ok:
    break;
  case ipc::ReqStatus::Busy:
    return errorf("gemmd: server busy (admission queue full)");
  default:
    return errorf("gemmd: %.*s", static_cast<int>(sizeof(Reply.Err)),
                  Reply.Err[0] ? Reply.Err : "batch request failed");
  }
  {
    EXO_OBS_SPAN("gemmd.client.collect");
    for (int64_t I = 0; I < BatchCount; ++I) {
      const float *Src =
          reinterpret_cast<const float *>(Arena + SC.Off) + I * M * N;
      float *Dst = C + I * StrideC;
      for (int64_t J = 0; J != N; ++J)
        std::memcpy(Dst + J * Ldc, Src + J * M,
                    static_cast<size_t>(M) * sizeof(float));
    }
  }
  ++RequestsOk;
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
