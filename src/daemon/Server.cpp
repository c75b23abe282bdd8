//===- Server.cpp - gemmd: the multi-client GEMM-as-a-service daemon ------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "daemon/Server.h"

#include "exo/support/Env.h"
#include "ipc/Ring.h"
#include "ipc/Shm.h"
#include "ipc/Socket.h"
#include "obs/Obs.h"
#include "ukr/KernelService.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fcntl.h>
#include <map>
#include <mutex>
#include <poll.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace exo;

namespace gemmd {

namespace {

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One admitted client session. The poller owns Fd (and is the only
/// closer); request runners (the poller itself or an executor) reach the
/// response ring and doorbell only through WriteMu, where Dead is checked
/// — so a reaped session can never see a write to a recycled fd.
struct Session {
  uint32_t Id = 0;
  int Fd = -1;
  ipc::ShmRegion Shm;
  ipc::SessionLayout Layout;
  ipc::RingView Req, Resp;

  std::mutex WriteMu;
  std::atomic<bool> Dead{false};

  std::atomic<uint64_t> Requests{0}, Ok{0}, Errors{0}, Busy{0};
  std::atomic<int64_t> LastM{0}, LastN{0}, LastK{0};

  ClientStat snapshot(bool Active) const {
    ClientStat C;
    C.Id = Id;
    C.Active = Active;
    C.Requests = Requests.load(std::memory_order_relaxed);
    C.Ok = Ok.load(std::memory_order_relaxed);
    C.Errors = Errors.load(std::memory_order_relaxed);
    C.Busy = Busy.load(std::memory_order_relaxed);
    C.LastM = LastM.load(std::memory_order_relaxed);
    C.LastN = LastN.load(std::memory_order_relaxed);
    C.LastK = LastK.load(std::memory_order_relaxed);
    return C;
  }
};

struct Work {
  std::shared_ptr<Session> S;
  ipc::GemmRequestMsg Req;
};

/// An accepted connection whose Hello has not arrived yet.
struct PendingConn {
  ipc::Socket Conn;
  uint64_t DeadlineNs = 0;
};

/// How long an accepted connection may stay silent before its Hello.
constexpr uint64_t HelloTimeoutNs = 5'000'000'000;

} // namespace

struct Server::Impl {
  ServerOptions Opts;
  gemm::Engine Eng;
  ipc::Socket Listen;
  int WakeR = -1, WakeW = -1;

  std::thread Poller;
  std::vector<std::thread> Executors;

  std::mutex QMu;
  std::condition_variable QCv;
  std::deque<Work> Queue;
  bool Stopping = false;
  bool Running = false;

  mutable std::mutex SessMu;
  std::map<int, std::shared_ptr<Session>> Sessions; ///< by fd
  std::vector<ClientStat> Closed; ///< ledgers of departed sessions
  /// Connections waiting for their Hello, oldest first; at most
  /// MaxClients. Poller-only, so unlocked.
  std::deque<PendingConn> Pending;

  std::atomic<uint64_t> TotalClients{0}, Reaped{0}, ReqTotal{0}, OkTotal{0},
      ErrTotal{0}, BusyTotal{0};
  std::atomic<uint32_t> NextId{1};
  uint64_t StartNs = 0;

  explicit Impl(const ServerOptions &O)
      : Opts(O), Eng(O.Engine) {
    if (Opts.SocketPath.empty())
      Opts.SocketPath = ipc::defaultSocketPath();
    if (Opts.MaxClients <= 0)
      Opts.MaxClients = 64;
    if (Opts.Workers == 0)
      Opts.Workers = static_cast<unsigned>(exo::envInt(
          "EXO_GEMMD_WORKERS", std::getenv("EXO_GEMMD_WORKERS"), 1, 1, 256));
    if (Opts.QueueMax == 0)
      Opts.QueueMax = 64;
  }

  void pollLoop();
  bool dispatchQueued();
  void executorLoop();
  void handshake(ipc::Socket Conn);
  void drainSession(const std::shared_ptr<Session> &S);
  void handleGemm(const Work &W);
  void reapSession(const std::shared_ptr<Session> &S, const char *Why);
  bool sendReply(const std::shared_ptr<Session> &S, const void *Packet,
                 uint32_t Bytes);
  void fillWireStats(ipc::StatsReplyMsg &W) const;
  void wake() {
    char B = 'w';
    if (WakeW >= 0)
      (void)!::write(WakeW, &B, 1);
  }
};

//===----------------------------------------------------------------------===//
// Reply paths
//===----------------------------------------------------------------------===//

bool Server::Impl::sendReply(const std::shared_ptr<Session> &S,
                             const void *Packet, uint32_t Bytes) {
  // The synchronous client always has ring space; a full ring here means
  // the client stopped draining (dead, or flooding without reading).
  // Bounded retries, then give the session up rather than block a worker.
  for (int Try = 0; Try != 200; ++Try) {
    {
      std::lock_guard<std::mutex> Lock(S->WriteMu);
      if (S->Dead.load(std::memory_order_relaxed) || S->Fd < 0)
        return false;
      if (S->Resp.push(Packet, Bytes)) {
        // A client spinning on its ring needs no doorbell (Ring.h). A
        // failed doorbell means the peer is gone; the poller will see the
        // hangup and reap. Losing the byte is fine — the client polls its
        // ring on every doorbell it does receive.
        uint8_t Bell = ipc::DoorbellReply;
        if (S->Resp.needsDoorbell())
          (void)!::send(S->Fd, &Bell, 1, MSG_NOSIGNAL);
        return true;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  S->Dead.store(true, std::memory_order_relaxed);
  wake(); // let the poller close it out
  return false;
}

static void fillReplyError(ipc::GemmReplyMsg &R, ipc::ReqStatus St,
                           const std::string &Msg) {
  R.Status = static_cast<int32_t>(St);
  std::snprintf(R.Err, sizeof(R.Err), "%s", Msg.c_str());
}

//===----------------------------------------------------------------------===//
// Poller: accept, handshake, doorbells, reaping
//===----------------------------------------------------------------------===//

void Server::Impl::handshake(ipc::Socket Conn) {
  ipc::HelloMsg Hello;
  ipc::Socket RegionFd; // closed on every return; a mapping outlives it
  // The poller calls this once the connection turns readable, and the
  // client sends its Hello in one sendmsg, so the whole Hello is already
  // here: read it without waiting. Anything less (a short Hello, EOF)
  // closes the connection; no peer can hold the poller.
  if (Error E = Conn.recvAllTimed(&Hello, sizeof(Hello), 0, &RegionFd))
    return; // nothing to answer — the peer is gone or misbehaving
  ipc::HelloAck Ack;
  auto Reject = [&](ipc::HelloStatus St, const char *Why) {
    Ack.Status = static_cast<uint16_t>(St);
    std::snprintf(Ack.Err, sizeof(Ack.Err), "%s", Why);
    (void)Conn.sendAll(&Ack, sizeof(Ack));
  };
  if (Hello.Magic != ipc::WireMagic || Hello.Version != ipc::WireVersion)
    return Reject(ipc::HelloStatus::BadVersion,
                  "protocol version mismatch (rebuild the client)");
  if (Stopping)
    return Reject(ipc::HelloStatus::ShuttingDown, "server is shutting down");
  {
    std::lock_guard<std::mutex> Lock(SessMu);
    if (Sessions.size() >= static_cast<size_t>(Opts.MaxClients))
      return Reject(ipc::HelloStatus::Full, "server at --max-clients");
  }
  if (!RegionFd.valid())
    return Reject(ipc::HelloStatus::BadRegion,
                  "the Hello must pass exactly one region fd");
  Expected<ipc::SessionLayout> L =
      ipc::SessionLayout::derive(Hello.ShmBytes, Hello.RingSlots);
  if (!L)
    return Reject(ipc::HelloStatus::BadRegion, L.message().c_str());
  Expected<ipc::ShmRegion> R =
      ipc::ShmRegion::open(RegionFd.fd(), Hello.ShmBytes);
  if (!R)
    return Reject(ipc::HelloStatus::BadRegion, R.message().c_str());

  // Never trust the client's copy of the geometry: the header it wrote
  // must agree with what we derived ourselves.
  ipc::ShmSessionHeader H;
  std::memcpy(&H, R->base(), sizeof(H));
  if (H.Magic != ipc::WireMagic || H.Version != ipc::WireVersion ||
      H.TotalBytes != Hello.ShmBytes || H.RingSlots != Hello.RingSlots ||
      H.ArenaOff != L->ArenaOff || H.ArenaBytes != L->ArenaBytes)
    return Reject(ipc::HelloStatus::BadRegion,
                  "shm session header disagrees with the announced layout");

  auto S = std::make_shared<Session>();
  S->Id = NextId.fetch_add(1, std::memory_order_relaxed);
  S->Shm = R.take();
  S->Layout = *L;
  S->Req.attach(S->Shm.at(L->ReqRingOff), L->RingSlots);
  S->Resp.attach(S->Shm.at(L->RespRingOff), L->RingSlots);

  Ack.Status = static_cast<uint16_t>(ipc::HelloStatus::Ok);
  Ack.ClientId = S->Id;
  Ack.MaxInflight = L->RingSlots - 1;
  if (Error E = Conn.sendAll(&Ack, sizeof(Ack)))
    return;

  int Fd = Conn.release();
  ::fcntl(Fd, F_SETFL, ::fcntl(Fd, F_GETFL, 0) | O_NONBLOCK);
  S->Fd = Fd;
  {
    std::lock_guard<std::mutex> Lock(SessMu);
    Sessions[Fd] = S;
  }
  TotalClients.fetch_add(1, std::memory_order_relaxed);
}

void Server::Impl::reapSession(const std::shared_ptr<Session> &S,
                               const char *Why) {
  {
    std::lock_guard<std::mutex> Lock(S->WriteMu);
    if (S->Fd < 0)
      return; // already reaped
    ::close(S->Fd);
    S->Fd = -1;
    S->Dead.store(true, std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> Lock(SessMu);
    for (auto It = Sessions.begin(); It != Sessions.end(); ++It)
      if (It->second == S) {
        Sessions.erase(It);
        break;
      }
    if (Closed.size() >= 256)
      Closed.erase(Closed.begin());
    Closed.push_back(S->snapshot(false));
    Closed.back().ReapReason = Why;
  }
  Reaped.fetch_add(1, std::memory_order_relaxed);
  obs::mark("gemmd.reap");
}

void Server::Impl::drainSession(const std::shared_ptr<Session> &S) {
  alignas(8) unsigned char Slot[ipc::SlotBytes];
  while (S->Req.pop(Slot)) {
    ipc::PacketHeader PH;
    std::memcpy(&PH, Slot, sizeof(PH));
    // The header is client-written memory: validate every field before
    // dispatching on it. A violation costs the client its session — and
    // nothing else.
    if (PH.Magic != ipc::WireMagic || PH.Version != ipc::WireVersion ||
        PH.Bytes < sizeof(ipc::PacketHeader) || PH.Bytes > ipc::SlotBytes) {
      reapSession(S, "malformed packet header");
      return;
    }
    switch (static_cast<ipc::PacketType>(PH.Type)) {
    case ipc::PacketType::GemmRequest: {
      ipc::GemmRequestMsg Req;
      if (!ipc::readPacket(Slot, PH.Bytes, Req)) {
        reapSession(S, "truncated GemmRequest");
        return;
      }
      S->Requests.fetch_add(1, std::memory_order_relaxed);
      ReqTotal.fetch_add(1, std::memory_order_relaxed);
      S->LastM.store(Req.M, std::memory_order_relaxed);
      S->LastN.store(Req.N, std::memory_order_relaxed);
      S->LastK.store(Req.K, std::memory_order_relaxed);
      bool Admitted = false;
      {
        std::lock_guard<std::mutex> Lock(QMu);
        if (!Stopping && Queue.size() < Opts.QueueMax) {
          Work W;
          W.S = S;
          W.Req = Req;
          Queue.push_back(std::move(W));
          Admitted = true;
        }
      }
      // Admitted work runs once every ring is drained (dispatchQueued).
      if (!Admitted) {
        obs::mark("gemmd.busy");
        S->Busy.fetch_add(1, std::memory_order_relaxed);
        BusyTotal.fetch_add(1, std::memory_order_relaxed);
        ipc::GemmReplyMsg Rep;
        Rep.H.Type = static_cast<uint16_t>(ipc::PacketType::GemmReply);
        Rep.H.Seq = PH.Seq;
        Rep.H.Bytes = sizeof(Rep);
        fillReplyError(Rep, ipc::ReqStatus::Busy,
                       "admission queue full, request dropped");
        sendReply(S, &Rep, sizeof(Rep));
      }
      break;
    }
    case ipc::PacketType::Ping: {
      ipc::PacketHeader Rep;
      Rep.Type = static_cast<uint16_t>(ipc::PacketType::PingReply);
      Rep.Seq = PH.Seq;
      Rep.Bytes = sizeof(Rep);
      sendReply(S, &Rep, sizeof(Rep));
      break;
    }
    case ipc::PacketType::StatsRequest: {
      ipc::StatsReplyMsg Rep;
      fillWireStats(Rep);
      Rep.H.Seq = PH.Seq;
      sendReply(S, &Rep, sizeof(Rep));
      break;
    }
    default:
      reapSession(S, "unexpected packet type");
      return;
    }
  }
}

void Server::Impl::pollLoop() {
  std::vector<pollfd> Pfds;
  std::vector<std::shared_ptr<Session>> Polled;
  // After running a request, look for new doorbells and deaths without
  // sleeping before running the next one.
  int TimeoutMs = -1;
  for (;;) {
    // Close out sessions a reply marked dead (full ring / flood).
    {
      std::vector<std::shared_ptr<Session>> ToReap;
      {
        std::lock_guard<std::mutex> Lock(SessMu);
        for (auto &KV : Sessions)
          if (KV.second->Dead.load(std::memory_order_relaxed))
            ToReap.push_back(KV.second);
      }
      for (auto &S : ToReap)
        reapSession(S, "executor marked dead");
    }

    // Close connections still silent past their Hello deadline.
    const uint64_t Now = nowNs();
    while (!Pending.empty() && Pending.front().DeadlineNs <= Now)
      Pending.pop_front();
    int PollMs = TimeoutMs;
    if (!Pending.empty()) {
      const int Left = static_cast<int>(
          (Pending.front().DeadlineNs - Now + 999'999) / 1'000'000);
      PollMs = PollMs < 0 ? Left : std::min(PollMs, Left);
    }

    Pfds.clear();
    Polled.clear();
    Pfds.push_back(pollfd{Listen.fd(), POLLIN, 0});
    Pfds.push_back(pollfd{WakeR, POLLIN, 0});
    const size_t NPending = Pending.size();
    for (const PendingConn &P : Pending)
      Pfds.push_back(pollfd{P.Conn.fd(), POLLIN, 0});
    {
      std::lock_guard<std::mutex> Lock(SessMu);
      for (auto &KV : Sessions) {
        Pfds.push_back(pollfd{KV.first, POLLIN, 0});
        Polled.push_back(KV.second);
      }
    }
    int Rc = ::poll(Pfds.data(), Pfds.size(), PollMs);
    if (Rc < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    {
      std::lock_guard<std::mutex> Lock(QMu);
      if (Stopping)
        break;
    }
    if (Pfds[1].revents & POLLIN) {
      char Buf[64];
      while (::read(WakeR, Buf, sizeof(Buf)) > 0) {
      }
    }
    for (size_t I = 0; I < NPending; ++I)
      if (Pfds[2 + I].revents)
        handshake(std::move(Pending[I].Conn));
    std::erase_if(Pending,
                  [](const PendingConn &P) { return !P.Conn.valid(); });
    if (Pfds[0].revents & POLLIN) {
      if (Expected<ipc::Socket> Conn = Listen.accept()) {
        // Past MaxClients waiting connections, the oldest makes room.
        if (Pending.size() >= static_cast<size_t>(Opts.MaxClients))
          Pending.pop_front();
        Pending.push_back({Conn.take(), nowNs() + HelloTimeoutNs});
      }
    }
    for (size_t I = 2 + NPending; I < Pfds.size(); ++I) {
      const std::shared_ptr<Session> &S = Polled[I - 2 - NPending];
      if (Pfds[I].revents & (POLLERR | POLLNVAL)) {
        reapSession(S, "socket error");
        continue;
      }
      if (Pfds[I].revents & POLLIN) {
        char Bells[256];
        ssize_t R = ::read(Pfds[I].fd, Bells, sizeof(Bells));
        if (R == 0) {
          // EOF: the client exited or was killed — possibly mid-request.
          // Its queued work is skipped or completed into the still-mapped
          // region; either way nothing here can block another stream.
          reapSession(S, "client hangup");
          continue;
        }
        if (R < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
            errno != EINTR) {
          reapSession(S, "socket read error");
          continue;
        }
        if (R > 0)
          drainSession(S);
      } else if (Pfds[I].revents & POLLHUP) {
        reapSession(S, "client hangup");
      }
    }
    TimeoutMs = dispatchQueued() ? 0 : -1;
  }
  Pending.clear();
  // Answer everything already admitted before stop() closes the sessions.
  while (dispatchQueued()) {
  }
}

/// The poller is executor #0: it runs the head request itself and leaves
/// one notify per request still queued for the other executors — so with
/// none (Workers == 1) no thread is woken on the request path at all.
/// Returns whether it ran a request.
bool Server::Impl::dispatchQueued() {
  Work W;
  {
    std::lock_guard<std::mutex> Lock(QMu);
    if (Queue.empty())
      return false;
    W = std::move(Queue.front());
    Queue.pop_front();
    for (size_t I = 0; I != Queue.size(); ++I)
      QCv.notify_one();
  }
  handleGemm(W);
  return true;
}

//===----------------------------------------------------------------------===//
// Request runners (poller and executors): validate, run the engine, reply
//===----------------------------------------------------------------------===//

void Server::Impl::handleGemm(const Work &W) {
  const std::shared_ptr<Session> &S = W.S;
  const ipc::GemmRequestMsg &Q = W.Req;
  if (S->Dead.load(std::memory_order_relaxed))
    return; // no one left to read the result

  ipc::GemmReplyMsg Rep;
  Rep.H.Type = static_cast<uint16_t>(ipc::PacketType::GemmReply);
  Rep.H.Seq = Q.H.Seq;
  Rep.H.Bytes = sizeof(Rep);
  auto RejectBad = [&](const char *Why) {
    S->Errors.fetch_add(1, std::memory_order_relaxed);
    ErrTotal.fetch_add(1, std::memory_order_relaxed);
    fillReplyError(Rep, ipc::ReqStatus::Bad, Why);
    sendReply(S, &Rep, sizeof(Rep));
  };

  // Never trust the dtype byte: it picks the element sizes every span
  // below is checked at.
  if (Q.DTy >= gemm::DTypeCount)
    return RejectBad("unknown request dtype");
  const gemm::DType Ty = static_cast<gemm::DType>(Q.DTy);

  // Geometry validation against the arena: every byte the engine will
  // touch must land inside this client's region, at the request dtype's
  // element sizes (A/B at dtypeInBytes, C at dtypeOutBytes — an i8 span is
  // a quarter of the f32 span the same dims imply, and its C is still 4
  // bytes wide). Offsets, extents and strides are attacker-controlled, so
  // the arithmetic is wide; strides are required non-negative, so the
  // furthest byte belongs to the last item, and a count of 1 is the same
  // arithmetic with one item.
  const uint64_t Arena = S->Layout.ArenaBytes;
  const uint64_t InB = gemm::dtypeInBytes(Ty);
  const uint64_t OutB = gemm::dtypeOutBytes(Ty);
  auto SpanOk = [&](uint64_t Off, int64_t Ld, int64_t Cols, int64_t Stride,
                    uint64_t Elem) {
    if (Ld <= 0 || Cols <= 0 || Stride < 0 || Off % Elem != 0 || Off > Arena)
      return false;
    using U128 = unsigned __int128;
    // Each product is below 2^63 * 2^63 * 4, so neither wraps; compare
    // them one at a time so their sum cannot wrap either.
    const U128 Room = Arena - Off;
    const U128 Last = U128(static_cast<uint64_t>(Stride)) *
                      static_cast<uint64_t>(Q.BatchCount - 1) * Elem;
    const U128 Item = U128(static_cast<uint64_t>(Ld)) *
                      static_cast<uint64_t>(Cols) * Elem;
    return Last <= Room && Item <= Room - Last;
  };
  const int64_t ARows = Q.TA ? Q.K : Q.M;
  const int64_t ACols = Q.TA ? Q.M : Q.K;
  const int64_t BRows = Q.TB ? Q.N : Q.K;
  const int64_t BCols = Q.TB ? Q.K : Q.N;
  const bool Valid =
      Q.BatchCount > 0 && Q.M > 0 && Q.N > 0 && Q.K > 0 && Q.TA <= 1 &&
      Q.TB <= 1 && Q.Lda >= ARows && Q.Ldb >= BRows && Q.Ldc >= Q.M &&
      (Q.BatchCount == 1 ||
       static_cast<__int128>(Q.StrideC) >=
           static_cast<__int128>(Q.Ldc) * Q.N) &&
      SpanOk(Q.OffA, Q.Lda, ACols, Q.StrideA, InB) &&
      SpanOk(Q.OffB, Q.Ldb, BCols, Q.StrideB, InB) &&
      SpanOk(Q.OffC, Q.Ldc, Q.N, Q.StrideC, OutB);
  if (!Valid)
    return RejectBad("request geometry escapes the session arena");

  unsigned char *Arena0 = S->Shm.at(S->Layout.ArenaOff);
  const gemm::Trans TA = Q.TA ? gemm::Trans::Transpose : gemm::Trans::None;
  const gemm::Trans TB = Q.TB ? gemm::Trans::Transpose : gemm::Trans::None;

  // Cache-attribution flags ride on global counter deltas around the
  // call; with several executors they can misattribute a neighbor's
  // build, but daemon-level stats (what the warm-cache contract is
  // verified by) stay exact.
  gemm::EngineStats EB = Eng.stats();
  ukr::CacheStats UB = ukr::globalCacheStats();
  uint64_t T0 = nowNs();
  Error E = [&] {
    // One typed call for every request; F32 lands on the byte-identical
    // sgemm path. For I8I32 the engine itself rejects fractional
    // alpha/beta, which surfaces to the client as ReqStatus::Error with the
    // message intact.
    EXO_OBS_SPAN(Q.BatchCount == 1 ? "gemmd.request" : "gemmd.batch");
    return Eng.gemmStridedBatched(
        Ty, TA, TB, Q.M, Q.N, Q.K, static_cast<double>(Q.Alpha),
        Arena0 + Q.OffA, Q.Lda, Q.StrideA, Arena0 + Q.OffB, Q.Ldb, Q.StrideB,
        static_cast<double>(Q.Beta), Arena0 + Q.OffC, Q.Ldc, Q.StrideC,
        Q.BatchCount);
  }();
  Rep.ServerNs = nowNs() - T0;
  gemm::EngineStats EA = Eng.stats();
  ukr::CacheStats UA = ukr::globalCacheStats();
  if (EA.Hits > EB.Hits)
    Rep.Flags |= ipc::ReplyPlanHit;
  if (EA.Builds > EB.Builds)
    Rep.Flags |= ipc::ReplyPlanBuilt;
  if (UA.Compiles > UB.Compiles)
    Rep.Flags |= ipc::ReplyJitCompiled;

  if (E) {
    S->Errors.fetch_add(1, std::memory_order_relaxed);
    ErrTotal.fetch_add(1, std::memory_order_relaxed);
    fillReplyError(Rep, ipc::ReqStatus::Error, E.message());
  } else {
    S->Ok.fetch_add(1, std::memory_order_relaxed);
    OkTotal.fetch_add(1, std::memory_order_relaxed);
    Rep.Status = static_cast<int32_t>(ipc::ReqStatus::Ok);
  }
  sendReply(S, &Rep, sizeof(Rep));
}

void Server::Impl::executorLoop() {
  for (;;) {
    Work W;
    {
      std::unique_lock<std::mutex> Lock(QMu);
      QCv.wait(Lock, [&] { return Stopping || !Queue.empty(); });
      if (Queue.empty()) {
        if (Stopping)
          return; // graceful: the queue drained first
        continue;
      }
      W = std::move(Queue.front());
      Queue.pop_front();
    }
    handleGemm(W);
  }
}

//===----------------------------------------------------------------------===//
// Stats
//===----------------------------------------------------------------------===//

void Server::Impl::fillWireStats(ipc::StatsReplyMsg &W) const {
  W = ipc::StatsReplyMsg{};
  W.H.Type = static_cast<uint16_t>(ipc::PacketType::StatsReply);
  W.H.Bytes = sizeof(W);
  {
    std::lock_guard<std::mutex> Lock(SessMu);
    W.ActiveClients = Sessions.size();
  }
  W.TotalClients = TotalClients.load(std::memory_order_relaxed);
  W.Requests = ReqTotal.load(std::memory_order_relaxed);
  W.Ok = OkTotal.load(std::memory_order_relaxed);
  W.Errors = ErrTotal.load(std::memory_order_relaxed);
  W.Busy = BusyTotal.load(std::memory_order_relaxed);
  W.Reaped = Reaped.load(std::memory_order_relaxed);
  gemm::EngineStats ES = Eng.stats();
  W.PlanHits = ES.Hits;
  W.PlanMisses = ES.Misses;
  W.PlanBuilds = ES.Builds;
  W.PlanEvictions = ES.Evictions;
  W.PlanStickyErrors = ES.StickyErrors;
  ukr::CacheStats US = ukr::globalCacheStats();
  W.UkrDiskHits = US.DiskHits;
  W.UkrCompiles = US.Compiles;
  W.UptimeNs = nowNs() - StartNs;
}

//===----------------------------------------------------------------------===//
// Public surface
//===----------------------------------------------------------------------===//

Server::Server(const ServerOptions &Opts) : I(new Impl(Opts)) {}

Server::~Server() {
  stop();
  delete I;
}

Error Server::start() {
  if (I->Running)
    return errorf("gemmd: server already running");
  Expected<ipc::Socket> L = ipc::Socket::listen(I->Opts.SocketPath, 64);
  if (!L)
    return L.takeError();
  I->Listen = L.take();
  int Pipe[2];
  if (::pipe2(Pipe, O_CLOEXEC | O_NONBLOCK) != 0)
    return errorf("gemmd: pipe2 failed: %s", std::strerror(errno));
  I->WakeR = Pipe[0];
  I->WakeW = Pipe[1];
  I->StartNs = nowNs();
  I->Stopping = false;
  I->Running = true;
  I->Poller = std::thread([this] { I->pollLoop(); });
  for (unsigned W = 1; W < I->Opts.Workers; ++W)
    I->Executors.emplace_back([this] { I->executorLoop(); });
  return Error::success();
}

void Server::stop() {
  if (!I->Running)
    return;
  {
    std::lock_guard<std::mutex> Lock(I->QMu);
    I->Stopping = true;
  }
  I->QCv.notify_all();
  I->wake();
  // The poller and the executors drain what was already admitted, reply,
  // then exit.
  if (I->Poller.joinable())
    I->Poller.join();
  for (std::thread &T : I->Executors)
    if (T.joinable())
      T.join();
  I->Executors.clear();
  // Now nothing can touch the sessions: close them out (clients see EOF).
  std::vector<std::shared_ptr<Session>> Remaining;
  {
    std::lock_guard<std::mutex> Lock(I->SessMu);
    for (auto &KV : I->Sessions)
      Remaining.push_back(KV.second);
  }
  for (auto &S : Remaining)
    I->reapSession(S, "server shutdown");
  I->Listen.close();
  ::unlink(I->Opts.SocketPath.c_str());
  if (I->WakeR >= 0)
    ::close(I->WakeR);
  if (I->WakeW >= 0)
    ::close(I->WakeW);
  I->WakeR = I->WakeW = -1;
  I->Running = false;
}

bool Server::running() const { return I->Running; }

const std::string &Server::socketPath() const { return I->Opts.SocketPath; }

gemm::Engine &Server::engine() { return I->Eng; }

ServerStats Server::stats() const {
  ServerStats St;
  I->fillWireStats(St.Wire);
  std::lock_guard<std::mutex> Lock(I->SessMu);
  St.PerClient = I->Closed;
  for (const auto &KV : I->Sessions)
    St.PerClient.push_back(KV.second->snapshot(true));
  return St;
}

} // namespace gemmd
