//===- Client.h - gemm::Client, the remote Engine front door --------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client half of gemmd: `gemm::Client` is call-compatible with the
/// Engine's `gemmStridedBatched`, `gemm`, `sgemm` and
/// `sgemmStridedBatched`, but instead of
/// planning and executing locally it stages the operands into the
/// session's shared-memory arena, posts one GemmRequest packet on the
/// request ring, rings the doorbell, and waits for the server's reply (a
/// short spin on the response ring, then a sleep on the socket) —
/// so a fleet of processes shares ONE warm plan cache, ONE JIT cache, and
/// ONE thread pool inside the daemon instead of each paying the
/// cold-start cost (docs/GEMMD.md). Like the Engine's, every door is a
/// forward to the one typed routine, gemmStridedBatched; they differ only
/// in dtype, strides and batch count.
///
/// Semantics match the Engine exactly: degenerate calls (m/n/k == 0,
/// alpha == 0, an empty batch) are answered locally through the same
/// scaleByBeta path the Engine uses and never touch the wire; everything
/// else produces results bitwise identical to the local Engine call with
/// the daemon's config (the daemon_test differential suite enforces this).
///
/// Lifecycle: connect() is explicit or implicit on first use; a
/// connection that dies (server gone, protocol error) fails the call in
/// flight and the next call transparently reconnects. One Client holds
/// one session; calls are serialized internally (use one Client per
/// thread for parallel request streams, as bench_gemmd does).
///
/// Knobs: EXO_GEMMD_SOCKET (rendezvous path), EXO_GEMMD_SHM_BYTES
/// (arena size; requests that do not fit fail client-side with a clear
/// message), EXO_GEMMD_TIMEOUT_MS (reply wait); see docs/KNOBS.md.
///
//===----------------------------------------------------------------------===//

#ifndef IPC_CLIENT_H
#define IPC_CLIENT_H

#include "gemm/Gemm.h"
#include "ipc/Shm.h"
#include "ipc/Socket.h"
#include "ipc/Wire.h"

#include <mutex>

namespace gemm {

/// See file comment.
class Client {
public:
  struct Options {
    /// Empty resolves EXO_GEMMD_SOCKET, else /tmp/exo-gemmd-<uid>.sock.
    std::string SocketPath;
    /// Session region size (rings + tensor arena). 0 resolves
    /// EXO_GEMMD_SHM_BYTES, else 64 MiB.
    uint64_t ShmBytes = 0;
    /// Reply wait budget in ms; 0 resolves EXO_GEMMD_TIMEOUT_MS, else
    /// -1 (wait forever). Timeouts kill the session.
    int TimeoutMs = 0;
  };

  Client();
  explicit Client(const Options &Opts);
  ~Client();
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  /// Establishes the session now (handshake + region mapping). sgemm calls
  /// do this lazily; connect() exists so callers can fail fast.
  exo::Error connect();
  /// Tears the session down; the next call reconnects.
  void disconnect();

  /// The one remote GEMM every door below forwards to, call-compatible
  /// with Engine::gemmStridedBatched: BatchCount same-shape problems of
  /// \p Ty (strides and count in elements) cross the wire as ONE
  /// GemmRequest packet and ONE doorbell round trip, so a model's worth of
  /// small GEMMs pays the per-request latency once. Operands are raw
  /// element buffers of \p Ty's storage types (f32 floats, f16/bf16 uint16
  /// halves, i8 A/B with i32 C); the server re-validates the arena spans at
  /// those element sizes. StrideA/StrideB == 0 ships the shared operand a
  /// single time.
  ///
  /// The argument rules are the Engine's (detail::checkGemmArgs), checked
  /// here so the error names the caller rather than costing a round trip,
  /// plus the wire's own: alpha/beta cross as f32, so for dtypes other
  /// than F32 (which rounds them to f32 like the Engine) they must be
  /// exactly representable in f32, and the staged operands must fit the
  /// session arena. Degenerate calls and empty batches resolve locally
  /// through the same scaleByBeta path the Engine uses and never touch the
  /// wire; everything else is bitwise identical to the daemon engine's
  /// local gemmStridedBatched.
  exo::Error gemmStridedBatched(DType Ty, Trans TA, Trans TB, int64_t M,
                                int64_t N, int64_t K, double Alpha,
                                const void *A, int64_t Lda, int64_t StrideA,
                                const void *B, int64_t Ldb, int64_t StrideB,
                                double Beta, void *C, int64_t Ldc,
                                int64_t StrideC, int64_t BatchCount);

  /// Typed remote GEMM, call-compatible with Engine::gemm.
  exo::Error gemm(DType Ty, Trans TA, Trans TB, int64_t M, int64_t N,
                  int64_t K, double Alpha, const void *A, int64_t Lda,
                  const void *B, int64_t Ldb, double Beta, void *C,
                  int64_t Ldc) {
    return gemmStridedBatched(Ty, TA, TB, M, N, K, Alpha, A, Lda, 0, B, Ldb,
                              0, Beta, C, Ldc, 0, 1);
  }

  /// Remote f32 GEMM, call-compatible with Engine::sgemm.
  exo::Error sgemm(Trans TA, Trans TB, int64_t M, int64_t N, int64_t K,
                   float Alpha, const float *A, int64_t Lda, const float *B,
                   int64_t Ldb, float Beta, float *C, int64_t Ldc) {
    return gemm(DType::F32, TA, TB, M, N, K, Alpha, A, Lda, B, Ldb, Beta, C,
                Ldc);
  }

  exo::Error sgemm(int64_t M, int64_t N, int64_t K, float Alpha,
                   const float *A, int64_t Lda, const float *B, int64_t Ldb,
                   float Beta, float *C, int64_t Ldc) {
    return sgemm(Trans::None, Trans::None, M, N, K, Alpha, A, Lda, B, Ldb,
                 Beta, C, Ldc);
  }

  /// Remote f32 strided batch, call-compatible with
  /// Engine::sgemmStridedBatched.
  exo::Error sgemmStridedBatched(Trans TA, Trans TB, int64_t M, int64_t N,
                                 int64_t K, float Alpha, const float *A,
                                 int64_t Lda, int64_t StrideA, const float *B,
                                 int64_t Ldb, int64_t StrideB, float Beta,
                                 float *C, int64_t Ldc, int64_t StrideC,
                                 int64_t BatchCount) {
    return gemmStridedBatched(DType::F32, TA, TB, M, N, K, Alpha, A, Lda,
                              StrideA, B, Ldb, StrideB, Beta, C, Ldc, StrideC,
                              BatchCount);
  }

  /// Round-trips a Ping packet (liveness probe).
  exo::Error ping();

  /// Fetches the daemon's aggregate counters (plan cache, JIT cache,
  /// admission control) — how a cold process observes the warm shared
  /// cache.
  exo::Error serverStats(ipc::StatsReplyMsg &Out);

  /// ReplyFlags of the last completed remote GEMM (plan hit / plan built /
  /// jit compiled), 0 before any call.
  uint32_t lastFlags() const { return LastFlags; }

private:
  exo::Error ensureConnectedLocked();
  exo::Error transactLocked(const void *Packet, uint32_t Bytes, void *Reply,
                            ipc::PacketType WantType, uint32_t WantSeq);
  void dropSessionLocked();

  Options Opts;
  std::mutex Mu; ///< one request in flight per Client
  ipc::Socket Sock;
  ipc::ShmRegion Shm;
  ipc::SessionLayout Layout;
  ipc::RingView ReqRing, RespRing;
  bool Connected = false;
  uint32_t Seq = 0;
  uint32_t LastFlags = 0;
  uint64_t LastServerNs = 0; ///< previous GemmReply's ServerNs (spin or not)
};

} // namespace gemm

#endif // IPC_CLIENT_H
