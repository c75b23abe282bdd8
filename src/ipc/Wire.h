//===- Wire.h - gemmd wire protocol: versioned packet structs -------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fixed-layout structs exchanged between a gemmd server and its
/// clients (see docs/GEMMD.md for the protocol narrative). Two transports
/// carry them:
///
///   1. The Unix-domain control socket carries exactly one HelloMsg /
///      HelloAck exchange per connection, the HelloMsg passing the
///      client's sealed memfd region along (SCM_RIGHTS), then degrades to
///      a doorbell byte stream.
///   2. Everything after the handshake travels as fixed-size packets
///      through the two SPSC rings inside the client's shared-memory
///      region (Ring.h); tensor payloads live in the region's arena and
///      are referenced by offset, never copied through the rings.
///
/// Versioning: every struct starts with {Magic, Version}. The server
/// rejects a mismatched HelloMsg before mapping anything, and both sides
/// validate PacketHeader on every ring pop — a malformed or oversized
/// header is a protocol violation that costs that client its session,
/// never the server. Structs are trivially copyable, fixed-width-integer
/// only, and static_asserted to their intended sizes so the layout cannot
/// drift silently between client and server builds.
///
//===----------------------------------------------------------------------===//

#ifndef IPC_WIRE_H
#define IPC_WIRE_H

#include <cstdint>
#include <cstring>
#include <type_traits>

namespace ipc {

/// 'GMD1' — shared by every wire struct and the shm header.
inline constexpr uint32_t WireMagic = 0x31444D47;
/// Bumped on any layout or semantics change; no cross-version service.
/// v2: batched GEMM (a second request/reply packet pair).
/// v3: the single-GEMM request's pad byte carries the dtype (DTy).
/// v4: one GemmRequest for every GEMM: dtype, strides and batch count.
/// v5: StatsReply drops the kernel-fallback counter.
/// v6: the ring header grows a Spinning word; a reply pushed while the
///     client spins on the response ring skips its doorbell (Ring.h).
/// v7: HelloMsg drops the shm name; the region is a sealed memfd passed
///     with the HelloMsg over the control socket.
inline constexpr uint16_t WireVersion = 7;

/// Ring slot size. Every packet (header + payload) must fit one slot;
/// GemmRequest and StatsReply are the widest packets.
inline constexpr uint32_t SlotBytes = 256;

/// Doorbell bytes on the control socket after the handshake.
enum Doorbell : uint8_t {
  DoorbellRequest = 'q', ///< client -> server: request ring has packets
  DoorbellReply = 'r',   ///< server -> client: response ring has packets,
                         ///< unless the client announced it is spinning
};

/// HelloAck::Status values.
enum class HelloStatus : uint16_t {
  Ok = 0,
  BadVersion = 1,  ///< protocol version mismatch
  Full = 2,        ///< server at --max-clients
  BadRegion = 3,   ///< region fd missing, extra, unsealed or mis-sized,
                   ///< or its header invalid
  ShuttingDown = 4,
};

/// GemmReply::Status values (negatives are transport-level).
enum class ReqStatus : int32_t {
  Ok = 0,
  Error = 1, ///< the Engine call failed; GemmReply::Err has the message
  Busy = 2,  ///< admission control: bounded queue full, request dropped
  Bad = 3,   ///< request failed validation (offsets, dims, overlap)
};

/// GemmReply::Flags bits.
enum ReplyFlags : uint32_t {
  ReplyPlanHit = 1u << 0,  ///< served by a cached plan (no plan build)
  ReplyPlanBuilt = 1u << 1, ///< this request built a new plan
  ReplyJitCompiled = 1u << 2, ///< this request invoked the C compiler
};

/// First (and only) message a client sends over the fresh socket; the
/// region's memfd travels with it as the one SCM_RIGHTS fd.
struct HelloMsg {
  uint32_t Magic = WireMagic;
  uint16_t Version = WireVersion;
  uint16_t Reserved = 0;
  uint64_t ShmBytes = 0;  ///< total region size the client created
  uint32_t RingSlots = 0; ///< slots per ring (power of two)
  uint32_t Reserved2 = 0;
};
static_assert(sizeof(HelloMsg) == 24, "HelloMsg is part of the wire ABI");
static_assert(std::is_trivially_copyable_v<HelloMsg>);

/// The server's socket-level answer; on Ok the session is live and all
/// further traffic moves to the rings.
struct HelloAck {
  uint32_t Magic = WireMagic;
  uint16_t Version = WireVersion;
  uint16_t Status = 0;      ///< HelloStatus
  uint32_t ClientId = 0;    ///< server-assigned, echoed in stats
  uint32_t MaxInflight = 0; ///< requests the client may keep outstanding
  char Err[112] = {};       ///< human-readable rejection reason
};
static_assert(sizeof(HelloAck) == 128, "HelloAck is part of the wire ABI");
static_assert(std::is_trivially_copyable_v<HelloAck>);

/// Packet discriminator inside the rings.
enum class PacketType : uint16_t {
  GemmRequest = 1,
  GemmReply = 2,
  StatsRequest = 3,
  StatsReply = 4,
  Ping = 5,
  PingReply = 6,
};

/// Leads every ring packet. Bytes counts the full packet (header
/// included) and must satisfy sizeof(PacketHeader) <= Bytes <= SlotBytes;
/// anything else is a protocol violation.
struct PacketHeader {
  uint32_t Magic = WireMagic;
  uint16_t Version = WireVersion;
  uint16_t Type = 0; ///< PacketType
  uint32_t Seq = 0;  ///< request/reply correlation id (echoed back)
  uint32_t Bytes = 0;
};
static_assert(sizeof(PacketHeader) == 16);
static_assert(std::is_trivially_copyable_v<PacketHeader>);

/// One GEMM, or a strided batch of same-shape GEMMs, over tensors in the
/// session arena. Offsets are bytes from the arena base; operands use the
/// same column-major convention as Engine::gemm (with TA != 0, A is stored
/// K x M with Lda >= K, and symmetrically for B).
///
/// DTy selects the element type (gemm::DType values: 0 f32, 1 f16, 2 bf16,
/// 3 i8->i32) and the server re-validates every arena span at that dtype's
/// element sizes (A/B at dtypeInBytes, C at dtypeOutBytes). For I8I32,
/// Alpha/Beta must hold exact integers.
///
/// Offsets address item 0; item i's operands live at Off{A,B,C} +
/// i * Stride{A,B,C} elements (strides in elements, like cuBLAS).
/// Strides must be non-negative; StrideA/StrideB may be 0 (shared operand)
/// and StrideC must keep the C items disjoint. A count of 1 is a single
/// GEMM; any count serves every dtype, through one
/// Engine::gemmStridedBatched call. One GemmReply covers the request.
struct GemmRequestMsg {
  PacketHeader H;
  uint8_t TA = 0, TB = 0; ///< 0 = none, 1 = transpose
  uint8_t DTy = 0;        ///< gemm::DType; 0 = f32
  uint8_t Pad0 = 0;
  float Alpha = 1.0f;
  float Beta = 0.0f;
  int64_t M = 0, N = 0, K = 0;
  uint64_t OffA = 0, OffB = 0, OffC = 0;
  int64_t Lda = 0, Ldb = 0, Ldc = 0;
  int64_t StrideA = 0, StrideB = 0, StrideC = 0;
  int64_t BatchCount = 1;
};
static_assert(sizeof(GemmRequestMsg) == 136);
static_assert(sizeof(GemmRequestMsg) <= SlotBytes);
static_assert(std::is_trivially_copyable_v<GemmRequestMsg>);

/// Completion for one GemmRequestMsg (same Seq). On Ok the result is
/// already in the arena at OffC.
struct GemmReplyMsg {
  PacketHeader H;
  int32_t Status = 0;   ///< ReqStatus
  uint32_t Flags = 0;   ///< ReplyFlags
  uint64_t ServerNs = 0; ///< wall time inside the server for this request
  char Err[88] = {};    ///< truncated Engine diagnostic when Status != Ok
};
static_assert(sizeof(GemmReplyMsg) == 120);
static_assert(std::is_trivially_copyable_v<GemmReplyMsg>);

/// Daemon-wide counters, served to any client on StatsRequest — how a cold
/// client proves the shared plan/JIT cache is warm (docs/GEMMD.md).
struct StatsReplyMsg {
  PacketHeader H;
  uint64_t ActiveClients = 0;
  uint64_t TotalClients = 0;  ///< sessions ever admitted
  uint64_t Requests = 0;      ///< GEMM requests accepted off the rings
  uint64_t Ok = 0;
  uint64_t Errors = 0;        ///< engine or validation failures
  uint64_t Busy = 0;          ///< admission-control rejections
  uint64_t Reaped = 0;        ///< sessions torn down by crash/violation
  uint64_t PlanHits = 0;      ///< EngineStats::Hits
  uint64_t PlanMisses = 0;
  uint64_t PlanBuilds = 0;
  uint64_t PlanEvictions = 0;
  uint64_t PlanStickyErrors = 0;
  uint64_t UkrDiskHits = 0;   ///< JIT artifacts loaded from the disk cache
  uint64_t UkrCompiles = 0;   ///< compiler invocations
  uint64_t UptimeNs = 0;
};
static_assert(sizeof(StatsReplyMsg) == 136);
static_assert(sizeof(StatsReplyMsg) <= SlotBytes);
static_assert(std::is_trivially_copyable_v<StatsReplyMsg>);

/// Safe packet extraction from a ring slot: copies the struct out iff the
/// already-validated header's Bytes covers it.
template <typename T> bool readPacket(const void *Slot, uint32_t Bytes, T &Out) {
  if (Bytes < sizeof(T))
    return false;
  std::memcpy(&Out, Slot, sizeof(T));
  return true;
}

} // namespace ipc

#endif // IPC_WIRE_H
