//===- Ring.h - SPSC packet ring inside a shared-memory region ------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The packet transport of a gemmd session: two single-producer/single-
/// consumer rings of fixed-size slots (Wire.h's SlotBytes) living inside
/// the client-created shared-memory region — the client produces into the
/// request ring and consumes the response ring, the server the opposite.
/// A doorbell byte on the control socket tells the other side to drain;
/// the rings themselves never block and never syscall.
///
/// Doorbell skipping (an eventcount): a consumer about to spin on a ring
/// sets the header's Spinning word, and a producer that sees it set
/// after publishing skips the doorbell. Both sides put a seq_cst fence
/// between their store (Head, or Spinning cleared) and their load of the
/// other's word, so after the consumer clears Spinning and checks the
/// ring once more, either it sees the packet or the producer saw the
/// word clear and rang — a packet can be late, never lost. The word is
/// consumer-written, so the producer trusts nothing in it beyond "ring or
/// not": a scribbled word costs only that consumer its own doorbells.
///
/// Memory model: head/tail are lock-free std::atomic<uint32_t> (address-
/// free, so they work across process boundaries). The producer fills the
/// slot, then publishes with a release store to Head; the consumer
/// acquires Head, copies the slot out, then releases Tail. Indices only
/// ever grow (mod 2^32); Slots is a power of two so the mask is cheap.
///
/// Trust model: the server never trusts ring metadata it did not compute
/// itself — RingView::attach re-derives every offset from the validated
/// session geometry, and pop() hands back raw slot bytes for the caller
/// to header-check (a client can scribble anything here; see
/// docs/GEMMD.md "failure modes").
///
//===----------------------------------------------------------------------===//

#ifndef IPC_RING_H
#define IPC_RING_H

#include "ipc/Wire.h"

#include <atomic>
#include <cstring>

namespace ipc {

/// Control block at the head of each ring's shm slice.
struct RingHeader {
  std::atomic<uint32_t> Head; ///< next slot the producer will write
  std::atomic<uint32_t> Tail; ///< next slot the consumer will read
  uint32_t Slots;             ///< power of two
  uint32_t SlotBytes2;        ///< == SlotBytes (layout cross-check)
  /// Nonzero while the consumer spins on the ring instead of sleeping on
  /// the doorbell (see the file comment); untrusted by the producer.
  std::atomic<uint32_t> Spinning;
  uint32_t Reserved[3];
};
static_assert(std::atomic<uint32_t>::is_always_lock_free,
              "shm rings need address-free atomics");
static_assert(sizeof(RingHeader) == 32);

/// Bytes one ring occupies for \p Slots slots.
inline constexpr uint64_t ringBytes(uint32_t Slots) {
  return sizeof(RingHeader) + static_cast<uint64_t>(Slots) * SlotBytes;
}

/// A process-local view of one ring at \p Base. The same type serves both
/// ends; each side only calls the half of the API its role allows.
class RingView {
public:
  RingView() = default;

  /// Attaches to (without initializing) a ring at \p Base.
  void attach(void *Base, uint32_t Slots) {
    H = static_cast<RingHeader *>(Base);
    Data = static_cast<unsigned char *>(Base) + sizeof(RingHeader);
    Mask = Slots - 1;
  }

  /// Formats a fresh ring in place (creator side, before the handshake
  /// publishes the region).
  void init(void *Base, uint32_t Slots) {
    attach(Base, Slots);
    H->Head.store(0, std::memory_order_relaxed);
    H->Tail.store(0, std::memory_order_relaxed);
    H->Spinning.store(0, std::memory_order_relaxed);
    H->Slots = Slots;
    H->SlotBytes2 = SlotBytes;
  }

  bool attached() const { return H != nullptr; }

  /// Producer: copies \p Packet (Bytes <= SlotBytes) into the next slot
  /// and publishes it. False when the ring is full.
  bool push(const void *Packet, uint32_t Bytes) {
    uint32_t Head = H->Head.load(std::memory_order_relaxed);
    uint32_t Tail = H->Tail.load(std::memory_order_acquire);
    if (Head - Tail > Mask)
      return false;
    unsigned char *Slot = Data + static_cast<uint64_t>(Head & Mask) * SlotBytes;
    std::memcpy(Slot, Packet, Bytes);
    if (Bytes < SlotBytes)
      std::memset(Slot + Bytes, 0, SlotBytes - Bytes);
    H->Head.store(Head + 1, std::memory_order_release);
    return true;
  }

  template <typename T> bool pushPacket(const T &Packet) {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(sizeof(T) <= SlotBytes);
    return push(&Packet, sizeof(T));
  }

  /// Consumer: copies the next slot into \p Out (SlotBytes big) and
  /// retires it. False when the ring is empty. The bytes are untrusted —
  /// the caller validates the PacketHeader.
  bool pop(void *Out) {
    uint32_t Tail = H->Tail.load(std::memory_order_relaxed);
    uint32_t Head = H->Head.load(std::memory_order_acquire);
    if (Tail == Head)
      return false;
    const unsigned char *Slot =
        Data + static_cast<uint64_t>(Tail & Mask) * SlotBytes;
    std::memcpy(Out, Slot, SlotBytes);
    H->Tail.store(Tail + 1, std::memory_order_release);
    return true;
  }

  bool empty() const {
    return H->Tail.load(std::memory_order_relaxed) ==
           H->Head.load(std::memory_order_acquire);
  }

  /// Consumer: announces (true) or withdraws (false) a waiter spinning on
  /// this ring. After withdrawing, check the ring once more before
  /// sleeping on the doorbell: a packet published before the producer saw
  /// the word clear is there.
  void setSpinning(bool On) {
    H->Spinning.store(On ? 1 : 0, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }

  /// Producer, after a successful push(): false when the consumer is
  /// spinning on the ring and will see the packet without a doorbell.
  bool needsDoorbell() const {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    return H->Spinning.load(std::memory_order_relaxed) == 0;
  }

private:
  RingHeader *H = nullptr;
  unsigned char *Data = nullptr;
  uint32_t Mask = 0;
};

} // namespace ipc

#endif // IPC_RING_H
