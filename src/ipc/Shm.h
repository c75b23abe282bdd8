//===- Shm.h - Sealed memfd tensor regions for gemmd ----------------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One gemmd session owns one shared-memory region, created by the
/// client, mapped by both sides, and laid out as:
///
///   [ ShmSessionHeader | request ring | response ring | tensor arena ]
///
/// The region is an anonymous memfd, so no name can leak into /dev/shm
/// however either side dies. The client seals its size and passes the fd
/// with the HelloMsg (SCM_RIGHTS); the server maps it only if it carries
/// the shrink seal, so no client can truncate it under the server's
/// mapping (a SIGBUS). The region lives exactly as long as a mapping does.
///
/// ShmRegion is the RAII mapping (create-or-open + mmap); SessionLayout
/// derives the ring/arena offsets from (bytes, slots) on both sides
/// independently, so neither side ever trusts offsets the other wrote.
///
//===----------------------------------------------------------------------===//

#ifndef IPC_SHM_H
#define IPC_SHM_H

#include "exo/support/Error.h"
#include "ipc/Ring.h"
#include "ipc/Wire.h"

namespace ipc {

/// Page-0 header of the region, written by the client before the
/// handshake. The server cross-checks it against the HelloMsg and its own
/// SessionLayout; any disagreement rejects the session (HelloStatus::
/// BadRegion) before a single packet is popped.
struct ShmSessionHeader {
  uint32_t Magic = WireMagic;
  uint16_t Version = WireVersion;
  uint16_t Reserved = 0;
  uint64_t TotalBytes = 0;
  uint32_t RingSlots = 0;
  uint32_t Reserved2 = 0;
  uint64_t ArenaOff = 0;
  uint64_t ArenaBytes = 0;
};
static_assert(sizeof(ShmSessionHeader) == 40);
static_assert(std::is_trivially_copyable_v<ShmSessionHeader>);

/// Offsets of the pieces inside a region of \p TotalBytes with \p Slots
/// slots per ring. Both sides compute this independently.
struct SessionLayout {
  uint64_t ReqRingOff = 0;
  uint64_t RespRingOff = 0;
  uint64_t ArenaOff = 0;
  uint64_t ArenaBytes = 0;
  uint64_t TotalBytes = 0;
  uint32_t RingSlots = 0;

  /// Derives the layout; fails when the region is too small to hold the
  /// header, both rings and a non-empty arena, or Slots is not a power of
  /// two in [2, 4096].
  static exo::Expected<SessionLayout> derive(uint64_t TotalBytes,
                                             uint32_t Slots);
};

/// RAII memfd mapping. Movable, not copyable.
class ShmRegion {
public:
  ShmRegion() = default;
  ~ShmRegion();
  ShmRegion(ShmRegion &&O) noexcept;
  ShmRegion &operator=(ShmRegion &&O) noexcept;
  ShmRegion(const ShmRegion &) = delete;
  ShmRegion &operator=(const ShmRegion &) = delete;

  /// Client side: creates a fresh memfd, sizes it, seals its size and
  /// maps it. The region keeps the fd (fd()) until closeFd().
  static exo::Expected<ShmRegion> create(uint64_t Bytes);

  /// Server side: maps the region behind a passed \p Fd (not taken over)
  /// after checking it is a regular file of exactly \p ExpectBytes
  /// carrying the shrink seal.
  static exo::Expected<ShmRegion> open(int Fd, uint64_t ExpectBytes);

  /// The creator's memfd, to pass to the server; -1 once closed.
  int fd() const { return Fd; }
  /// Closes the fd; the mapping stays valid. Idempotent.
  void closeFd();

  void *base() const { return Base; }

  unsigned char *at(uint64_t Off) const {
    return static_cast<unsigned char *>(Base) + Off;
  }

private:
  void *Base = nullptr;
  uint64_t Bytes = 0;
  int Fd = -1;
};

} // namespace ipc

#endif // IPC_SHM_H
