//===- Shm.cpp - Sealed memfd tensor regions for gemmd --------------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "ipc/Shm.h"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#include <utility>

using namespace exo;

namespace ipc {

Expected<SessionLayout> SessionLayout::derive(uint64_t TotalBytes,
                                              uint32_t Slots) {
  if (Slots < 2 || Slots > 4096 || (Slots & (Slots - 1)) != 0)
    return errorf("gemmd shm: ring slot count %u is not a power of two in "
                  "[2, 4096]",
                  Slots);
  SessionLayout L;
  L.RingSlots = Slots;
  L.TotalBytes = TotalBytes;
  // 64-byte-align each piece; the arena additionally starts page-aligned
  // so tensor rows sit on cache-line boundaries for the kernels.
  auto Align = [](uint64_t X, uint64_t A) { return (X + A - 1) & ~(A - 1); };
  L.ReqRingOff = Align(sizeof(ShmSessionHeader), 64);
  L.RespRingOff = Align(L.ReqRingOff + ringBytes(Slots), 64);
  L.ArenaOff = Align(L.RespRingOff + ringBytes(Slots), 4096);
  if (TotalBytes <= L.ArenaOff)
    return errorf("gemmd shm: region of %llu bytes leaves no tensor arena "
                  "(need > %llu)",
                  static_cast<unsigned long long>(TotalBytes),
                  static_cast<unsigned long long>(L.ArenaOff));
  L.ArenaBytes = TotalBytes - L.ArenaOff;
  return L;
}

ShmRegion::~ShmRegion() {
  if (Base)
    ::munmap(Base, Bytes);
  closeFd();
}

ShmRegion::ShmRegion(ShmRegion &&O) noexcept { *this = std::move(O); }

// Swaps: whatever this held is released when O is destroyed.
ShmRegion &ShmRegion::operator=(ShmRegion &&O) noexcept {
  std::swap(Base, O.Base);
  std::swap(Bytes, O.Bytes);
  std::swap(Fd, O.Fd);
  return *this;
}

void ShmRegion::closeFd() {
  if (Fd >= 0)
    ::close(Fd);
  Fd = -1;
}

Expected<ShmRegion> ShmRegion::create(uint64_t Bytes) {
  if (Bytes == 0)
    return errorf("gemmd shm: zero-byte region");
  int Fd = ::memfd_create("exo-gemmd", MFD_CLOEXEC | MFD_ALLOW_SEALING);
  if (Fd < 0)
    return errorf("gemmd shm: memfd_create failed: %s", std::strerror(errno));
  if (::ftruncate(Fd, static_cast<off_t>(Bytes)) != 0 ||
      ::fcntl(Fd, F_ADD_SEALS, F_SEAL_SHRINK | F_SEAL_GROW | F_SEAL_SEAL) !=
          0) {
    int E = errno;
    ::close(Fd);
    return errorf("gemmd shm: sizing and sealing %llu bytes failed: %s",
                  static_cast<unsigned long long>(Bytes), std::strerror(E));
  }
  Expected<ShmRegion> R = open(Fd, Bytes);
  if (R)
    R->Fd = Fd;
  else
    ::close(Fd);
  return R;
}

Expected<ShmRegion> ShmRegion::open(int Fd, uint64_t ExpectBytes) {
  // Without the shrink seal the client could truncate the file under our
  // mapping, and the next access would SIGBUS the whole server. The seal
  // is checked first: only then does the size read below stay true.
  int Seals = ::fcntl(Fd, F_GET_SEALS);
  if (Seals < 0 || !(Seals & F_SEAL_SHRINK))
    return errorf("gemmd shm: region fd is not sealed against shrinking");
  struct stat St;
  if (::fstat(Fd, &St) != 0 || !S_ISREG(St.st_mode) ||
      static_cast<uint64_t>(St.st_size) != ExpectBytes)
    return errorf("gemmd shm: region fd is not a %llu-byte file",
                  static_cast<unsigned long long>(ExpectBytes));
  void *P = ::mmap(nullptr, ExpectBytes, PROT_READ | PROT_WRITE, MAP_SHARED,
                   Fd, 0);
  if (P == MAP_FAILED)
    return errorf("gemmd shm: mmap of %llu bytes failed: %s",
                  static_cast<unsigned long long>(ExpectBytes),
                  std::strerror(errno));
  ShmRegion R;
  R.Base = P;
  R.Bytes = ExpectBytes;
  return R;
}

} // namespace ipc
