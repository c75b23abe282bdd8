//===- Socket.h - Unix-domain control sockets for gemmd -------------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The thin control channel of a gemmd session: a Unix-domain stream
/// socket that carries exactly one HelloMsg/HelloAck handshake (the Hello
/// passes the session's memfd along as SCM_RIGHTS ancillary data) and then
/// only doorbell bytes (Wire.h). Its real job is lifetime, not data —
/// the server learns a client died (SIGKILL, crash, exit) from POLLHUP/
/// EOF on this fd, which is what makes client reaping race-free: the
/// kernel closes the fd for any kind of death.
///
/// All helpers are EINTR-safe and never raise SIGPIPE (MSG_NOSIGNAL);
/// a peer vanishing mid-write is a normal return, not a signal.
///
//===----------------------------------------------------------------------===//

#ifndef IPC_SOCKET_H
#define IPC_SOCKET_H

#include "exo/support/Error.h"

#include <cstdint>
#include <string>

namespace ipc {

/// RAII fd. Movable, not copyable.
class Socket {
public:
  Socket() = default;
  explicit Socket(int Fd) : Fd(Fd) {}
  ~Socket() { close(); }
  Socket(Socket &&O) noexcept : Fd(O.Fd) { O.Fd = -1; }
  Socket &operator=(Socket &&O) noexcept;
  Socket(const Socket &) = delete;
  Socket &operator=(const Socket &) = delete;

  int fd() const { return Fd; }
  bool valid() const { return Fd >= 0; }
  void close();
  /// Releases ownership of the fd to the caller.
  int release();

  /// Connects to a listening gemmd socket at \p Path.
  static exo::Expected<Socket> connect(const std::string &Path);

  /// Binds and listens at \p Path (unlinking any stale socket file first).
  static exo::Expected<Socket> listen(const std::string &Path, int Backlog);

  /// Accepts one pending connection (the fd is made non-blocking by the
  /// caller if desired); fails on transient errors with errno text.
  exo::Expected<Socket> accept();

  /// Writes exactly \p N bytes (EINTR-safe, SIGPIPE-free), passing
  /// \p PassFd along with the first byte unless it is -1. Fails when the
  /// peer is gone.
  exo::Error sendAll(const void *Buf, size_t N, int PassFd = -1);

  /// Reads exactly \p N bytes, waiting at most \p TimeoutMs (-1 = forever).
  /// Distinguishes timeout ("gemmd: timed out ...") from peer loss.
  /// \p PassedFd, when given, receives the one fd passed with those bytes;
  /// it stays invalid if none or more than one came. Every other passed fd
  /// is closed, and ancillary data too large to read fails the read.
  exo::Error recvAllTimed(void *Buf, size_t N, int TimeoutMs,
                          Socket *PassedFd = nullptr);

  /// Sends a single doorbell byte; a lost peer is reported, not fatal.
  exo::Error ring(uint8_t Bell) { return sendAll(&Bell, 1); }

private:
  int Fd = -1;
};

/// The socket path clients and the server agree on by default:
/// $EXO_GEMMD_SOCKET, else /tmp/exo-gemmd-<uid>.sock.
std::string defaultSocketPath();

} // namespace ipc

#endif // IPC_SOCKET_H
