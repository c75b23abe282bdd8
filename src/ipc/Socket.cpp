//===- Socket.cpp - Unix-domain control sockets for gemmd -----------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "ipc/Socket.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace exo;

namespace ipc {

Socket &Socket::operator=(Socket &&O) noexcept {
  if (this != &O) {
    close();
    Fd = O.Fd;
    O.Fd = -1;
  }
  return *this;
}

void Socket::close() {
  if (Fd >= 0)
    ::close(Fd);
  Fd = -1;
}

int Socket::release() {
  int F = Fd;
  Fd = -1;
  return F;
}

static Error fillAddr(const std::string &Path, sockaddr_un &Addr) {
  if (Path.size() >= sizeof(Addr.sun_path))
    return errorf("gemmd socket: path '%s' exceeds %zu bytes", Path.c_str(),
                  sizeof(Addr.sun_path) - 1);
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size());
  return Error::success();
}

Expected<Socket> Socket::connect(const std::string &Path) {
  sockaddr_un Addr;
  if (Error E = fillAddr(Path, Addr))
    return E;
  int Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return errorf("gemmd socket: socket() failed: %s", std::strerror(errno));
  Socket S(Fd);
  int Rc;
  do {
    Rc = ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr));
  } while (Rc != 0 && errno == EINTR);
  if (Rc != 0)
    return errorf("gemmd socket: connect(%s) failed: %s (is gemmd running?)",
                  Path.c_str(), std::strerror(errno));
  return S;
}

Expected<Socket> Socket::listen(const std::string &Path, int Backlog) {
  sockaddr_un Addr;
  if (Error E = fillAddr(Path, Addr))
    return E;
  int Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return errorf("gemmd socket: socket() failed: %s", std::strerror(errno));
  Socket S(Fd);
  // A dead server leaves the socket file behind; binding over it is the
  // expected restart path. A *live* server would still hold the listen,
  // but two gemmds on one path is an operator error this cannot detect.
  ::unlink(Path.c_str());
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0)
    return errorf("gemmd socket: bind(%s) failed: %s", Path.c_str(),
                  std::strerror(errno));
  if (::listen(Fd, Backlog) != 0)
    return errorf("gemmd socket: listen(%s) failed: %s", Path.c_str(),
                  std::strerror(errno));
  return S;
}

Expected<Socket> Socket::accept() {
  int C;
  do {
    C = ::accept4(Fd, nullptr, nullptr, SOCK_CLOEXEC);
  } while (C < 0 && errno == EINTR);
  if (C < 0)
    return errorf("gemmd socket: accept failed: %s", std::strerror(errno));
  return Socket(C);
}

Error Socket::sendAll(const void *Buf, size_t N, int PassFd) {
  const char *P = static_cast<const char *>(Buf);
  alignas(cmsghdr) char Ctl[CMSG_SPACE(sizeof(int))];
  while (N) {
    iovec Iov{const_cast<char *>(P), N};
    msghdr Msg{};
    Msg.msg_iov = &Iov;
    Msg.msg_iovlen = 1;
    if (PassFd >= 0) {
      Msg.msg_control = Ctl;
      Msg.msg_controllen = sizeof(Ctl);
      cmsghdr *C = CMSG_FIRSTHDR(&Msg);
      C->cmsg_level = SOL_SOCKET;
      C->cmsg_type = SCM_RIGHTS;
      C->cmsg_len = CMSG_LEN(sizeof(int));
      std::memcpy(CMSG_DATA(C), &PassFd, sizeof(int));
    }
    ssize_t W = ::sendmsg(Fd, &Msg, MSG_NOSIGNAL);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      return errorf("gemmd socket: send failed: %s", std::strerror(errno));
    }
    PassFd = -1; // the fd went with the first byte written
    P += W;
    N -= static_cast<size_t>(W);
  }
  return Error::success();
}

Error Socket::recvAllTimed(void *Buf, size_t N, int TimeoutMs,
                           Socket *PassedFd) {
  char *P = static_cast<char *>(Buf);
  // Room for a few fds, so a sender passing too many is read (and its fds
  // closed) rather than truncated.
  alignas(cmsghdr) char Ctl[CMSG_SPACE(4 * sizeof(int))];
  Socket Got;
  int Passed = 0;
  while (N) {
    if (TimeoutMs >= 0) {
      pollfd Pfd{Fd, POLLIN, 0};
      int Rc;
      do {
        Rc = ::poll(&Pfd, 1, TimeoutMs);
      } while (Rc < 0 && errno == EINTR);
      if (Rc == 0)
        return errorf("gemmd: timed out after %d ms waiting for the server",
                      TimeoutMs);
      if (Rc < 0)
        return errorf("gemmd socket: poll failed: %s", std::strerror(errno));
    }
    iovec Iov{P, N};
    msghdr Msg{};
    Msg.msg_iov = &Iov;
    Msg.msg_iovlen = 1;
    Msg.msg_control = Ctl;
    Msg.msg_controllen = sizeof(Ctl);
    ssize_t R = ::recvmsg(Fd, &Msg, MSG_CMSG_CLOEXEC);
    if (R == 0)
      return errorf("gemmd: server closed the connection");
    if (R < 0) {
      if (errno == EINTR)
        continue;
      return errorf("gemmd socket: recv failed: %s", std::strerror(errno));
    }
    for (cmsghdr *C = CMSG_FIRSTHDR(&Msg); C; C = CMSG_NXTHDR(&Msg, C)) {
      if (C->cmsg_level != SOL_SOCKET || C->cmsg_type != SCM_RIGHTS)
        continue;
      size_t Count = (C->cmsg_len - CMSG_LEN(0)) / sizeof(int);
      for (size_t I = 0; I != Count; ++I) {
        int F;
        std::memcpy(&F, CMSG_DATA(C) + I * sizeof(int), sizeof(int));
        if (++Passed == 1 && PassedFd)
          Got = Socket(F);
        else
          ::close(F);
      }
    }
    if (Msg.msg_flags & MSG_CTRUNC)
      return errorf("gemmd socket: ancillary data truncated");
    P += R;
    N -= static_cast<size_t>(R);
  }
  if (PassedFd && Passed == 1)
    *PassedFd = std::move(Got);
  return Error::success();
}

std::string defaultSocketPath() {
  if (const char *S = std::getenv("EXO_GEMMD_SOCKET"); S && *S)
    return S;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "/tmp/exo-gemmd-%ld.sock",
                static_cast<long>(::getuid()));
  return Buf;
}

} // namespace ipc
