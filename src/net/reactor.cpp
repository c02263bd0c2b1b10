#include "net/reactor.hpp"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#include <vector>

#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"

namespace adpm::net {

Reactor::Reactor(Options options, Handlers handlers)
    : options_(options), handlers_(std::move(handlers)) {
  int fds[2];
  if (::pipe2(fds, O_NONBLOCK | O_CLOEXEC) != 0) {
    throw adpm::Error(std::string("pipe2(): ") + std::strerror(errno));
  }
  wakeRead_ = ScopedFd(fds[0]);
  wakeWrite_ = ScopedFd(fds[1]);
}

Reactor::~Reactor() {
  // The owner must have stopped and joined the reactor thread; destroying
  // the fds here tears down whatever connections remain.
}

std::uint16_t Reactor::listen(const std::string& host, std::uint16_t port) {
  ScopedFd fd = listenTcp(host, port);
  setNonBlocking(fd.get(), true);
  const std::uint16_t bound = localPort(fd.get());
  util::LockGuard lock(mutex_);
  listenFd_ = std::move(fd);
  return bound;
}

void Reactor::stopListening() {
  {
    util::LockGuard lock(mutex_);
    listenFd_.reset();
  }
  wakeup();
}

void Reactor::stop() {
  {
    util::LockGuard lock(mutex_);
    stop_ = true;
  }
  wakeup();
}

void Reactor::wakeup() {
  const char byte = 1;
  // Full pipe is fine — the reactor is already due to wake.
  (void)!::write(wakeWrite_.get(), &byte, 1);
}

bool Reactor::send(ConnId conn, FrameType type, std::string_view payload) {
  const std::string bytes = encodeFrame(type, payload);
  {
    util::LockGuard lock(mutex_);
    const auto it = conns_.find(conn);
    if (it == conns_.end() || it->second->closing) return false;
    Conn& c = *it->second;
    c.outbuf.append(bytes);
  }
  wakeup();
  return true;
}

std::size_t Reactor::queuedBytes(ConnId conn) const {
  util::LockGuard lock(mutex_);
  const auto it = conns_.find(conn);
  return it == conns_.end() ? 0 : pendingOf(*it->second);
}

void Reactor::close(ConnId conn, bool flushFirst) {
  {
    util::LockGuard lock(mutex_);
    const auto it = conns_.find(conn);
    if (it == conns_.end()) return;
    Conn& c = *it->second;
    c.closing = true;
    if (!flushFirst) {
      c.outbuf.clear();
      c.outPos = 0;
    }
  }
  wakeup();
}

std::size_t Reactor::connectionCount() const {
  util::LockGuard lock(mutex_);
  return conns_.size();
}

void Reactor::destroyConn(ConnId id, const std::string& reason) {
  std::unique_ptr<Conn> dead;
  {
    util::LockGuard lock(mutex_);
    const auto it = conns_.find(id);
    if (it == conns_.end()) return;
    dead = std::move(it->second);
    conns_.erase(it);
  }
  dead.reset();  // closes the fd
  if (handlers_.onClose) handlers_.onClose(id, reason);
}

void Reactor::handleAccept() {
  for (;;) {
    int fd;
    {
      util::LockGuard lock(mutex_);
      if (!listenFd_.valid()) return;
      fd = ::accept(listenFd_.get(), nullptr, nullptr);
    }
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept error: nothing to take now
    }
    if (ADPM_FAULT_POINT("net.accept") != util::FaultAction::None) {
      ::close(fd);  // injected accept failure: the client sees a reset
      continue;
    }
    setNonBlocking(fd, true);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ConnId id;
    {
      util::LockGuard lock(mutex_);
      id = nextId_++;
      auto conn = std::make_unique<Conn>();
      conn->fd = ScopedFd(fd);
      conns_.emplace(id, std::move(conn));
    }
    if (handlers_.onAccept) handlers_.onAccept(id);
  }
}

bool Reactor::handleReadable(ConnId id) {
  int fd = -1;
  Conn* c = nullptr;
  {
    util::LockGuard lock(mutex_);
    const auto it = conns_.find(id);
    if (it == conns_.end() || it->second->closing) return true;
    c = it->second.get();
    fd = c->fd.get();
  }
  char buf[64 * 1024];
  IoResult r;
  try {
    r = readSome(fd, buf, sizeof buf);
  } catch (const ConnectionError& e) {
    destroyConn(id, e.what());
    return false;
  }
  if (r.status == IoStatus::WouldBlock) return true;
  if (r.status == IoStatus::Eof) {
    destroyConn(id, "peer closed the connection");
    return false;
  }
  // The parser is only ever touched on the reactor thread, and connections
  // are only erased on the reactor thread, so `c` stays valid across the
  // handler calls below even though the lock is released.
  c->parser.feed(buf, r.n);
  for (;;) {
    std::optional<Frame> frame;
    try {
      frame = c->parser.next();
    } catch (const ProtocolError& e) {
      // No recoverable frame boundary exists past this point: tell the peer
      // why (best effort) and drop the connection.
      util::json::Value err{util::json::Object{}};
      err.set("error", "Protocol");
      err.set("message", std::string(e.what()));
      send(id, FrameType::Error, util::json::serialize(err));
      close(id, /*flushFirst=*/true);
      return true;
    }
    if (!frame) return true;
    if (handlers_.onFrame) handlers_.onFrame(id, std::move(*frame));
    {
      // The handler may have initiated a close; stop parsing if so.
      util::LockGuard lock(mutex_);
      const auto it = conns_.find(id);
      if (it == conns_.end() || it->second->closing) return true;
    }
  }
}

bool Reactor::handleWritable(ConnId id) {
  std::string failure;
  bool closeNow = false;
  {
    util::LockGuard lock(mutex_);
    const auto it = conns_.find(id);
    if (it == conns_.end()) return true;
    Conn& c = *it->second;
    while (pendingOf(c) > 0) {
      IoResult r;
      try {
        r = writeSome(c.fd.get(), c.outbuf.data() + c.outPos, pendingOf(c));
      } catch (const ConnectionError& e) {
        failure = e.what();
        break;
      }
      if (r.status != IoStatus::Ok || r.n == 0) break;
      c.outPos += r.n;
    }
    if (failure.empty()) {
      if (pendingOf(c) == 0) {
        c.outbuf.clear();
        c.outPos = 0;
      } else if (c.outPos > 256 * 1024) {
        c.outbuf.erase(0, c.outPos);
        c.outPos = 0;
      }
      closeNow = c.closing && pendingOf(c) == 0;
    }
  }
  if (!failure.empty()) {
    destroyConn(id, failure);
    return false;
  }
  if (closeNow) {
    destroyConn(id, "closed after flush");
    return false;
  }
  return true;
}

void Reactor::run() {
  {
    util::LockGuard lock(mutex_);
    running_ = true;
  }
  std::vector<pollfd> fds;
  std::vector<ConnId> ids;  // ids[i] corresponds to fds[i + fixed]
  for (;;) {
    // Retire connections whose flush completed while we were busy.
    std::vector<ConnId> retire;
    {
      util::LockGuard lock(mutex_);
      if (stop_) break;
      for (const auto& [id, conn] : conns_) {
        if (conn->closing && pendingOf(*conn) == 0) retire.push_back(id);
      }
    }
    for (const ConnId id : retire) destroyConn(id, "closed");
    if (handlers_.onLoop) handlers_.onLoop();

    fds.clear();
    ids.clear();
    int listenIdx = -1;
    {
      util::LockGuard lock(mutex_);
      fds.push_back({wakeRead_.get(), POLLIN, 0});
      if (listenFd_.valid()) {
        listenIdx = static_cast<int>(fds.size());
        fds.push_back({listenFd_.get(), POLLIN, 0});
      }
      for (const auto& [id, conn] : conns_) {
        short events = 0;
        if (!conn->closing) events |= POLLIN;
        if (pendingOf(*conn) > 0) events |= POLLOUT;
        if (events == 0) continue;
        ids.push_back(id);
        fds.push_back({conn->fd.get(), events, 0});
      }
    }

    const int rc = ::poll(fds.data(), fds.size(), -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw adpm::Error(std::string("reactor poll(): ") +
                        std::strerror(errno));
    }

    if (fds[0].revents & POLLIN) {
      char drain[256];
      while (::read(wakeRead_.get(), drain, sizeof drain) > 0) {
      }
    }
    if (listenIdx >= 0 && (fds[listenIdx].revents & POLLIN)) handleAccept();

    const std::size_t fixed = fds.size() - ids.size();
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const short revents = fds[fixed + i].revents;
      if (revents == 0) continue;
      if (revents & POLLOUT) {
        if (!handleWritable(ids[i])) continue;
      }
      if (revents & (POLLIN | POLLERR | POLLHUP)) {
        handleReadable(ids[i]);
      }
    }
  }
  // Stopped: tear down every remaining connection.
  std::vector<ConnId> leftovers;
  {
    util::LockGuard lock(mutex_);
    for (const auto& [id, conn] : conns_) leftovers.push_back(id);
  }
  for (const ConnId id : leftovers) destroyConn(id, "reactor stopped");
  util::LockGuard lock(mutex_);
  running_ = false;
}

}  // namespace adpm::net
