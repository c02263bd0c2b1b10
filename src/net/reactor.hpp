// Non-blocking accept/read/write loop over poll(2).
//
// One Reactor owns one listening socket and all of its accepted
// connections.  run() turns the calling thread into the reactor thread:
// every socket is non-blocking, poll() multiplexes readiness, incoming
// bytes are fed through a FrameParser per connection, and complete frames
// are handed to the onFrame handler *on the reactor thread*.  Outbound
// frames go through send(), which is thread-safe — session strands call it
// from pool threads; the bytes are queued on the connection's write buffer
// and the reactor is woken through a self-pipe to flush them.
//
// Backpressure is explicit: queuedBytes(conn) reports the unflushed
// outbound bytes, and the onLoop handler runs once per loop iteration on
// the reactor thread.  The server drains its subscription queues there,
// sending only while a connection is below `writeHighWater` — so a slow
// reader leaves its bus queues undrained, which trips the
// NotificationBus's degraded mode (service/bus.hpp).  A slow consumer
// therefore costs one coalesced ResyncRequired marker, never unbounded
// server memory and never a parked session strand.
//
// A protocol error (malformed frame) closes the connection after an
// optional farewell frame: a corrupt byte stream has no recoverable frame
// boundary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "util/thread_annotations.hpp"

namespace adpm::net {

class Reactor {
 public:
  using ConnId = std::uint64_t;

  struct Options {
    /// Outbound bytes above which senders should pause (see queuedBytes).
    std::size_t writeHighWater = 1u << 20;
  };

  struct Handlers {
    /// A connection was accepted (reactor thread).
    std::function<void(ConnId)> onAccept;
    /// One complete frame arrived (reactor thread).
    std::function<void(ConnId, Frame&&)> onFrame;
    /// The connection is gone — peer closed, hard error, protocol error, or
    /// explicit close() (reactor thread; the conn id is already invalid).
    std::function<void(ConnId, const std::string& reason)> onClose;
    /// Once per loop iteration, before poll() (reactor thread).  Frames it
    /// sends are flushed in the same iteration.
    std::function<void()> onLoop;
  };

  Reactor(Options options, Handlers handlers);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Binds and listens; returns the bound port (useful with port 0).
  std::uint16_t listen(const std::string& host, std::uint16_t port);

  /// Stops accepting new connections (existing ones live on).  Thread-safe.
  void stopListening();

  /// Runs the event loop on the calling thread until stop().
  void run();

  /// Wakes and terminates run().  Thread-safe, idempotent.
  void stop();

  /// Queues one frame on the connection.  Thread-safe.  Returns false when
  /// the connection is unknown or already closing (the frame is dropped —
  /// the peer is gone, there is nobody to backpressure).
  bool send(ConnId conn, FrameType type, std::string_view payload);

  /// Unflushed outbound bytes (0 for unknown connections).  Thread-safe.
  std::size_t queuedBytes(ConnId conn) const;

  /// Closes a connection, flushing already-queued frames first when
  /// `flushFirst` (no further reads either way).  Thread-safe.
  void close(ConnId conn, bool flushFirst);

  std::size_t connectionCount() const;

  /// Makes run() start another loop iteration.  Thread-safe.
  void wakeup();

 private:
  struct Conn {
    ScopedFd fd;
    FrameParser parser;
    std::string outbuf;        // unsent bytes (suffix of queued frames)
    std::size_t outPos = 0;    // consumed prefix of outbuf
    bool closing = false;      // no reads; flush then close
  };

  void handleAccept();
  /// Returns false when the connection died (and was erased).
  bool handleReadable(ConnId id);
  bool handleWritable(ConnId id);
  void destroyConn(ConnId id, const std::string& reason);
  std::size_t pendingOf(const Conn& c) const {
    return c.outbuf.size() - c.outPos;
  }

  Options options_;
  Handlers handlers_;

  mutable util::Mutex mutex_;
  ScopedFd listenFd_ ADPM_GUARDED_BY(mutex_);
  /// Self-pipe ends; written once in the constructor, read-only after.
  ScopedFd wakeRead_, wakeWrite_;
  /// The map is guarded; a Conn's *fields* (parser, outbuf, ...) are owned
  /// by the reactor thread once accepted — pointers that escape the lock
  /// are only dereferenced on that thread (see handleReadable).
  std::map<ConnId, std::unique_ptr<Conn>> conns_ ADPM_GUARDED_BY(mutex_);
  ConnId nextId_ ADPM_GUARDED_BY(mutex_) = 1;
  bool stop_ ADPM_GUARDED_BY(mutex_) = false;
  bool running_ ADPM_GUARDED_BY(mutex_) = false;
};

}  // namespace adpm::net
