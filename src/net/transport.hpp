// The dooc::net Transport abstraction: framed message passing between
// cluster peers, with two backends behind one contract: a byte-oriented
// socket wire and an in-process deep-copy mailbox.
//
// Contract (both backends):
//  * A payload handed to send() is never aliased by the receiver — the
//    socket backend serializes it onto the wire, the in-process backend
//    deep-copies it.
//  * send() applies backpressure: when a peer's outbound queue is over
//    budget the call blocks until the queue drains, the peer dies, or the
//    configured timeout expires (TransportError).
//  * Peer lifecycle is part of the event stream: recv() yields PeerUp
//    after a successful handshake and PeerDown when a connection drops,
//    including mid-frame (the event carries the reason).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "net/wire.hpp"

namespace dooc::net {

/// The transport could not deliver: send timeout with a full peer queue,
/// handshake failure, or use after close(). Peer death is *not* an
/// exception — it arrives as a PeerDown event.
class TransportError : public Error {
 public:
  explicit TransportError(const std::string& what) : Error(what) {}
};

/// What recv() yields: a frame from a peer, or a peer lifecycle edge.
struct RecvEvent {
  enum class Kind : std::uint8_t { Frame, PeerUp, PeerDown };
  Kind kind = Kind::Frame;
  NodeId peer = 0;           ///< frame source / peer that came up or down
  std::uint64_t peer_pid = 0;///< PeerUp: the peer's os pid (0 if unknown)
  Channel channel = Channel::Hello;
  std::uint64_t tag = 0;
  DataBuffer payload;
  std::string error;  ///< PeerDown: why (clean close, reset, mid-frame...)
};

/// Cumulative per-transport traffic counters (frames exclude handshakes).
struct TransportCounters {
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_sent = 0;  ///< payload bytes
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_received = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  [[nodiscard]] virtual NodeId self() const noexcept = 0;

  /// Queue a frame for `to`. Returns false when the peer is unknown or
  /// down; throws TransportError when the peer's outbound budget stays
  /// exhausted past the send timeout.
  virtual bool send(NodeId to, Channel channel, std::uint64_t tag, DataBuffer payload) = 0;

  /// Next event, blocking up to `timeout_ms` (<0 = wait forever). Returns
  /// false on timeout or after close() drained the queue.
  virtual bool recv(RecvEvent& out, int timeout_ms) = 0;

  /// Peers that completed the handshake and are not (yet) down.
  [[nodiscard]] virtual std::vector<NodeId> peers() const = 0;
  [[nodiscard]] virtual bool peer_up(NodeId id) const = 0;

  [[nodiscard]] virtual TransportCounters counters() const = 0;

  /// Stop delivering, close connections/sockets. Idempotent.
  virtual void close() = 0;
};

}  // namespace dooc::net
