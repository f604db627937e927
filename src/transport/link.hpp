// Link: the FIFO duplex message pipe connecting two Pia nodes.
//
// All inter-subsystem traffic — timestamped events, safe-time requests,
// Chandy–Lamport marks, runlevel switches — flows over Links.  The
// Chandy–Lamport snapshot algorithm (paper §2.2.5) requires FIFO channels;
// every Link implementation guarantees order-preserving, loss-free delivery.
//
// Two implementations exist: an in-process loopback pair (every channel
// whose endpoints share a process, and deterministic tests) and a TCP socket
// link (the "geographically distributed" case; exercised over localhost
// here).  One decorator, FaultLink (transport/fault.hpp), injects wide-area
// latency and wire faults into either.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/bytes.hpp"
#include "transport/ready.hpp"

namespace pia::transport {

struct LinkStats {
  /// Logical message counts.  The sender declares how many protocol
  /// messages a frame carries (batching), so messages_sent is exact; the
  /// receive side cannot know a frame's message count without decoding the
  /// payload, so messages_received counts frames — the decoded per-message
  /// counters live in dist::ChannelEndpoint.
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  /// Link-level transmissions: one frame may carry a whole batch.  The
  /// messages_sent / frames_sent ratio is the batching efficiency.
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;

  // Fault-injection counters; zero unless the link is a FaultLink
  // (see transport/fault.hpp).
  std::uint64_t faults_delayed = 0;        // frames given extra jitter
  std::uint64_t faults_duplicated = 0;     // frames transmitted twice
  std::uint64_t faults_dropped = 0;        // first transmissions lost+retried
  std::uint64_t faults_dup_discarded = 0;  // duplicate frames discarded
  std::uint64_t faults_partition_held = 0; // frames held by a partition
  std::uint64_t faults_abrupt_closes = 0;  // injected peer-crash closes
};

/// The link implementations' internal counter block.  A link endpoint is
/// legitimately shared between a sending and a receiving thread (and
/// stats() may be read by a third, e.g. a metrics collector), so the
/// counters are lock-free atomics: each path bumps its own counters with
/// relaxed ordering — they are independent monotone tallies, not a
/// consistency group — and stats() returns a plain LinkStats snapshot.
struct AtomicLinkStats {
  std::atomic<std::uint64_t> messages_sent{0};
  std::atomic<std::uint64_t> messages_received{0};
  std::atomic<std::uint64_t> frames_sent{0};
  std::atomic<std::uint64_t> frames_received{0};
  std::atomic<std::uint64_t> bytes_sent{0};
  std::atomic<std::uint64_t> bytes_received{0};
  std::atomic<std::uint64_t> faults_delayed{0};
  std::atomic<std::uint64_t> faults_duplicated{0};
  std::atomic<std::uint64_t> faults_dropped{0};
  std::atomic<std::uint64_t> faults_dup_discarded{0};
  std::atomic<std::uint64_t> faults_partition_held{0};
  std::atomic<std::uint64_t> faults_abrupt_closes{0};

  /// One frame out: `messages` protocol messages in `bytes` payload bytes.
  void count_send(std::uint32_t messages, std::size_t bytes) {
    messages_sent.fetch_add(messages, std::memory_order_relaxed);
    frames_sent.fetch_add(1, std::memory_order_relaxed);
    bytes_sent.fetch_add(bytes, std::memory_order_relaxed);
  }
  /// One frame in, `bytes` payload bytes.
  void count_recv(std::size_t bytes) {
    messages_received.fetch_add(1, std::memory_order_relaxed);
    frames_received.fetch_add(1, std::memory_order_relaxed);
    bytes_received.fetch_add(bytes, std::memory_order_relaxed);
  }

  [[nodiscard]] LinkStats snapshot() const {
    LinkStats s;
    s.messages_sent = messages_sent.load(std::memory_order_relaxed);
    s.messages_received = messages_received.load(std::memory_order_relaxed);
    s.frames_sent = frames_sent.load(std::memory_order_relaxed);
    s.frames_received = frames_received.load(std::memory_order_relaxed);
    s.bytes_sent = bytes_sent.load(std::memory_order_relaxed);
    s.bytes_received = bytes_received.load(std::memory_order_relaxed);
    s.faults_delayed = faults_delayed.load(std::memory_order_relaxed);
    s.faults_duplicated = faults_duplicated.load(std::memory_order_relaxed);
    s.faults_dropped = faults_dropped.load(std::memory_order_relaxed);
    s.faults_dup_discarded =
        faults_dup_discarded.load(std::memory_order_relaxed);
    s.faults_partition_held =
        faults_partition_held.load(std::memory_order_relaxed);
    s.faults_abrupt_closes =
        faults_abrupt_closes.load(std::memory_order_relaxed);
    return s;
  }
};

class Link {
 public:
  virtual ~Link() = default;

  /// Enqueue one frame carrying `message_count` protocol messages (1 for
  /// unbatched traffic).  Never blocks on the peer; throws
  /// Error{kTransport} if the link is closed.
  virtual void send(BytesView frame, std::uint32_t message_count = 1) = 0;

  /// Dequeue the next message if one is ready, without blocking.
  virtual std::optional<Bytes> try_recv() = 0;

  // --- Borrowed-frame receive (zero-copy hot path) ---
  //
  // Links whose inbound frames already live in stable memory (the loopback
  // queue's front slot) can hand the receiver a VIEW of the next frame
  // instead of a heap copy.  The view aliases link-owned storage and stays
  // valid only until release_recv_view() or any subsequent recv call on
  // this endpoint; the receiver must finish decoding (copying payloads out,
  // e.g. via Value::load) before releasing.  Exactly one view may be
  // outstanding.
  // The defaults keep new implementations correct: no view support, and the
  // caller falls back to the owning try_recv().

  /// True when try_recv_view() may return frames.
  [[nodiscard]] virtual bool supports_recv_view() const { return false; }

  /// Borrow a view of the next frame without copying or consuming it.
  /// Returns nullopt when no frame is ready (or views are unsupported).
  virtual std::optional<BytesView> try_recv_view() { return std::nullopt; }

  /// Consume the frame most recently borrowed via try_recv_view(),
  /// invalidating the view.
  virtual void release_recv_view() {}

  /// Dequeue the next message, waiting up to `timeout`.
  virtual std::optional<Bytes> recv_for(std::chrono::milliseconds timeout) = 0;

  /// Close this endpoint; the peer's recv calls will start returning
  /// nullopt once drained, and its send calls will throw.
  virtual void close() = 0;

  [[nodiscard]] virtual bool closed() const = 0;
  [[nodiscard]] virtual LinkStats stats() const = 0;
  [[nodiscard]] virtual std::string describe() const = 0;

  // --- Readiness plumbing for multi-channel waits (dist::ChannelSet) ---
  //
  // A link participates in a unified wait through exactly one of two
  // mechanisms.  Queue-backed links (loopback) accept a shared ReadySignal
  // and pulse it whenever a frame becomes receivable or the link closes.
  // Kernel-fd-backed links (TCP) instead expose their fds so the waiter can
  // poll them directly.  Decorators forward these calls to the wrapped
  // link.  The defaults — no signal, no fd, no buffered release — make new
  // Link implementations safe by construction: the waiter simply falls
  // back to its poll timeout for them.  A receiver that inspects only the
  // links that notified (dist::ChannelSet's drain) tells the two kinds
  // apart by whether the link kept the signal it was given; one that drops
  // it, as the default does, is inspected on every pass.

  /// Attach the waiter's signal.  Replaces any previous signal.  A link
  /// that keeps it must notify it on every frame that turns receivable
  /// and on close.
  virtual void set_ready_signal(ReadySignalPtr /*signal*/) {}

  /// Kernel fd that turns readable when traffic (or close) arrives, or -1
  /// when readiness is reported via the ReadySignal instead.  A link over
  /// one socket overrides this; the waiter reads it through poll_fds().
  [[nodiscard]] virtual int readable_fd() const { return -1; }

  /// Appends a POLLIN entry for every kernel fd that turns readable when
  /// traffic (or close) arrives: readable_fd() by default, every live
  /// member's fds for a link over several sockets (a replica group).
  virtual void poll_fds(std::vector<pollfd>& fds) const {
    if (const int fd = readable_fd(); fd >= 0)
      fds.push_back(pollfd{.fd = fd, .events = POLLIN, .revents = 0});
  }

  /// Earliest instant a frame already buffered *inside* this link becomes
  /// receivable (the fault decorator holding a stamped frame for
  /// future release).  Such frames raise neither fd nor signal when they
  /// mature, so the waiter clamps its timeout to this.  nullopt when no
  /// buffered frame is pending.
  [[nodiscard]] virtual std::optional<std::chrono::steady_clock::time_point>
  next_ready_time() const {
    return std::nullopt;
  }
};

using LinkPtr = std::unique_ptr<Link>;

/// A connected pair of in-process endpoints.
struct LinkPair {
  LinkPtr a;
  LinkPtr b;
};

/// Creates a FIFO loopback pipe pair.
LinkPair make_loopback_pair();

}  // namespace pia::transport
