#include "transport/spsc.hpp"

#include <poll.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <mutex>
#include <vector>

#include "base/error.hpp"

namespace pia::transport {
namespace {

using Clock = std::chrono::steady_clock;

// Ring capacity per direction.  Sized so that ordinary batched traffic
// (one frame per loop slice per channel) never overflows; the spill queue
// exists for correctness under bursts, not as a working regime.
constexpr std::size_t kRingCapacity = 256;
static_assert((kRingCapacity & (kRingCapacity - 1)) == 0,
              "ring indexing relies on a power-of-two capacity");

/// One direction of the pair.  The producer thread touches tail_ and the
/// spill queue; the consumer thread touches head_ and the spill queue; the
/// cache-line padding keeps their counters from false-sharing.
struct Ring {
  std::vector<Bytes> slots{kRingCapacity};

  alignas(64) std::atomic<std::size_t> tail{0};  // producer's next slot
  alignas(64) std::atomic<std::size_t> head{0};  // consumer's next slot
  alignas(64) std::atomic<bool> closed{false};

  /// True while spilled messages exist.  Set by the producer (under the
  /// mutex, together with the push), cleared by the consumer (under the
  /// mutex, only once the spill is empty) — so a producer reading `false`
  /// knows every older message has already been consumed and the ring may
  /// be used again without reordering.
  std::atomic<bool> spill_active{false};
  std::mutex spill_mutex;
  std::deque<Bytes> spill;

  /// Pulsed once per push and on close; the consumer polls signal.fd().
  ReadySignal signal;
};

class SpscLink final : public Link {
 public:
  SpscLink(std::shared_ptr<Ring> out, std::shared_ptr<Ring> in)
      : out_(std::move(out)), in_(std::move(in)) {}

  ~SpscLink() override { close(); }

  void send(BytesView frame, std::uint32_t message_count = 1) override {
    if (out_->closed.load(std::memory_order_acquire))
      raise(ErrorKind::kTransport, "send on closed spsc link");
    Bytes msg(frame.begin(), frame.end());

    bool fast = false;
    if (!out_->spill_active.load(std::memory_order_acquire)) {
      const std::size_t tail = out_->tail.load(std::memory_order_relaxed);
      const std::size_t head = out_->head.load(std::memory_order_acquire);
      if (tail - head < kRingCapacity) {
        out_->slots[tail & (kRingCapacity - 1)] = std::move(msg);
        out_->tail.store(tail + 1, std::memory_order_release);
        fast = true;
      }
    }
    if (!fast) {
      // Ring full (or older spilled messages still pending): spill.  The
      // flag must flip in the same critical section as the push so the
      // consumer can never observe "active" with an empty queue or vice
      // versa across its own locked drain.
      const std::lock_guard<std::mutex> lock(out_->spill_mutex);
      out_->spill.push_back(std::move(msg));
      out_->spill_active.store(true, std::memory_order_release);
    }
    stats_.count_send(message_count, frame.size());
    out_->signal.notify();
  }

  std::optional<Bytes> try_recv() override {
    commit_pending_view();
    if (auto msg = pop()) return msg;
    // Looked empty: consume stale pulses so a pooled poll on our fd does
    // not spin, then re-check.  A push racing the drain is caught by the
    // second pop (the pipe write follows the slot publish, so a consumed
    // pulse implies a visible message); a push after the drain leaves its
    // own pulse in the pipe.  Either way no wakeup is lost.
    in_->signal.drain();
    return pop();
  }

  std::optional<Bytes> recv_for(std::chrono::milliseconds timeout) override {
    const Clock::time_point deadline = Clock::now() + timeout;
    for (;;) {
      if (auto msg = try_recv()) return msg;
      if (in_->closed.load(std::memory_order_acquire)) return std::nullopt;
      pollfd pfd{.fd = in_->signal.fd(), .events = POLLIN, .revents = 0};
      if (poll_until({&pfd, 1}, deadline) == 0) return std::nullopt;
    }
  }

  bool supports_recv_view() const override { return true; }

  std::optional<BytesView> try_recv_view() override {
    commit_pending_view();
    if (auto view = peek()) return view;
    in_->signal.drain();
    return peek();
  }

  void release_recv_view() override { commit_pending_view(); }

  void close() override {
    for (const auto& ring : {out_, in_}) {
      ring->closed.store(true, std::memory_order_release);
      ring->signal.notify();
    }
  }

  bool closed() const override {
    return out_->closed.load(std::memory_order_acquire);
  }

  LinkStats stats() const override { return stats_.snapshot(); }

  std::string describe() const override { return "spsc"; }

  int readable_fd() const override { return in_->signal.fd(); }

 private:
  std::optional<Bytes> pop() {
    // Ring first: while the spill is active the producer bypasses the ring,
    // so anything in the ring predates everything in the spill.
    const std::size_t head = in_->head.load(std::memory_order_relaxed);
    const std::size_t tail = in_->tail.load(std::memory_order_acquire);
    if (head != tail) {
      Bytes msg = std::move(in_->slots[head & (kRingCapacity - 1)]);
      in_->head.store(head + 1, std::memory_order_release);
      stats_.count_recv(msg.size());
      return msg;
    }
    if (in_->spill_active.load(std::memory_order_acquire)) {
      const std::lock_guard<std::mutex> lock(in_->spill_mutex);
      // Re-check the ring under the lock: the empty-ring read above may be
      // stale relative to the spill flag (ring pushes that preceded the
      // spill could be invisible to the earlier unlocked load).  Holding
      // the mutex orders us after the producer's spill section, making its
      // prior ring publishes visible.
      const std::size_t h = in_->head.load(std::memory_order_relaxed);
      const std::size_t t = in_->tail.load(std::memory_order_acquire);
      if (h != t) {
        Bytes msg = std::move(in_->slots[h & (kRingCapacity - 1)]);
        in_->head.store(h + 1, std::memory_order_release);
        stats_.count_recv(msg.size());
        return msg;
      }
      if (!in_->spill.empty()) {
        Bytes msg = std::move(in_->spill.front());
        in_->spill.pop_front();
        if (in_->spill.empty())
          in_->spill_active.store(false, std::memory_order_release);
        stats_.count_recv(msg.size());
        return msg;
      }
      in_->spill_active.store(false, std::memory_order_release);
    }
    return std::nullopt;
  }

  /// Borrow the next frame without consuming it: a ring frame aliases its
  /// slot (the producer cannot reuse the slot until head advances at
  /// commit), a spilled frame aliases the deque front (stable until popped
  /// — deque growth never moves existing elements).
  std::optional<BytesView> peek() {
    const std::size_t head = in_->head.load(std::memory_order_relaxed);
    const std::size_t tail = in_->tail.load(std::memory_order_acquire);
    if (head != tail) {
      const Bytes& msg = in_->slots[head & (kRingCapacity - 1)];
      pending_ring_ = true;
      stats_.count_recv(msg.size());
      return BytesView{msg};
    }
    if (in_->spill_active.load(std::memory_order_acquire)) {
      const std::lock_guard<std::mutex> lock(in_->spill_mutex);
      const std::size_t h = in_->head.load(std::memory_order_relaxed);
      const std::size_t t = in_->tail.load(std::memory_order_acquire);
      if (h != t) {
        const Bytes& msg = in_->slots[h & (kRingCapacity - 1)];
        pending_ring_ = true;
        stats_.count_recv(msg.size());
        return BytesView{msg};
      }
      if (!in_->spill.empty()) {
        pending_spill_ = true;
        stats_.count_recv(in_->spill.front().size());
        return BytesView{in_->spill.front()};
      }
      in_->spill_active.store(false, std::memory_order_release);
    }
    return std::nullopt;
  }

  void commit_pending_view() {
    if (pending_ring_) {
      const std::size_t head = in_->head.load(std::memory_order_relaxed);
      in_->head.store(head + 1, std::memory_order_release);
      pending_ring_ = false;
    }
    if (pending_spill_) {
      const std::lock_guard<std::mutex> lock(in_->spill_mutex);
      in_->spill.pop_front();
      if (in_->spill.empty())
        in_->spill_active.store(false, std::memory_order_release);
      pending_spill_ = false;
    }
  }

  std::shared_ptr<Ring> out_;
  std::shared_ptr<Ring> in_;
  // Deferred consumption for the borrowed-view path; touched only by the
  // consumer thread (the Link SPSC contract).
  bool pending_ring_ = false;
  bool pending_spill_ = false;
  AtomicLinkStats stats_;
};

}  // namespace

LinkPair make_spsc_pair() {
  auto forward = std::make_shared<Ring>();
  auto backward = std::make_shared<Ring>();
  return LinkPair{
      .a = std::make_unique<SpscLink>(forward, backward),
      .b = std::make_unique<SpscLink>(backward, forward),
  };
}

}  // namespace pia::transport
