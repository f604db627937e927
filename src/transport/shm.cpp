#include "transport/shm.hpp"

#include <poll.h>
#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <mutex>
#include <new>

#include "base/error.hpp"

namespace pia::transport {
namespace {

using Clock = std::chrono::steady_clock;

// A record is [u32 length][payload][pad to 4] and never wraps: when the
// slack before the wrap point is too small the producer burns it (with a
// wrap marker when there is room for one) and restarts at offset 0.  The
// consumer applies the same rule, so both sides agree on every boundary
// without any out-of-band bookkeeping.
constexpr std::uint32_t kWrapMarker = 0xFFFFFFFFu;
constexpr std::size_t kHeaderBytes = 4;

constexpr std::size_t align4(std::size_t n) { return (n + 3) & ~std::size_t{3}; }

/// Cursor block at the start of the mapped region.  Producer owns tail,
/// consumer owns head; cache-line padding keeps them from false-sharing.
struct Control {
  alignas(64) std::atomic<std::uint64_t> tail;
  alignas(64) std::atomic<std::uint64_t> head;
  alignas(64) std::atomic<std::uint32_t> closed;
};
static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "shm cursors must be lock-free to be shareable");

constexpr std::size_t kDataOffset = sizeof(Control);

/// One direction of the pair: the MAP_SHARED byte ring plus the in-process
/// spill/doorbell. Spill discipline matches the SPSC link: the flag flips in
/// the same critical section as the push, the producer bypasses the ring
/// while any spill is active, and the consumer drains ring-before-spill — so
/// FIFO order survives overflow.
struct ShmRing {
  explicit ShmRing(std::size_t ring_bytes) {
    cap = std::max<std::size_t>(64, std::bit_ceil(ring_bytes));
    const std::size_t total = kDataOffset + cap;
    void* base = ::mmap(nullptr, total, PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED)
      raise(ErrorKind::kTransport,
            std::string("shm ring mmap: ") + std::strerror(errno));
    map_base = base;
    map_len = total;
    ctl = new (base) Control{};
    data = static_cast<std::byte*>(base) + kDataOffset;
  }

  ~ShmRing() {
    ctl->~Control();
    ::munmap(map_base, map_len);
  }

  ShmRing(const ShmRing&) = delete;
  ShmRing& operator=(const ShmRing&) = delete;

  void* map_base = nullptr;
  std::size_t map_len = 0;
  Control* ctl = nullptr;
  std::byte* data = nullptr;
  std::size_t cap = 0;

  std::atomic<bool> spill_active{false};
  std::mutex spill_mutex;
  std::deque<Bytes> spill;

  /// Doorbell, elided on the hot path: the producer rings only when
  /// `doorbell_pending` was 0 (first publish since the consumer re-armed),
  /// so a streaming producer pays one eventfd syscall per drain cycle
  /// instead of one per frame.  Invariant: pending == 1 implies the pulse
  /// is still in the fd — the consumer drains and re-arms in that order —
  /// so an external poll on signal.fd() never misses data either.  Lost
  /// wakeups are ruled out by seq_cst fences on both sides (Dekker): the
  /// consumer re-arms then re-checks the ring, the producer publishes then
  /// checks the armed flag, and one of the two must observe the other.
  ReadySignal signal;
  std::atomic<std::uint32_t> doorbell_pending{0};
};

class ShmLink final : public Link {
 public:
  ShmLink(std::shared_ptr<ShmRing> out, std::shared_ptr<ShmRing> in)
      : out_(std::move(out)), in_(std::move(in)) {}

  ~ShmLink() override { close(); }

  void send(BytesView frame, std::uint32_t message_count = 1) override {
    if (out_->ctl->closed.load(std::memory_order_acquire))
      raise(ErrorKind::kTransport, "send on closed shm link");

    bool fast = false;
    if (!out_->spill_active.load(std::memory_order_acquire))
      fast = try_push_ring(frame);
    if (!fast) {
      // Ring full, frame larger than the ring, or older spilled frames
      // still pending: spill.  The flag must flip in the same critical
      // section as the push so the consumer can never observe "active"
      // with an empty queue or vice versa across its own locked drain.
      const std::lock_guard<std::mutex> lock(out_->spill_mutex);
      out_->spill.emplace_back(frame.begin(), frame.end());
      out_->spill_active.store(true, std::memory_order_release);
    }
    stats_.count_send(message_count, frame.size());
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (out_->doorbell_pending.exchange(1, std::memory_order_relaxed) == 0)
      out_->signal.notify();
  }

  std::optional<Bytes> try_recv() override {
    commit_pending_view();
    if (auto msg = pop()) return msg;
    // Looked empty: consume stale pulses so a pooled poll on our fd does
    // not spin, re-arm the doorbell, then re-check.  A push racing the
    // re-arm either sees the armed flag (and rings) or its cursor publish
    // is visible to this second pop — the seq_cst fences make one of the
    // two certain.  Either way no wakeup is lost.
    in_->signal.drain();
    rearm_doorbell();
    return pop();
  }

  std::optional<Bytes> recv_for(std::chrono::milliseconds timeout) override {
    const Clock::time_point deadline = Clock::now() + timeout;
    for (;;) {
      if (auto msg = try_recv()) return msg;
      if (in_->ctl->closed.load(std::memory_order_acquire)) return std::nullopt;
      pollfd pfd{.fd = in_->signal.fd(), .events = POLLIN, .revents = 0};
      if (poll_until({&pfd, 1}, deadline) == 0) return std::nullopt;
    }
  }

  bool supports_recv_view() const override { return true; }

  std::optional<BytesView> try_recv_view() override {
    commit_pending_view();
    if (auto view = peek()) return view;
    in_->signal.drain();
    rearm_doorbell();
    return peek();
  }

  void release_recv_view() override { commit_pending_view(); }

  void close() override {
    for (const auto& ring : {out_, in_}) {
      ring->ctl->closed.store(1, std::memory_order_release);
      ring->signal.notify();
    }
  }

  bool closed() const override {
    return out_->ctl->closed.load(std::memory_order_acquire) != 0;
  }

  LinkStats stats() const override { return stats_.snapshot(); }

  std::string describe() const override { return "shm"; }

  int readable_fd() const override { return in_->signal.fd(); }

 private:
  /// Producer side: append one record, never wrapping a frame.  Returns
  /// false when the ring lacks space (caller spills).
  bool try_push_ring(BytesView frame) {
    Control& c = *out_->ctl;
    const std::size_t cap = out_->cap;
    const std::size_t rec = kHeaderBytes + align4(frame.size());
    std::uint64_t tail = c.tail.load(std::memory_order_relaxed);
    const std::uint64_t head = c.head.load(std::memory_order_acquire);
    const std::size_t pos = tail & (cap - 1);
    const std::size_t slack = cap - pos;
    const std::size_t need = slack >= rec ? rec : slack + rec;
    if (cap - (tail - head) < need) return false;

    std::size_t at = pos;
    if (slack < rec) {
      // Burn the slack so the record stays contiguous; a marker tells the
      // consumer to skip (slack < 4 needs none — too small to even hold a
      // length, so the consumer skips it unconditionally).
      if (slack >= kHeaderBytes) {
        const std::uint32_t marker = kWrapMarker;
        std::memcpy(out_->data + pos, &marker, kHeaderBytes);
      }
      tail += slack;
      at = 0;
    }
    const std::uint32_t len = static_cast<std::uint32_t>(frame.size());
    std::memcpy(out_->data + at, &len, kHeaderBytes);
    if (!frame.empty())
      std::memcpy(out_->data + at + kHeaderBytes, frame.data(), frame.size());
    c.tail.store(tail + rec, std::memory_order_release);
    return true;
  }

  /// Consumer side: locate the next frame, committing skip-bytes (wrap
  /// markers, sub-header slack) immediately — they expose no data, and
  /// releasing them early can only help the producer.  Returns the frame's
  /// start offset and length, or nullopt when the ring is empty.
  struct RingFrame {
    std::size_t at;
    std::size_t len;
    std::uint64_t advance;  // head delta consuming this record
  };

  std::optional<RingFrame> next_ring_frame() {
    Control& c = *in_->ctl;
    const std::size_t cap = in_->cap;
    std::uint64_t head = c.head.load(std::memory_order_relaxed);
    for (;;) {
      const std::uint64_t tail = c.tail.load(std::memory_order_acquire);
      if (head == tail) return std::nullopt;
      const std::size_t pos = head & (cap - 1);
      const std::size_t slack = cap - pos;
      if (slack < kHeaderBytes) {
        head += slack;
        c.head.store(head, std::memory_order_release);
        continue;
      }
      std::uint32_t len = 0;
      std::memcpy(&len, in_->data + pos, kHeaderBytes);
      if (len == kWrapMarker) {
        head += slack;
        c.head.store(head, std::memory_order_release);
        continue;
      }
      return RingFrame{pos + kHeaderBytes, len, kHeaderBytes + align4(len)};
    }
  }

  std::optional<Bytes> pop() {
    // Ring first: while the spill is active the producer bypasses the ring,
    // so anything in the ring predates everything in the spill.
    if (auto f = next_ring_frame()) {
      Bytes msg(in_->data + f->at, in_->data + f->at + f->len);
      advance_head(f->advance);
      stats_.count_recv(msg.size());
      return msg;
    }
    if (in_->spill_active.load(std::memory_order_acquire)) {
      const std::lock_guard<std::mutex> lock(in_->spill_mutex);
      // Re-check the ring under the lock: the empty-ring read above may be
      // stale relative to the spill flag.  Holding the mutex orders us
      // after the producer's spill section, making its prior ring
      // publishes visible.
      if (auto f = next_ring_frame()) {
        Bytes msg(in_->data + f->at, in_->data + f->at + f->len);
        advance_head(f->advance);
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

  /// Borrow the next frame without consuming it.  Ring frames alias the
  /// mapped region directly; spilled frames alias the owning deque node
  /// (stable until popped — deque growth never moves existing elements).
  std::optional<BytesView> peek() {
    if (auto f = next_ring_frame()) {
      pending_advance_ = f->advance;
      stats_.count_recv(f->len);
      return BytesView{in_->data + f->at, f->len};
    }
    if (in_->spill_active.load(std::memory_order_acquire)) {
      const std::lock_guard<std::mutex> lock(in_->spill_mutex);
      if (auto f = next_ring_frame()) {
        pending_advance_ = f->advance;
        stats_.count_recv(f->len);
        return BytesView{in_->data + f->at, f->len};
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
    if (pending_advance_ != 0) {
      advance_head(pending_advance_);
      pending_advance_ = 0;
    }
    if (pending_spill_) {
      const std::lock_guard<std::mutex> lock(in_->spill_mutex);
      in_->spill.pop_front();
      if (in_->spill.empty())
        in_->spill_active.store(false, std::memory_order_release);
      pending_spill_ = false;
    }
  }

  void rearm_doorbell() {
    in_->doorbell_pending.store(0, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }

  void advance_head(std::uint64_t delta) {
    Control& c = *in_->ctl;
    c.head.store(c.head.load(std::memory_order_relaxed) + delta,
                 std::memory_order_release);
  }

  std::shared_ptr<ShmRing> out_;
  std::shared_ptr<ShmRing> in_;
  // Deferred consumption for the borrowed-view path; touched only by the
  // consumer thread (the Link SPSC contract).
  std::uint64_t pending_advance_ = 0;
  bool pending_spill_ = false;
  AtomicLinkStats stats_;
};

}  // namespace

LinkPair make_shm_pair(std::size_t ring_bytes) {
  auto forward = std::make_shared<ShmRing>(ring_bytes);
  auto backward = std::make_shared<ShmRing>(ring_bytes);
  return LinkPair{
      .a = std::make_unique<ShmLink>(forward, backward),
      .b = std::make_unique<ShmLink>(backward, forward),
  };
}

LinkPair make_shm_pair() { return make_shm_pair(kShmDefaultRingBytes); }

}  // namespace pia::transport
