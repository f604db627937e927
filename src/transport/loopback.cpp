#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>

#include "base/error.hpp"
#include "transport/link.hpp"

namespace pia::transport {
namespace {

/// One direction of the pipe: a bounded-unbounded FIFO of messages.
struct Pipe {
  std::mutex mutex;
  std::condition_variable ready;
  std::deque<Bytes> queue;
  /// `size` mirrors queue.size(); it and `closed` are stored under the
  /// mutex but atomic, so that an empty poll and closed() need no lock.  A
  /// reader that sees `size` 0 has nothing to take; a frame pushed after
  /// that load notifies `signal` after the store, so the reader learns of
  /// it on its next take() or wait.
  std::atomic<std::size_t> size{0};
  std::atomic<bool> closed{false};
  /// Readiness signal of whoever reads this direction; notified (outside
  /// the lock) by the writing side on every push and on close.
  ReadySignalPtr signal;
};

class LoopbackLink final : public Link {
 public:
  LoopbackLink(std::shared_ptr<Pipe> out, std::shared_ptr<Pipe> in)
      : out_(std::move(out)), in_(std::move(in)) {}

  ~LoopbackLink() override { close(); }

  void send(BytesView frame, std::uint32_t message_count = 1) override {
    ReadySignalPtr signal;
    {
      const std::lock_guard<std::mutex> lock(out_->mutex);
      if (out_->closed)
        raise(ErrorKind::kTransport, "send on closed loopback link");
      out_->queue.emplace_back(frame.begin(), frame.end());
      out_->size.store(out_->queue.size(), std::memory_order_release);
      signal = out_->signal;
    }
    // Outside the pipe lock: stats_ is this endpoint's own atomic block.
    stats_.count_send(message_count, frame.size());
    out_->ready.notify_one();
    if (signal) signal->notify();
  }

  std::optional<Bytes> try_recv() override {
    if (nothing_queued()) return std::nullopt;
    const std::lock_guard<std::mutex> lock(in_->mutex);
    commit_pending_locked();
    return pop_locked();
  }

  std::optional<Bytes> recv_for(std::chrono::milliseconds timeout) override {
    std::unique_lock<std::mutex> lock(in_->mutex);
    commit_pending_locked();
    in_->ready.wait_for(lock, timeout,
                        [&] { return !in_->queue.empty() || in_->closed; });
    return pop_locked();
  }

  bool supports_recv_view() const override { return true; }

  /// Borrow a view of the queue front.  Senders only push_back (which never
  /// moves existing deque elements) and nothing else pops until the view is
  /// released, so the front element — and the view aliasing it — stays put
  /// even once the lock drops.
  std::optional<BytesView> try_recv_view() override {
    if (nothing_queued()) return std::nullopt;
    const std::lock_guard<std::mutex> lock(in_->mutex);
    commit_pending_locked();
    if (in_->queue.empty()) return std::nullopt;
    pending_view_ = true;
    stats_.count_recv(in_->queue.front().size());
    return BytesView{in_->queue.front()};
  }

  void release_recv_view() override {
    const std::lock_guard<std::mutex> lock(in_->mutex);
    commit_pending_locked();
  }

  void close() override {
    // Close both directions before notifying either: the peer's closed()
    // reads the direction it sends on, so a peer woken by the first notify
    // must already find it closed (its waiter inspects only notified links
    // and is not woken again).
    ReadySignalPtr signals[2];
    int k = 0;
    for (auto& pipe : {out_, in_}) {
      const std::lock_guard<std::mutex> lock(pipe->mutex);
      pipe->closed.store(true, std::memory_order_release);
      signals[k++] = pipe->signal;
    }
    for (auto& pipe : {out_, in_}) pipe->ready.notify_all();
    for (const ReadySignalPtr& signal : signals)
      if (signal) signal->notify();
  }

  void set_ready_signal(ReadySignalPtr signal) override {
    const std::lock_guard<std::mutex> lock(in_->mutex);
    in_->signal = std::move(signal);
  }

  bool closed() const override {
    return out_->closed.load(std::memory_order_acquire);
  }

  LinkStats stats() const override { return stats_.snapshot(); }

  std::string describe() const override { return "loopback"; }

 private:
  /// Lock-free empty check.  A pending view's slot is still queued, so it
  /// never reads as empty here: the commit happens under the lock.
  [[nodiscard]] bool nothing_queued() const {
    return in_->size.load(std::memory_order_acquire) == 0;
  }

  std::optional<Bytes> pop_locked() {
    if (in_->queue.empty()) return std::nullopt;
    Bytes msg = std::move(in_->queue.front());
    pop_front_locked();
    stats_.count_recv(msg.size());
    return msg;
  }

  void commit_pending_locked() {
    if (!pending_view_) return;
    pop_front_locked();
    pending_view_ = false;
  }

  void pop_front_locked() {
    in_->queue.pop_front();
    in_->size.store(in_->queue.size(), std::memory_order_release);
  }

  std::shared_ptr<Pipe> out_;
  std::shared_ptr<Pipe> in_;
  // Deferred consumption for the borrowed-view path; guarded by in_->mutex.
  bool pending_view_ = false;
  // Send path and recv path run under *different* pipe mutexes (out_ / in_)
  // and stats() takes no lock at all, so the counters must not rely on
  // either mutex: AtomicLinkStats makes every access lock-free.
  AtomicLinkStats stats_;
};

}  // namespace

LinkPair make_loopback_pair() {
  auto forward = std::make_shared<Pipe>();
  auto backward = std::make_shared<Pipe>();
  return LinkPair{
      .a = std::make_unique<LoopbackLink>(forward, backward),
      .b = std::make_unique<LoopbackLink>(backward, forward),
  };
}

}  // namespace pia::transport
