// ChannelSet: a subsystem's channel table plus the unified idle wait.
//
// Owning the endpoints in one object lets the subsystem idle on *all* of
// them at once: every link shares one ReadySignal (in-process queues notify
// it) and contributes its kernel fds (sockets), so wait_any() is a single
// transport::poll_until whose wake latency is independent of the channel
// count, and whose sleep ends a few µs after a decorator's release stamp
// (see poll_until) rather than at the next whole millisecond.
//
// The wait is split so a pool worker can sleep on the channel sets of many
// subsystems through ONE doorbell: prepare_wait() routes this set's signal
// to the caller's doorbell (wait_any uses the signal's own), reports a
// pending pulse, and appends the set's kernel fds.  See transport/ready.hpp
// for the routing order that keeps every wake.
//
// The same facts let a scheduler skip a subsystem that cannot move.  After
// a slice that made no progress, nothing new can reach the subsystem
// except (a) a frame or close on an in-process link, which notifies the
// signal (take_signal() sees it without a syscall), (b) a decorator-held
// frame maturing, whose instant next_release() reports, and (c) the
// subsystem's own timers, which its idle hint bounds.  A kernel-fd link
// breaks (a): a socket never notifies the signal, and learning that it
// turned readable costs a poll.  can_park() is false for a set holding one,
// so the pooled executor slices such a subsystem every pass.  Parking it
// would hold every TCP frame until the idle hint (10 ms) expired.
//
// The same split keeps a drain pass from touching quiet channels.  Each
// link gets a member of the set's signal, so a notify also marks which
// channel it came from, and for_each_ready() visits only the marked
// channels plus the ones that cannot mark: kernel-fd links, and links that
// keep no signal at all.  A decorator-held frame matures without a notify,
// so a visit that leaves one behind marks its channel again.
//
// Flushing likewise follows the traffic.  FlushHold holds the whole set
// through one FlushGroup, so opening it costs O(1), and its release flushes
// only the endpoints that batched something.  The release defers its
// doorbell rings (transport::DeferredRings): each destination waiter is
// rung once per release, not once per channel flushed to it.
#pragma once

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <vector>

#include "dist/channel.hpp"
#include "transport/ready.hpp"

namespace pia::dist {

class ChannelSet {
 public:
  ChannelSet();

  ChannelSet(const ChannelSet&) = delete;
  ChannelSet& operator=(const ChannelSet&) = delete;

  /// Appends an endpoint and attaches the shared readiness signal to its
  /// link.  The endpoint's position is its ChannelId value.
  void add(std::unique_ptr<ChannelEndpoint> endpoint);

  [[nodiscard]] ChannelEndpoint& at(ChannelId id);
  [[nodiscard]] ChannelEndpoint& operator[](std::size_t i) {
    return *channels_[i];
  }
  [[nodiscard]] const ChannelEndpoint& operator[](std::size_t i) const {
    return *channels_[i];
  }
  [[nodiscard]] std::size_t size() const { return channels_.size(); }
  [[nodiscard]] bool empty() const { return channels_.empty(); }

  // Iteration yields the owning pointers so existing `c->field` loops keep
  // reading naturally.
  [[nodiscard]] auto begin() { return channels_.begin(); }
  [[nodiscard]] auto end() { return channels_.end(); }
  [[nodiscard]] auto begin() const { return channels_.begin(); }
  [[nodiscard]] auto end() const { return channels_.end(); }

  /// Swaps in a fresh link on one channel and re-attaches the shared
  /// readiness signal to it.
  void replace_link(ChannelId id, transport::LinkPtr link);

  /// Consumes the shared signal's pending mark (no syscall).  True means a
  /// link received a frame or closed since the last take: inspect the
  /// channels.  Take before inspecting, never after.
  bool take_signal() { return signal_->take(); }

  /// Calls fn(i) for every channel a drain pass must inspect, in index
  /// order: those whose link notified since the last pass, and those whose
  /// link cannot notify (a kernel fd, or no signal kept).  A channel whose
  /// link still holds a decorator-held frame after fn(i) is marked for the
  /// next pass.  fn must not start another pass.
  template <typename Fn>
  void for_each_ready(Fn&& fn);

  /// Holds every endpoint's batch until the matching release; nests.
  void hold_flush() { flush_.hold(); }
  /// Ends a hold; the outermost release flushes the endpoints that batched
  /// something and rings each destination doorbell once.
  void release_flush();

  /// True when every link reports input through the shared signal, i.e.
  /// no link appends a poll entry (cached by add and replace_link).
  /// Only then may a scheduler skip the subsystem until take_signal(),
  /// next_release() or its idle hint says it may move.
  [[nodiscard]] bool can_park() const { return !kernel_fd_; }

  /// Earliest instant a decorator-held frame on any channel matures, or
  /// nullopt when no link holds one.
  [[nodiscard]] std::optional<std::chrono::steady_clock::time_point>
  next_release() const;

  /// `timeout` clamped to the earliest decorator-held frame release (and
  /// to zero from below): how long wait_any may sleep.
  [[nodiscard]] std::chrono::nanoseconds wait_budget(
      std::chrono::nanoseconds timeout) const;

  /// Blocks until any channel may have receivable traffic (data, close, or
  /// a decorator-buffered frame maturing), or `timeout` elapses.  Returns
  /// true when woken by possible readiness — possibly spuriously; the
  /// caller's next drain pass decides.  False means the full timeout passed
  /// with no wake condition.  Sleeps on the shared signal's own doorbell.
  bool wait_any(std::chrono::nanoseconds timeout);

  /// This set's part of a wait on `bell`, which the caller arms before the
  /// first prepare_wait of the wait and disarms after its poll: routes the
  /// shared signal's rings to `bell`, appends every kernel-fd link's poll
  /// entries to `fds`, then reads the pending mark without consuming it.
  /// True means a pulse is already pending: the caller must not sleep (the
  /// mark stays for the next take_signal()).  A pool worker prepares every
  /// owned set against its one doorbell; its wake times already cover
  /// decorator-held releases (next_release()), which wait_any clamps to.
  bool prepare_wait(transport::Doorbell& bell, std::vector<pollfd>& fds);

 private:
  /// Gives channel `i`'s link a member of the shared signal and records
  /// whether the drain must poll it every pass.
  void attach(std::uint32_t i);

  std::vector<std::unique_ptr<ChannelEndpoint>> channels_;
  transport::ReadySignalPtr signal_;
  bool kernel_fd_ = false;  // some link has a kernel fd to poll
  /// Channels inspected on every pass, ascending: links that never mark.
  std::vector<std::uint32_t> polled_;
  std::vector<std::uint32_t> ready_;  // for_each_ready's scratch
  FlushGroup flush_;
};

template <typename Fn>
void ChannelSet::for_each_ready(Fn&& fn) {
  ready_.clear();
  signal_->take_marks([this](std::uint32_t i) { ready_.push_back(i); });
  if (!polled_.empty()) {
    ready_.insert(ready_.end(), polled_.begin(), polled_.end());
    std::sort(ready_.begin(), ready_.end());
    ready_.erase(std::unique(ready_.begin(), ready_.end()), ready_.end());
  }
  for (const std::uint32_t i : ready_) {
    fn(i);
    if (channels_[i]->link().next_ready_time()) signal_->mark(i);
  }
}

/// Brackets a burst of sends: every channel holds its batch open until the
/// scope exits, so all messages one loop slice emits share a link frame.
/// Flushing from the destructor is safe — ChannelEndpoint::flush converts
/// transport failures into peer_closed instead of throwing.
class FlushHold {
 public:
  explicit FlushHold(ChannelSet& channels) : channels_(channels) {
    channels_.hold_flush();
  }
  ~FlushHold() { channels_.release_flush(); }
  FlushHold(const FlushHold&) = delete;
  FlushHold& operator=(const FlushHold&) = delete;

 private:
  ChannelSet& channels_;
};

}  // namespace pia::dist
