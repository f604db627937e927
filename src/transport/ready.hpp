// ReadySignal: a process-internal readiness doorbell shared by many Links.
//
// A subsystem idling on N channels must not scan them sequentially (worst
// case N × poll-timeout wake latency).  Instead every in-process link of the
// subsystem shares one ReadySignal: a sender notifies it when a frame lands
// in a queue the subsystem might be sleeping on, and the subsystem's single
// wait includes the signal's fd alongside the kernel fds of any socket
// links.  Wake latency is then one poll() round regardless of channel count.
//
// The signal is two atomic flags in front of a kernel doorbell (an eventfd
// on Linux, a self-pipe elsewhere):
//   * `pending` says "a sender signalled since the last take()".  notify()
//     sets it; take() consumes it with no syscall.  A scheduler that only
//     wants to know whether a subsystem may have input (the pooled
//     executor's park check) never touches the fd.
//   * `armed` says "a waiter is about to sleep on the fd".  Only the first
//     notify() after arm() writes the fd (it claims the arm by clearing
//     it), so a sender pays a syscall only when someone may be asleep.
//
// A wait is arm() → poll → disarm().  arm() stores `armed` and then
// re-reads `pending`; notify() stores `pending` and then reads `armed`.
// Both pairs are sequentially consistent, so (Dekker) at least one side
// sees the other's store: either the waiter sees `pending` and does not
// sleep, or the notifier sees `armed` and writes the fd, which wakes the
// poll.  No pulse is lost in between.  disarm() clears `armed`; if a
// notifier had already claimed it, its fd write is (or is about to be)
// there, and disarm() reads it back so the next wait does not wake on a
// stale doorbell.  A write that has not landed yet is remembered and read
// by a later disarm(): at most one spurious wake, never a busy spin.
//
// The waiter side (take/arm/disarm) belongs to one thread at a time; the
// pooled executor hands a subsystem between workers under its queue mutex.
// notify() is safe from any thread and never blocks.
//
// poll_until is the one sleep in the library: link receives, decorator
// release waits, connect backoff, the subsystem wait and the pooled executor
// wait all go through it.  The deadlines it serves are mostly decorator
// release stamps ~100 µs out, so two things must not stretch them:
//   * the timeout's unit: it sleeps with ppoll and a nanosecond timespec (a
//     millisecond poll timeout rounded each wait up to a full 1 ms);
//   * the thread's timer slack: Linux ends a timed sleep up to the slack
//     late, 50 µs by default, so a 100 µs hop cost ~155 µs.  poll_until sets
//     the calling thread's slack to 1 ns before its first blocking sleep.
//     The thread keeps that slack afterwards (and threads it spawns inherit
//     it); the kernel still wakes it a few µs after the deadline.
#pragma once

#include <poll.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>

namespace pia::transport {

/// Waits until an entry of `fds` is ready or `deadline` passes.  Returns the
/// number of ready entries, or 0 once the deadline has passed with none.
/// Always polls at least once, so a past deadline is a non-blocking check;
/// with empty `fds` it is a plain sleep to `deadline`.  EINTR is retried
/// until the deadline; any other poll failure raises Error{kTransport}.  On
/// Linux the first blocking call on a thread sets its timer slack to 1 ns
/// (see above).  Non-Linux builds round the remaining wait up to whole
/// milliseconds (never early, up to 1 ms late).
int poll_until(std::span<pollfd> fds,
               std::chrono::steady_clock::time_point deadline);

class ReadySignal {
 public:
  ReadySignal();
  ~ReadySignal();

  ReadySignal(const ReadySignal&) = delete;
  ReadySignal& operator=(const ReadySignal&) = delete;

  /// Marks the signal pending, and rings the fd when a waiter is armed.
  /// Safe to call from any thread, never blocks.
  void notify();

  /// Consumes the pending mark, without a syscall.  True means a sender
  /// signalled since the last take(), so the guarded queues must be
  /// re-inspected.  Take *before* inspecting: a pulse that races the
  /// inspection leaves the mark set for the next take().
  bool take();

  /// Announces that the caller is about to sleep on fd().  Returns true when
  /// a pulse is already pending: the caller must not sleep (it polls with a
  /// zero budget).  The mark stays set for the next take().
  bool arm();

  /// Ends a wait begun by arm(), consuming the fd doorbell if a notifier
  /// rang it.
  void disarm();

  /// The fd a waiter adds to its poll set between arm() and disarm()
  /// (POLLIN once a notifier rang it).
  [[nodiscard]] int fd() const { return fds_[0]; }

 private:
  /// Writes the doorbell: one ring.
  void ring();
  /// Reads the doorbell without blocking; returns how many rings it read.
  std::uint64_t consume();

  std::atomic<bool> pending_{false};
  std::atomic<bool> armed_{false};
  // Rings claimed by notifiers that disarm() has not read yet.  Waiter-side
  // state, like arm() and disarm() themselves.
  std::uint64_t owed_ = 0;
  // eventfd mode uses fds_[0] only; pipe mode uses both ends.
  int fds_[2] = {-1, -1};
};

using ReadySignalPtr = std::shared_ptr<ReadySignal>;

}  // namespace pia::transport
