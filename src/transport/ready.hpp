// ReadySignal: a process-internal readiness pulse shared by many Links.
//
// A subsystem idling on N channels must not scan them sequentially (worst
// case N × poll-timeout wake latency).  Instead every in-process link of the
// subsystem shares one ReadySignal: a sender pulses it when a frame lands in
// a queue the subsystem might be sleeping on, and the subsystem's single
// wait includes the signal's fd alongside the kernel fds of any socket
// links.  Wake latency is then one poll() round regardless of channel count.
//
// On Linux this is an eventfd doorbell: one fd instead of a pipe pair,
// notify() adds to the counter (saturation already reads as ready, so a
// refused add is harmless), drain() reads the counter to zero in one
// syscall.  Elsewhere it falls back to the classic self-pipe.  Either way it
// composes with ::poll over socket fds, and drain() empties the doorbell
// before a wait so stale pulses don't cause busy spinning.
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

#include <chrono>
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

  /// Marks the signal ready; safe to call from any thread, never blocks.
  void notify();

  /// Consumes queued pulses.  Callers drain *before* re-inspecting the
  /// queues they guard: a pulse that races the drain re-arms the next wait
  /// rather than being lost.  Returns true if any pulse was consumed — a
  /// consumed pulse means a sender signalled since the last drain, so the
  /// guarded queues must be re-inspected before sleeping at all.
  bool drain();

  /// The fd a waiter adds to its poll set (POLLIN when notified).
  [[nodiscard]] int fd() const { return fds_[0]; }

 private:
  // eventfd mode uses fds_[0] only; pipe mode uses both ends.
  int fds_[2] = {-1, -1};
};

using ReadySignalPtr = std::shared_ptr<ReadySignal>;

}  // namespace pia::transport
