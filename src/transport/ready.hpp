// ReadySignal and Doorbell: process-internal readiness for idle waits.
//
// A subsystem idling on N channels must not scan them sequentially (worst
// case N × poll-timeout wake latency).  Instead every in-process link of the
// subsystem shares one ReadySignal: a sender notifies it when a frame lands
// in a queue the subsystem might be sleeping on, and the subsystem's single
// wait includes a doorbell fd alongside the kernel fds of any socket links.
// Wake latency is then one poll() round regardless of channel count.
//
// The two halves are separate objects, so one sleeper can watch many
// signals through one fd:
//   * A ReadySignal is a `pending` flag plus a route.  notify() sets
//     `pending` and rings the doorbell the route names; take() consumes the
//     flag with no syscall.  A scheduler that only wants to know whether a
//     subsystem may have input (the pooled executor's park check) never
//     touches an fd.
//   * A Doorbell is an `armed` flag in front of a kernel fd (an eventfd on
//     Linux, a self-pipe elsewhere).  Only the first ring after arm() writes
//     the fd (it claims the arm by clearing it), so a sender pays a syscall
//     only when someone may be asleep.
// Each signal owns a doorbell, which Subsystem::run's wait_any sleeps on.  A
// pool worker instead routes every signal it owns to its own leased
// doorbell, so any number of notifies to its subsystems cost at most one
// fd write per wait, and its wait polls one fd.
//
// A wait is: arm the bell; for each watched signal, route it to the bell and
// then read its `pending` (any set: do not sleep); poll; disarm.  So a
// signal's route and the bell's arm both precede its pending read; notify()
// stores `pending`, then loads the route, then the bell's `armed`.  All of these are sequentially consistent,
// so (Dekker) if the waiter's read misses a pulse, the notifier's loads come
// after the waiter's route and arm stores and it rings the waiter's fd.  A
// signal re-routed to another waiter's bell (a pool steal) is covered the
// same way by the new owner's wait; a ring sent down the old route costs the
// old bell at most one spurious wake.  disarm() clears `armed`; if a
// notifier had already claimed it, its fd write is (or is about to be)
// there, and disarm() reads it back so the next wait does not wake on a
// stale doorbell.  A write that has not landed yet is remembered and read
// by a later disarm(): at most one spurious wake, never a busy spin.
// DESIGN.md ("The doorbell") gives the proof in full.
//
// A notifier may hold a route after the waiter has gone: a peer keeps
// sending after the pool that owned the receiver returned.  So a bell must
// outlive every notifier.  A signal's own bell lives as long as the signal,
// which its links share; a worker's bell is leased from a process-wide free
// list and never destroyed, and the next pool re-leases it, so repeated runs
// open no new fds.  A deferred ring is rung before its scope ends, while
// the sending link (which holds the route's signal) is still alive.
//
// The waiter side (take, route, arm, disarm) belongs to one thread at a
// time; the pooled executor hands a subsystem between workers under its
// queue mutex.  notify() is safe from any thread and never blocks.
//
// A waiter that watches many links through one signal also wants to know
// WHICH of them notified, so that it inspects only those.  It gives each
// link a member signal of its own: a member's notify() marks the member's
// index in its parent's ready list, then notifies the parent.  The waiter
// consumes the marks (take_marks) before it inspects the marked links, so a
// frame that lands during the inspection marks its link again.  A member
// has no doorbell; the marks live in the parent, which every member keeps
// alive.
//
// A sender that flushes to many links in one go (a subsystem releasing its
// held batches) would wake each destination waiter once per link: the first
// ring wakes it, it re-arms, and the next flush rings again.  Inside a
// DeferredRings scope a ring for an armed bell is recorded instead, and the
// outermost scope's end rings each distinct recorded bell once.  The
// notifier's route and `armed` loads still follow its `pending` store (the
// loads happen at notify, or later at the scope's end), so the proof below
// is unchanged; a waiter woken by the deferred ring sleeps at most one
// scope longer.
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
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

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

/// The kernel half of a wait: an `armed` flag in front of a kernel fd.
class Doorbell {
 public:
  Doorbell();
  ~Doorbell();

  Doorbell(const Doorbell&) = delete;
  Doorbell& operator=(const Doorbell&) = delete;

  /// Announces that the caller is about to sleep on fd().  Precedes the
  /// `pending` reads of every signal routed here.
  void arm() { armed_.store(true); }

  /// Ends a wait begun by arm(), consuming the fd if a notifier rang it.
  void disarm();

  /// Writes the fd when a waiter is armed; of several concurrent rings only
  /// the one that claims the arm writes.  Safe from any thread.
  /// Inside a DeferredRings scope the ring is recorded and happens when the
  /// outermost scope ends.
  void ring() {
    // The load filters the common case (nobody armed) without a locked
    // instruction; the exchange lets exactly one notifier ring per arm.
    if (armed_.load() && !defer_ring(*this) && armed_.exchange(false))
      write_fd();
  }

  /// The fd a waiter adds to its poll set between arm() and disarm()
  /// (POLLIN once a notifier rang it).
  [[nodiscard]] int fd() const { return fds_[0]; }

 private:
  /// Records the ring when the calling thread is inside a DeferredRings
  /// scope; false otherwise.
  static bool defer_ring(Doorbell& bell);
  /// Writes one ring to the fd.
  void write_fd();
  /// Reads the fd without blocking; returns how many rings it read.
  std::uint64_t consume();

  std::atomic<bool> armed_{false};
  // Rings claimed by notifiers that disarm() has not read yet.  Waiter-side
  // state, like arm() and disarm() themselves.
  std::uint64_t owed_ = 0;
  // eventfd mode uses fds_[0] only; pipe mode uses both ends.
  int fds_[2] = {-1, -1};
};

/// A pool worker's doorbell, leased from a process-wide free list for the
/// lease's lifetime.  The bell itself is never destroyed (a notifier may
/// still hold a route to it); the next lease reuses it.
class DoorbellLease {
 public:
  DoorbellLease();
  ~DoorbellLease();

  DoorbellLease(const DoorbellLease&) = delete;
  DoorbellLease& operator=(const DoorbellLease&) = delete;

  [[nodiscard]] Doorbell& operator*() const { return *bell_; }
  [[nodiscard]] Doorbell* operator->() const { return bell_; }

 private:
  Doorbell* bell_;
};

/// While one is alive on a thread, the rings that thread's notifies owe to
/// armed bells wait; when the outermost ends, each distinct bell is rung
/// once.  Scopes nest.
class DeferredRings {
 public:
  DeferredRings();
  ~DeferredRings();

  DeferredRings(const DeferredRings&) = delete;
  DeferredRings& operator=(const DeferredRings&) = delete;
};

class ReadySignal;
using ReadySignalPtr = std::shared_ptr<ReadySignal>;

class ReadySignal {
 public:
  /// A waiter's signal, with its own doorbell.
  ReadySignal();

  /// A member of `parent` at `index`: notify() marks `index` in the
  /// parent's ready list, then notifies the parent.  Built on the parent's
  /// waiter side; a member has no doorbell of its own and is never waited
  /// on.
  ReadySignal(ReadySignalPtr parent, std::uint32_t index);

  ReadySignal(const ReadySignal&) = delete;
  ReadySignal& operator=(const ReadySignal&) = delete;

  /// Marks the signal pending and rings the routed doorbell (which writes
  /// its fd only for an armed waiter).  Safe to call from any thread, never
  /// blocks.
  void notify() {
    if (mark_ != nullptr) {
      mark_->fetch_or(bit_);
      parent_->notify();
      return;
    }
    pending_.store(true);
    route_.load()->ring();
  }

  /// Marks member `index` without notifying: a waiter that must inspect
  /// that member's link again at its next take_marks().  Waiter side.
  void mark(std::uint32_t index) {
    marks_[index / 64]->fetch_or(std::uint64_t{1} << (index % 64));
  }

  /// Consumes the members' marks and calls fn(index) for each marked
  /// member, in index order.  Take before inspecting the members' links:
  /// a notify racing the inspection marks its member again.  Waiter side.
  template <typename Fn>
  void take_marks(Fn&& fn) {
    for (std::size_t w = 0; w < marks_.size(); ++w) {
      std::atomic<std::uint64_t>& word = *marks_[w];
      if (word.load(std::memory_order_relaxed) == 0) continue;
      std::uint64_t bits = word.exchange(0, std::memory_order_acquire);
      while (bits != 0) {
        fn(static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits)));
        bits &= bits - 1;
      }
    }
  }

  /// Consumes the pending mark, without a syscall.  True means a sender
  /// signalled since the last take(), so the guarded queues must be
  /// re-inspected.  Take *before* inspecting: a pulse that races the
  /// inspection leaves the mark set for the next take().
  bool take() {
    return pending_.load(std::memory_order_relaxed) &&
           pending_.exchange(false, std::memory_order_acquire);
  }

  /// Sends later notifies to `bell`.  A waiter routes before it reads
  /// pending(); only the waiter that owns the signal routes it.
  void route_to(Doorbell& bell) {
    if (route_.load(std::memory_order_relaxed) != &bell) route_.store(&bell);
  }

  /// True when a pulse is pending, without consuming it.  After route_to()
  /// and the bell's arm(), false means any later notify rings that bell.
  [[nodiscard]] bool pending() const { return pending_.load(); }

  /// The signal's own doorbell, for a waiter that watches only this signal
  /// (ChannelSet::wait_any).  It lives as long as the signal.
  [[nodiscard]] Doorbell& bell() { return *own_; }

 private:
  std::atomic<bool> pending_{false};
  std::unique_ptr<Doorbell> own_;  // null in a member
  std::atomic<Doorbell*> route_{nullptr};
  // A member's parent, and its mark: one bit of a word of the parent's.
  ReadySignalPtr parent_;
  std::atomic<std::uint64_t>* mark_ = nullptr;
  std::uint64_t bit_ = 0;
  // A parent's ready list, one word per 64 members.  Each word is
  // allocated once and never moves, so members write through their own
  // pointers while the waiter side appends words.
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> marks_;
};

}  // namespace pia::transport
