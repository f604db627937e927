// NodeExecutor: the per-node worker pool for multi-threaded subsystem
// execution.
//
// NodeCluster::run_all historically spawned one OS thread per subsystem —
// fine for a handful, wasteful for many, and with no control over placement.
// A NodeExecutor instead owns a fixed pool of scheduler threads (one per
// core is the intended configuration; see PiaNode::set_worker_threads) and
// multiplexes the node's subsystems over them in cooperative *slices*
// (Subsystem::run_slice): one drain / advance-burst / grant-push round per
// slice, after which the subsystem can migrate to any worker.
//
// Scheduling model:
//   * Each worker owns a queue of subsystems.  It takes its whole queue as
//     a batch, slices every member once, and requeues the unfinished ones.
//     A subsystem is either queued or held in exactly one worker's batch —
//     never in two places — so no two workers can slice it concurrently
//     (Scheduler::ConfinementGuard enforces this at runtime).
//   * Work stealing: a worker with an empty queue takes half of the largest
//     victim queue (queued entries only; a batch in flight is not
//     stealable), which rebalances load without a central dispatcher.
//   * Parking: an entry whose last slice made no progress is parked, and
//     later passes skip it until one of two things says it may move:
//       - its channel set's signal is taken (an in-process link received a
//         frame or closed since the slice; ChannelSet::take_signal, one
//         atomic load when nothing happened);
//       - its wake time passes.  That is fixed when it parks: the
//         subsystem's idle hint, or the earliest decorator-held frame
//         release (ChannelSet::next_release) if sooner — exactly how long
//         the single-threaded run loop would sleep in wait_any.
//     A slice that makes progress unparks the entry.  Skipped entries are
//     still sliced at their wake time, so the stall clock keeps running.
//     An entry whose channel set holds a kernel-fd (TCP) link is never
//     skipped: sockets do not notify the signal, so only slicing (or
//     polling) sees their traffic, and skipping would hold every TCP frame
//     until the idle hint.  Skipping changes when slices happen, never
//     what they compute.
//   * Idle: when a full batch pass makes no progress, the worker sleeps
//     until any owned subsystem may have traffic or the earliest wake time
//     passes — the pooled generalization of the single-subsystem wait_any.
//     Each worker leases ONE doorbell for its lifetime
//     (transport::DoorbellLease).  A wait arms it, then routes every owned
//     subsystem's signal to it and reads each pending mark
//     (ChannelSet::prepare_wait), and polls that one fd plus any kernel
//     fds: however many subsystems it owns and however many of them are
//     notified, a wait costs at most one fd write and one read.  A steal
//     re-routes a subsystem at the thief's next wait; a notify that went
//     to the old bell costs the old owner at most one spurious wake.  A
//     leased bell is never destroyed, since a peer may notify a subsystem
//     after its pool returned; the next pool re-leases it.
//
// Determinism: a subsystem's event order depends only on its own scheduler
// queue and the FIFO order of each channel, both of which are independent
// of which worker runs a slice or how slices interleave across subsystems —
// so results are bit-exact with the thread-per-subsystem (and the
// single-threaded oracle) execution at every worker count.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dist/subsystem.hpp"

namespace pia::dist {

class NodeExecutor {
 public:
  /// The pool slices `subsystems` on `workers` threads (at least 1).
  NodeExecutor(std::vector<Subsystem*> subsystems, std::size_t workers);

  /// Runs every subsystem to completion and returns the outcome per
  /// subsystem name.  Rethrows the first worker exception after all
  /// workers have stopped (mirroring NodeCluster::run_all).
  std::map<std::string, Subsystem::RunOutcome> run(
      const Subsystem::RunConfig& config);

  struct Stats {
    std::uint64_t slices = 0;  // run_slice calls across all workers (parked
                               // entries skipped by a pass do not count)
    std::uint64_t steals = 0;  // queue-rebalance events
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  std::vector<Subsystem*> subsystems_;
  std::size_t workers_;
  Stats stats_;
};

}  // namespace pia::dist
