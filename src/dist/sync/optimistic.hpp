// OptimisticEngine: Time-Warp-style rollback (paper §2.2.4).
//
// Owns the checkpoint cadence, the per-checkpoint channel-log positions,
// rollback to the newest suitable snapshot, retraction (anti-messages) with
// lazy cancellation of the unconfirmed output tail, straggler/retract input
// handling, and the GVT-driven fossil collection of logs and checkpoints.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "dist/sync/engine_context.hpp"

namespace pia::dist::sync {

class OptimisticEngine {
 public:
  explicit OptimisticEngine(EngineContext& ctx) : ctx_(ctx) {}

  void set_checkpoint_interval(std::uint64_t dispatches) {
    checkpoint_interval_ = dispatches;
  }
  [[nodiscard]] std::uint64_t checkpoint_interval() const {
    return checkpoint_interval_;
  }
  [[nodiscard]] bool has_optimistic_channel() const;

  // --- checkpoints ---------------------------------------------------------

  /// Snapshots the scheduler plus the channel-log positions that let a
  /// rollback rewind the logs consistently.
  SnapshotId take_checkpoint();
  /// Dispatch cadence: counts one dispatch, checkpointing when the interval
  /// elapses.  Call it only while an optimistic channel is attached.
  void on_dispatch();
  void reset_cadence() { dispatches_since_checkpoint_ = 0; }

  [[nodiscard]] SnapshotPositions positions_of(SnapshotId snap) const {
    return snapshot_positions_.at(snap);
  }
  void drop_positions_after(SnapshotId snap);
  void clear_positions() { snapshot_positions_.clear(); }

  // --- rollback / retraction -----------------------------------------------

  void on_retract(ChannelId channel_id, const RetractMsg& retract);

  /// Rolls back so that an input event at `to_time` (at input-log position
  /// `entry_hint` on `entry_channel` if known) can be (re)applied.
  void rollback(VirtualTime to_time,
                std::optional<std::pair<ChannelId, std::size_t>> entry_hint);

  /// Outbound lazy-cancellation filter: consumes the unconfirmed output
  /// tail left by a rollback.  Returns true when the send was an identical
  /// regeneration already held by the peer (suppress it); false when the
  /// caller must transmit.  Divergence retracts the remaining tail first.
  bool suppress_regeneration(ChannelEndpoint& endpoint,
                             std::uint32_t net_index, const Value& value,
                             VirtualTime time);

  /// Retracts unconfirmed entries that can no longer be regenerated
  /// because execution reached `upto` (sends are monotone in time).
  void flush_unregenerated(VirtualTime upto);
  /// The same on `tails` only, which must hold every channel with an
  /// unconfirmed tail; drops the channels whose tail it used up.
  void flush_unregenerated(VirtualTime upto,
                           std::vector<ChannelEndpoint*>& tails);
  /// Appends every channel with an unconfirmed tail to `tails`.
  void collect_tails(std::vector<ChannelEndpoint*>& tails) const;

  /// Re-schedules a logged input (skipping tombstones).
  void inject_input(ChannelEndpoint& endpoint,
                    ChannelEndpoint::InputRecord& record);

  /// After a restore: remove from the restored queue any event whose input
  /// record was retracted after the snapshot was taken (the snapshot may
  /// still contain it as a pending delivery).
  void scrub_retracted(const SnapshotPositions& positions);

  /// Discards checkpoints and log prefixes older than `gvt`.
  void fossil_collect(VirtualTime gvt);

 private:
  void retract_output(ChannelEndpoint& endpoint,
                      ChannelEndpoint::OutputRecord& record);
  /// flush_unregenerated on one channel.
  void flush_tail(ChannelEndpoint& c, VirtualTime upto);

  EngineContext& ctx_;
  std::uint64_t checkpoint_interval_ = 64;
  std::uint64_t dispatches_since_checkpoint_ = 0;
  std::map<SnapshotId, SnapshotPositions> snapshot_positions_;
};

}  // namespace pia::dist::sync
