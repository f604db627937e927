#include "dist/sync/snapshot.hpp"

#include <algorithm>

#include "base/error.hpp"
#include "base/log.hpp"

namespace pia::dist::sync {

void SnapshotCoordinator::on_dispatch() {
  if (auto_snapshot_interval_ > 0 &&
      ++dispatches_since_auto_snapshot_ >= auto_snapshot_interval_) {
    dispatches_since_auto_snapshot_ = 0;
    initiate();
  }
}

std::uint64_t SnapshotCoordinator::initiate() {
  const std::uint64_t token =
      (static_cast<std::uint64_t>(ctx_.subsystem_id()) << 32) |
      next_cl_token_++;
  PIA_OBS_TRACE(ctx_.scheduler().trace(), obs::TraceKind::kMark,
                ctx_.scheduler().now(), token, /*initiated=*/1);
  ChannelSet& channels = ctx_.channels();
  PendingSnapshot pending;
  pending.local = ctx_.take_checkpoint();
  pending.positions = ctx_.positions_of(pending.local);
  pending.mark_pending.assign(channels.size(), true);
  pending.recorded.resize(channels.size());
  record_modes(pending);
  cl_snapshots_.emplace(token, std::move(pending));
  for (auto& c : channels) c->send_message(MarkMsg{.token = token});
  maybe_persist(token);  // complete immediately when channel-less
  return token;
}

void SnapshotCoordinator::on_mark(ChannelId channel_id, const MarkMsg& mark) {
  ctx_.stats().marks_received++;
  PIA_OBS_TRACE(ctx_.scheduler().trace(), obs::TraceKind::kMark,
                ctx_.scheduler().now(), mark.token, /*initiated=*/0);
  ChannelSet& channels = ctx_.channels();
  auto it = cl_snapshots_.find(mark.token);
  if (it == cl_snapshots_.end()) {
    // First sight of this snapshot: checkpoint immediately, BEFORE
    // receiving anything else, then relay marks (paper §2.2.5).
    PendingSnapshot pending;
    pending.local = ctx_.take_checkpoint();
    pending.positions = ctx_.positions_of(pending.local);
    pending.mark_pending.assign(channels.size(), true);
    pending.recorded.resize(channels.size());
    record_modes(pending);
    // The arrival channel's state is empty: everything the peer sent before
    // its mark was already consumed (FIFO).
    pending.mark_pending[channel_id.value()] = false;
    it = cl_snapshots_.emplace(mark.token, std::move(pending)).first;
    for (auto& c : channels) c->send_message(MarkMsg{.token = mark.token});
  } else {
    it->second.mark_pending[channel_id.value()] = false;
  }
  maybe_persist(mark.token);
}

void SnapshotCoordinator::on_event_received(ChannelId channel_id,
                                            const EventMsg& event) {
  for (auto& [token, pending] : cl_snapshots_) {
    if (pending.mark_pending[channel_id.value()])
      pending.recorded[channel_id.value()].push_back(event);
  }
}

bool SnapshotCoordinator::complete(std::uint64_t token) const {
  const auto it = cl_snapshots_.find(token);
  if (it == cl_snapshots_.end()) return false;
  return std::none_of(it->second.mark_pending.begin(),
                      it->second.mark_pending.end(),
                      [](bool pending) { return pending; });
}

void SnapshotCoordinator::restore(std::uint64_t token) {
  const auto it = cl_snapshots_.find(token);
  PIA_REQUIRE(it != cl_snapshots_.end(), "unknown snapshot token");
  PIA_REQUIRE(complete(token),
              "restore of an incomplete distributed snapshot");
  const PendingSnapshot& pending = it->second;

  ctx_.checkpoints().restore(pending.local);
  ctx_.scrub_retracted(pending.positions);
  ctx_.reset_checkpoint_cadence();
  // The subsystem is live again: any previous termination consensus or
  // probe state described the discarded timeline.
  ctx_.reset_termination();
  ctx_.note_activity();
  ChannelSet& channels = ctx_.channels();
  // Anything still sitting in the links (stale grants, probe replies,
  // statuses from the abandoned timeline) must not leak into the replay.
  // Coordinated restores happen at global quiescence with no runner
  // active, so whatever is pending is stale by definition.
  for (auto& c : channels) {
    while (c->link().try_recv()) {
    }
    // ... including anything buffered inside the endpoint itself: an
    // un-flushed outbound batch or decoded-but-undelivered inbound messages.
    c->discard_pending();
  }
  ctx_.drop_positions_after(pending.local);

  for (std::uint32_t i = 0; i < channels.size(); ++i) {
    ChannelEndpoint& c = channels[i];
    // The cut is a mode barrier: a mode flip negotiated after it belongs to
    // the discarded timeline, so adopt the mode (and epoch, verbatim — both
    // sides restore from the same cut, keeping the endpoints' fences equal)
    // that was live when the cut's checkpoint was taken.
    if (i < pending.modes.size())
      c.restore_mode(pending.modes[i], pending.mode_epochs[i]);
    // Conservative promises describe the discarded future: re-negotiate.
    c.reset_grants();
    c.peer_status_seen = false;
    // Restart liveness from scratch: the peer may be mid-restart and the
    // old timers describe the abandoned timeline.
    c.peer_down = false;
    c.liveness_armed = false;
    // Sends and arrivals after the cut never happened, globally: peers are
    // being restored to states from before those sends.
    c.output_log.resize(
        std::min(c.output_log.size(), pending.positions.out[i]));
    c.replay_cursor =
        std::min(pending.positions.cursor[i], c.output_log.size());
    c.input_log.resize(std::min(c.input_log.size(), pending.positions.in[i]));
    c.injected_count = c.input_log.size();
    // The recorded channel state — messages in flight at the cut — is
    // re-delivered.
    for (const EventMsg& event : pending.recorded[i]) {
      c.input_log.push_back(ChannelEndpoint::InputRecord{
          .id = event.id,
          .net_index = event.net_index,
          .time = event.time,
          .value = event.value});
      ctx_.inject_input(c, c.input_log.back());
      c.injected_count = c.input_log.size();
    }
    // Re-base the event counters on the truncated logs so safe-time grants
    // index consistently on both sides after the restore; retract counters
    // restart at zero on both sides of the cut (they only feed the
    // termination balance, which needs a shared epoch, not history).
    c.event_msgs_sent = c.output_trimmed + c.output_log.size();
    c.event_msgs_received = c.input_trimmed + c.input_log.size();
    c.retract_msgs_sent = 0;
    c.retract_msgs_received = 0;
  }
}

void SnapshotCoordinator::invalidate_after(SnapshotId kept) {
  if (!store_) return;
  for (auto& [cl_token, pending] : cl_snapshots_) {
    if (!pending.persisted || !(kept < pending.local)) continue;
    store_->remove(cl_token);
    pending.persisted = false;
    ctx_.stats().snapshots_invalidated++;
  }
}

const PendingSnapshot* SnapshotCoordinator::find(std::uint64_t token) const {
  const auto it = cl_snapshots_.find(token);
  return it == cl_snapshots_.end() ? nullptr : &it->second;
}

void SnapshotCoordinator::reset(std::uint64_t next_token) {
  cl_snapshots_.clear();
  next_cl_token_ = next_token;
  dispatches_since_auto_snapshot_ = 0;
}

void SnapshotCoordinator::record_modes(PendingSnapshot& pending) const {
  const ChannelSet& channels = ctx_.channels();
  pending.modes.reserve(channels.size());
  pending.mode_epochs.reserve(channels.size());
  for (const auto& c : channels) {
    pending.modes.push_back(c->mode());
    pending.mode_epochs.push_back(c->mode_epoch());
  }
}

void SnapshotCoordinator::maybe_persist(std::uint64_t token) {
  if (!store_) return;
  const auto it = cl_snapshots_.find(token);
  if (it == cl_snapshots_.end() || it->second.persisted) return;
  if (!complete(token)) return;
  const CheckpointManager& checkpoints = ctx_.checkpoints();
  // A rollback past the cut discards its local checkpoint; the token can
  // never be persisted here, so it never becomes common across the cluster.
  if (!checkpoints.contains(it->second.local)) return;
  // A recorded in-flight event older than the cut is an optimistic
  // straggler frozen mid-flight: replaying it bit-exactly needs rollback
  // history from before the cut, which a fresh process cannot have.  Skip
  // the token; recovery simply uses an earlier common one.
  const VirtualTime cut_now = checkpoints.snapshot_time(it->second.local);
  for (const auto& recorded : it->second.recorded)
    for (const EventMsg& event : recorded)
      if (event.time < cut_now) return;
  const Bytes payload = ctx_.export_snapshot_image(token);
  store_->commit(token, payload);
  it->second.persisted = true;
  ctx_.stats().snapshots_persisted++;
  ctx_.stats().snapshot_persist_bytes += payload.size();
  PIA_OBS_TRACE(ctx_.scheduler().trace(), obs::TraceKind::kSnapshotPersist,
                ctx_.scheduler().now(), token, payload.size());
}

}  // namespace pia::dist::sync
