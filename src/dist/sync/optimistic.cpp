#include "dist/sync/optimistic.hpp"

#include <algorithm>

#include "base/error.hpp"
#include "base/log.hpp"

namespace pia::dist::sync {

bool OptimisticEngine::has_optimistic_channel() const {
  const ChannelSet& channels = ctx_.channels();
  return std::any_of(channels.begin(), channels.end(), [](const auto& c) {
    return c->mode() == ChannelMode::kOptimistic;
  });
}

SnapshotId OptimisticEngine::take_checkpoint() {
  const ChannelSet& channels = ctx_.channels();
  const SnapshotId snap = ctx_.checkpoints().request();
  SnapshotPositions positions;
  positions.out.reserve(channels.size());
  positions.in.reserve(channels.size());
  for (const auto& c : channels) {
    positions.out.push_back(c->output_log.size());
    positions.in.push_back(c->injected_count);
    positions.cursor.push_back(c->replay_cursor);
  }
  snapshot_positions_[snap] = std::move(positions);
  ctx_.stats().checkpoints++;
  dispatches_since_checkpoint_ = 0;
  PIA_OBS_TRACE(ctx_.scheduler().trace(), obs::TraceKind::kCheckpoint,
                ctx_.scheduler().now(), ctx_.stats().checkpoints);
  return snap;
}

void OptimisticEngine::on_dispatch() {
  if (++dispatches_since_checkpoint_ >= checkpoint_interval_)
    take_checkpoint();
}

void OptimisticEngine::drop_positions_after(SnapshotId snap) {
  for (auto it = snapshot_positions_.upper_bound(snap);
       it != snapshot_positions_.end();)
    it = snapshot_positions_.erase(it);
}

void OptimisticEngine::inject_input(ChannelEndpoint& endpoint,
                                    ChannelEndpoint::InputRecord& record) {
  if (record.retracted) return;
  Scheduler& scheduler = ctx_.scheduler();
  record.seq = scheduler.inject(Event{
      .time = record.time,
      .target = endpoint.channel_component,
      .port = static_cast<ChannelComponent&>(
                  scheduler.component(endpoint.channel_component))
                  .rx_port(),
      .kind = EventKind::kDeliver,
      .value = ChannelComponent::encode_remote(record.net_index, record.value),
      .source = ComponentId::invalid()});
}

void OptimisticEngine::on_retract(ChannelId channel_id,
                                  const RetractMsg& retract) {
  ChannelEndpoint& endpoint = ctx_.channels().at(channel_id);
  ctx_.stats().retracts_received++;
  endpoint.retract_msgs_received++;
  ctx_.note_activity();

  // Find the cancelled event (search newest-first: retractions target
  // recent sends).
  auto& log = endpoint.input_log;
  std::size_t index = log.size();
  for (std::size_t i = log.size(); i-- > 0;) {
    if (log[i].id == retract.id) {
      index = i;
      break;
    }
  }
  if (index == log.size())
    raise(ErrorKind::kProtocol,
          "retraction for unknown event on channel " + endpoint.name());
  if (log[index].retracted) return;  // duplicate retraction

  if (index >= endpoint.injected_count) {
    // Not yet injected: tombstone it; the injection loop will skip it.
    log[index].retracted = true;
    return;
  }
  Scheduler& scheduler = ctx_.scheduler();
  log[index].retracted = true;
  if (retract.time > scheduler.now()) {
    // Probably injected but not yet dispatched: try to cancel its queued
    // delivery, addressed by the seq recorded at injection (payloads are
    // not unique — two live sends may carry identical (time, value)).
    // This is a fast path, not a guarantee: across rollback histories the
    // clock alone cannot prove the event is still pending.  If the erase
    // finds nothing, fall through to the rewind below, which is correct
    // either way.
    const std::uint64_t seq = log[index].seq;
    bool removed = false;
    scheduler.erase_events_if([&](const Event& e) {
      if (e.seq != seq || e.target != endpoint.channel_component)
        return false;
      removed = true;
      return true;
    });
    if (removed) return;
  }
  // Its effects may already be in component state — rewind.  The entry hint
  // forces a snapshot from before this input's injection; the tombstone set
  // above keeps the replay loop from re-injecting it.
  rollback(retract.time, std::make_pair(channel_id, index));
}

void OptimisticEngine::rollback(
    VirtualTime to_time,
    std::optional<std::pair<ChannelId, std::size_t>> entry_hint) {
  CheckpointManager& checkpoints = ctx_.checkpoints();
  // Choose the newest snapshot that precedes `to_time` and, when undoing an
  // already-applied input, precedes that input's injection.
  std::optional<SnapshotId> chosen;
  for (auto it = snapshot_positions_.rbegin();
       it != snapshot_positions_.rend(); ++it) {
    if (!checkpoints.contains(it->first)) continue;
    if (checkpoints.snapshot_time(it->first) > to_time) continue;
    if (entry_hint &&
        it->second.in[entry_hint->first.value()] > entry_hint->second)
      continue;
    chosen = it->first;
    break;
  }
  // A live run always has the base checkpoint from start() (virtual time
  // zero) to fall back on; only a subsystem restored from a durable image
  // can lack one — its base sits at the cut, and a straggler below the cut
  // means the snapshot froze optimistic state the original timeline went on
  // to roll back.  Surface that as a recoverable error so the restart
  // driver can fall back to an older snapshot (or a cold start).
  if (!chosen.has_value())
    raise(ErrorKind::kState,
          "no checkpoint on " + ctx_.subsystem_name() +
              " precedes rollback target " + to_time.str() +
              ": the restored snapshot cut was optimistically unstable");

  // Durable snapshots whose cut lies in the discarded future captured a
  // state this rollback just unwound: revoke them before anyone restores
  // one.
  ctx_.invalidate_snapshots_after(*chosen);

  const SnapshotPositions positions = snapshot_positions_.at(*chosen);
  checkpoints.restore(*chosen);
  scrub_retracted(positions);
  ctx_.stats().rollbacks++;
  dispatches_since_checkpoint_ = 0;
  PIA_OBS_TRACE(ctx_.scheduler().trace(), obs::TraceKind::kRollback, to_time,
                ctx_.stats().rollbacks);

  // Forget snapshots describing the discarded future.
  drop_positions_after(*chosen);

  ChannelSet& channels = ctx_.channels();
  for (std::uint32_t i = 0; i < channels.size(); ++i) {
    ChannelEndpoint& c = channels[i];
    // Lazy cancellation: outputs produced after the snapshot become
    // *unconfirmed* rather than being retracted immediately.  Re-execution
    // that regenerates them identically will consume them silently —
    // retracting eagerly makes every rollback echo back and forth between
    // subsystems forever when the regenerated messages are the same.
    c.replay_cursor = std::min(c.replay_cursor, positions.cursor[i]);
    // Replay the inputs that arrived after the snapshot (skipping
    // tombstones).
    c.injected_count = positions.in[i];
    for (std::size_t k = positions.in[i]; k < c.input_log.size(); ++k)
      inject_input(c, c.input_log[k]);
    c.injected_count = c.input_log.size();
  }
}

void OptimisticEngine::retract_output(ChannelEndpoint& endpoint,
                                      ChannelEndpoint::OutputRecord& record) {
  if (record.retracted) return;
  record.retracted = true;
  endpoint.send_message(RetractMsg{.id = record.id, .time = record.time});
  ctx_.stats().retracts_sent++;
  endpoint.retract_msgs_sent++;
}

bool OptimisticEngine::suppress_regeneration(ChannelEndpoint& endpoint,
                                             std::uint32_t net_index,
                                             const Value& value,
                                             VirtualTime time) {
  // Consume the unconfirmed tail left by a rollback.
  while (endpoint.replay_cursor < endpoint.output_log.size()) {
    auto& old = endpoint.output_log[endpoint.replay_cursor];
    if (old.retracted) {
      ++endpoint.replay_cursor;
      continue;
    }
    if (old.time < time) {
      // Passed its send time without regenerating it: it is history that
      // no longer happens.
      retract_output(endpoint, old);
      ++endpoint.replay_cursor;
      continue;
    }
    if (old.time == time && old.net_index == net_index &&
        old.value == value) {
      // Identical regeneration: the peer already has this message.
      ++endpoint.replay_cursor;
      return true;
    }
    // Divergence: the rest of the old future is invalid.
    for (std::size_t k = endpoint.replay_cursor;
         k < endpoint.output_log.size(); ++k)
      retract_output(endpoint, endpoint.output_log[k]);
    endpoint.replay_cursor = endpoint.output_log.size();
    break;
  }
  return false;
}

void OptimisticEngine::flush_tail(ChannelEndpoint& c, VirtualTime upto) {
  while (c.replay_cursor < c.output_log.size()) {
    auto& old = c.output_log[c.replay_cursor];
    if (!old.retracted && old.time >= upto) break;
    retract_output(c, old);
    ++c.replay_cursor;
  }
}

void OptimisticEngine::flush_unregenerated(VirtualTime upto) {
  for (auto& cp : ctx_.channels()) flush_tail(*cp, upto);
}

void OptimisticEngine::flush_unregenerated(
    VirtualTime upto, std::vector<ChannelEndpoint*>& tails) {
  std::erase_if(tails, [&](ChannelEndpoint* c) {
    flush_tail(*c, upto);
    return c->replay_cursor >= c->output_log.size();
  });
}

void OptimisticEngine::collect_tails(
    std::vector<ChannelEndpoint*>& tails) const {
  for (const auto& c : ctx_.channels())
    if (c->replay_cursor < c->output_log.size()) tails.push_back(c.get());
}

void OptimisticEngine::scrub_retracted(const SnapshotPositions& positions) {
  ChannelSet& channels = ctx_.channels();
  Scheduler& scheduler = ctx_.scheduler();
  for (std::uint32_t i = 0; i < channels.size(); ++i) {
    ChannelEndpoint& c = channels[i];
    for (std::size_t k = 0; k < positions.in[i] && k < c.input_log.size();
         ++k) {
      const auto& record = c.input_log[k];
      if (!record.retracted) continue;
      // The restored queue preserves original seqs, so a record retracted
      // after the snapshot is erased by the exact entry it re-materialised.
      // If the record's copy was already consumed before the snapshot there
      // is no seq match and nothing is (wrongly) erased.
      scheduler.erase_events_if([&](const Event& e) {
        return e.seq == record.seq && e.target == c.channel_component;
      });
    }
  }
}

void OptimisticEngine::fossil_collect(VirtualTime gvt) {
  CheckpointManager& checkpoints = ctx_.checkpoints();
  const auto keep = checkpoints.latest_at_or_before(gvt);
  if (!keep) return;
  checkpoints.discard_before(*keep);
  for (auto it = snapshot_positions_.begin();
       it != snapshot_positions_.end();) {
    if (it->first < *keep)
      it = snapshot_positions_.erase(it);
    else
      ++it;
  }
  const SnapshotPositions& base = snapshot_positions_.at(*keep);
  ChannelSet& channels = ctx_.channels();
  for (std::uint32_t i = 0; i < channels.size(); ++i) {
    ChannelEndpoint& c = channels[i];
    const std::size_t trim_out = base.out[i];
    const std::size_t trim_in = base.in[i];
    c.output_log.erase(c.output_log.begin(),
                       c.output_log.begin() +
                           static_cast<std::ptrdiff_t>(trim_out));
    c.input_log.erase(c.input_log.begin(),
                      c.input_log.begin() +
                          static_cast<std::ptrdiff_t>(trim_in));
    c.injected_count -= trim_in;
    c.replay_cursor -= std::min(c.replay_cursor, trim_out);
    c.output_trimmed += trim_out;
    c.input_trimmed += trim_in;
    for (auto& [snap, positions] : snapshot_positions_) {
      positions.out[i] -= trim_out;
      positions.in[i] -= trim_in;
      positions.cursor[i] -= std::min(positions.cursor[i], trim_out);
    }
  }
}

}  // namespace pia::dist::sync
