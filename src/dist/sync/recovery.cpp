#include "dist/sync/recovery.hpp"

#include <algorithm>

#include "base/error.hpp"
#include "base/log.hpp"
#include "serial/archive.hpp"

namespace pia::dist::sync {

void RecoveryCoordinator::service_beacons() {
  if (heartbeat_interval_.count() <= 0) return;
  const auto now = std::chrono::steady_clock::now();
  for (auto& cp : ctx_.channels()) {
    ChannelEndpoint& c = *cp;
    if (!c.liveness_armed) {
      // Lazy arming: timers start on the first serviced loop pass, not at
      // wiring time, so a peer's slow startup is not mistaken for death.
      c.liveness_armed = true;
      c.last_arrival = now;
      c.last_heartbeat_sent = now - heartbeat_interval_;  // beacon at once
    }
    if (now - c.last_heartbeat_sent >= heartbeat_interval_) {
      c.send_message(HeartbeatMsg{.seq = c.heartbeat_seq++});
      // The beacon must reach the wire NOW.  Inside a slice the batch
      // FlushHold defers sends to slice end, and a long slice would hold
      // the beacon past the peer's liveness timeout — the classic
      // heartbeat false positive under load.
      c.flush();
      c.last_heartbeat_sent = now;
      ctx_.stats().heartbeats_sent++;
      PIA_OBS_TRACE(ctx_.scheduler().trace(), obs::TraceKind::kHeartbeat,
                    ctx_.scheduler().now(), c.index, c.heartbeat_seq);
    }
    // The receive-side half: a burst that neither drains nor polls would
    // let last_arrival go stale and judge a live, beaconing peer silent.
    // Priming pulls waiting frames into the inbound queue (stamping the
    // arrival clock) without delivering anything out of order.
    c.prime_inbound();
  }
}

bool RecoveryCoordinator::judge_liveness() {
  if (heartbeat_interval_.count() <= 0) return false;
  const auto now = std::chrono::steady_clock::now();
  bool any_down = false;
  for (auto& cp : ctx_.channels()) {
    ChannelEndpoint& c = *cp;
    if (!c.liveness_armed) continue;
    // Silence alone is the verdict: beacons are sent (and flushed) from
    // inside the slice loop, so a live peer keeps arriving no matter how
    // loaded it is — what remains silent past the timeout is dead.
    if (!c.peer_down && heartbeat_timeout_.count() > 0 &&
        now - c.last_arrival > heartbeat_timeout_) {
      c.peer_down = true;
      ctx_.stats().peer_down_events++;
      PIA_OBS_TRACE(ctx_.scheduler().trace(), obs::TraceKind::kPeerDown,
                    ctx_.scheduler().now(), c.index);
    }
    any_down = any_down || c.peer_down;
  }
  return any_down;
}

void RecoveryCoordinator::on_heartbeat(ChannelId channel_id,
                                       const HeartbeatMsg& /*heartbeat*/) {
  // Liveness content is the arrival itself; poll() already stamped
  // last_arrival.
  ctx_.stats().heartbeats_received++;
  ctx_.channels().at(channel_id).heartbeats_received++;
}

Bytes RecoveryCoordinator::export_image(std::uint64_t token) const {
  const PendingSnapshot* pending = ctx_.find_snapshot(token);
  PIA_REQUIRE(pending != nullptr, "unknown snapshot token");
  PIA_REQUIRE(std::none_of(pending->mark_pending.begin(),
                           pending->mark_pending.end(),
                           [](bool p) { return p; }),
              "export of an incomplete distributed snapshot");
  const CheckpointManager& checkpoints = ctx_.checkpoints();
  const Scheduler& scheduler = ctx_.scheduler();
  const ChannelSet& channels = ctx_.channels();
  PIA_REQUIRE(checkpoints.contains(pending->local),
              "snapshot's local checkpoint was discarded on " +
                  ctx_.subsystem_name());

  serial::OutArchive ar;
  // Version 2: events use the compact port encoding (see Event::save).
  // Version 3: per-channel mode is the CUT-recorded (mode, epoch) pair —
  // a renegotiation completing after the cut's checkpoint must not leak
  // its flipped mode into an image of the pre-flip state.
  serial::begin_section(ar, "pia.dist.recovery", 3);
  ar.put_string(ctx_.subsystem_name());
  ar.put_varint(token);
  ar.put_varint(ctx_.snapshot_next_token());
  serial::write(ar, checkpoints.snapshot_time(pending->local));

  // Component images, matched by name at restore (ids are assigned in
  // construction order, but names make wiring mismatches loud).
  const std::vector<ComponentId> comps = scheduler.component_ids();
  ar.put_varint(comps.size());
  for (const ComponentId comp : comps) {
    ar.put_string(scheduler.component(comp).name());
    ar.put_bytes(checkpoints.snapshot_image(pending->local, comp));
  }

  // The event queue at the cut, original seqs included: replace_queue
  // raises the restoring scheduler's counter past them so replayed
  // injections keep sorting after the restored events.
  const std::vector<Event> events = checkpoints.snapshot_events(pending->local);
  ar.put_varint(events.size());
  for (const Event& e : events) e.save(ar);

  const auto put_record = [&ar](const auto& record) {
    ar.put_varint(record.id.origin);
    ar.put_varint(record.id.counter);
    ar.put_varint(record.net_index);
    serial::write(ar, record.time);
    record.value.save(ar);
    ar.put_bool(record.retracted);
  };

  ar.put_varint(channels.size());
  for (std::uint32_t i = 0; i < channels.size(); ++i) {
    const ChannelEndpoint& c = channels[i];
    ar.put_string(c.name());
    const ChannelMode cut_mode =
        i < pending->modes.size() ? pending->modes[i] : c.mode();
    const std::uint64_t cut_epoch =
        i < pending->mode_epochs.size() ? pending->mode_epochs[i]
                                        : c.mode_epoch();
    ar.put_u8(static_cast<std::uint8_t>(cut_mode));
    ar.put_varint(cut_epoch);
    const std::size_t out =
        std::min(pending->positions.out[i], c.output_log.size());
    ar.put_varint(out);
    for (std::size_t k = 0; k < out; ++k) put_record(c.output_log[k]);
    const std::size_t in =
        std::min(pending->positions.in[i], c.input_log.size());
    ar.put_varint(in);
    for (std::size_t k = 0; k < in; ++k) put_record(c.input_log[k]);
    ar.put_varint(std::min(pending->positions.cursor[i], out));
    ar.put_varint(c.output_trimmed);
    ar.put_varint(c.input_trimmed);
    ar.put_varint(c.send_counter());
    // The channel state proper: events in flight at the cut.
    const auto& recorded = pending->recorded[i];
    ar.put_varint(recorded.size());
    for (const EventMsg& event : recorded) {
      ar.put_varint(event.id.origin);
      ar.put_varint(event.id.counter);
      ar.put_varint(event.net_index);
      serial::write(ar, event.time);
      event.value.save(ar);
    }
  }
  return std::move(ar).take();
}

void RecoveryCoordinator::restore_image(BytesView image) {
  serial::InArchive ar(image);
  const std::uint32_t version =
      serial::expect_section(ar, "pia.dist.recovery");
  if (version < 1 || version > 3)
    raise(ErrorKind::kSerialization,
          "unsupported recovery image version " + std::to_string(version));
  // Version-1 images carry the old raw Event port encoding.
  const bool legacy_events = version == 1;
  const std::string owner = ar.get_string();
  if (owner != ctx_.subsystem_name())
    raise(ErrorKind::kState, "recovery image belongs to subsystem '" + owner +
                                 "', not '" + ctx_.subsystem_name() + "'");
  const std::uint64_t token = ar.get_varint();
  const std::uint64_t next_cl_token = ar.get_varint();
  const VirtualTime cut_now = serial::read<VirtualTime>(ar);

  Scheduler& scheduler = ctx_.scheduler();
  ChannelSet& channels = ctx_.channels();

  // Whatever this process did in its brief pre-restore life is void.
  ctx_.checkpoints().discard_all();
  ctx_.clear_positions();
  ctx_.reset_snapshots(next_cl_token);

  const std::uint64_t comp_count = ar.get_varint();
  if (comp_count != scheduler.component_count())
    raise(ErrorKind::kState,
          "recovery image has " + std::to_string(comp_count) +
              " components, subsystem '" + ctx_.subsystem_name() + "' has " +
              std::to_string(scheduler.component_count()));
  for (std::uint64_t k = 0; k < comp_count; ++k) {
    const std::string comp_name = ar.get_string();
    const Bytes comp_image = ar.get_bytes();
    Component* comp = scheduler.find_component(comp_name);
    if (comp == nullptr)
      raise(ErrorKind::kState,
            "recovery image names unknown component '" + comp_name + "'");
    comp->restore_image(comp_image);
  }

  const std::uint64_t event_count = ar.get_varint();
  std::vector<Event> events;
  events.reserve(event_count);
  for (std::uint64_t k = 0; k < event_count; ++k)
    events.push_back(Event::load(ar, legacy_events));
  scheduler.replace_queue(std::move(events));
  scheduler.set_now(cut_now);

  const std::uint64_t channel_count = ar.get_varint();
  if (channel_count != channels.size())
    raise(ErrorKind::kState,
          "recovery image has " + std::to_string(channel_count) +
              " channels, subsystem '" + ctx_.subsystem_name() + "' has " +
              std::to_string(channels.size()));
  SnapshotPositions prefix;  // for the retracted-delivery scrub below
  for (std::uint32_t i = 0; i < channels.size(); ++i) {
    ChannelEndpoint& c = channels[i];
    const std::string channel_name = ar.get_string();
    if (channel_name != c.name())
      raise(ErrorKind::kState, "recovery image channel '" + channel_name +
                                   "' does not match '" + c.name() + "'");
    // Adopt the image's (mode, epoch): with runtime renegotiation the
    // construction-time mode is only a default, and the cut the cluster is
    // restoring to is the authority on what was live.  The epoch is adopted
    // verbatim so both endpoints' fences stay equal (the peer restores the
    // same cut — from its own image or its in-memory snapshot of it).
    const auto mode = static_cast<ChannelMode>(ar.get_u8());
    const std::uint64_t mode_epoch = version >= 3 ? ar.get_varint() : 0;
    c.restore_mode(mode, mode_epoch);

    c.output_log.clear();
    const std::uint64_t out_count = ar.get_varint();
    c.output_log.reserve(out_count);
    for (std::uint64_t k = 0; k < out_count; ++k) {
      ChannelEndpoint::OutputRecord r;
      r.id.origin = static_cast<std::uint32_t>(ar.get_varint());
      r.id.counter = ar.get_varint();
      r.net_index = static_cast<std::uint32_t>(ar.get_varint());
      r.time = serial::read<VirtualTime>(ar);
      r.value = Value::load(ar);
      r.retracted = ar.get_bool();
      c.output_log.push_back(std::move(r));
    }
    c.input_log.clear();
    const std::uint64_t in_count = ar.get_varint();
    c.input_log.reserve(in_count);
    for (std::uint64_t k = 0; k < in_count; ++k) {
      ChannelEndpoint::InputRecord r;
      r.id.origin = static_cast<std::uint32_t>(ar.get_varint());
      r.id.counter = ar.get_varint();
      r.net_index = static_cast<std::uint32_t>(ar.get_varint());
      r.time = serial::read<VirtualTime>(ar);
      r.value = Value::load(ar);
      r.retracted = ar.get_bool();
      c.input_log.push_back(std::move(r));
    }
    c.replay_cursor = std::min<std::size_t>(ar.get_varint(),
                                            c.output_log.size());
    c.output_trimmed = ar.get_varint();
    c.input_trimmed = ar.get_varint();
    c.set_send_counter(ar.get_varint());
    // The input prefix was already injected at the cut: its undispatched
    // deliveries travel inside the restored queue.
    c.injected_count = c.input_log.size();
    prefix.out.push_back(c.output_log.size());
    prefix.in.push_back(c.input_log.size());
    prefix.cursor.push_back(c.replay_cursor);

    // The recorded channel state — events in flight at the cut — is
    // re-delivered now.  The persist gate guarantees none of them predates
    // the cut, so these injections never hit the straggler path.
    const std::uint64_t recorded_count = ar.get_varint();
    for (std::uint64_t k = 0; k < recorded_count; ++k) {
      ChannelEndpoint::InputRecord r;
      r.id.origin = static_cast<std::uint32_t>(ar.get_varint());
      r.id.counter = ar.get_varint();
      r.net_index = static_cast<std::uint32_t>(ar.get_varint());
      r.time = serial::read<VirtualTime>(ar);
      r.value = Value::load(ar);
      c.input_log.push_back(std::move(r));
      ctx_.inject_input(c, c.input_log.back());
      c.injected_count = c.input_log.size();
    }
    c.event_msgs_sent = c.output_trimmed + c.output_log.size();
    c.event_msgs_received = c.input_trimmed + c.input_log.size();
    c.retract_msgs_sent = 0;
    c.retract_msgs_received = 0;

    // Fresh process, fresh negotiation: grants, statuses and liveness all
    // restart from scratch, symmetrically with the recovering peer.
    c.reset_grants();
    c.peer_status_seen = false;
    c.msgs_sent = 0;
    c.msgs_received = 0;
    c.msgs_sent_at_last_status_push = UINT64_MAX;
    c.idle_at_last_status_push = false;
    c.peer_closed = false;
    c.peer_down = false;
    c.liveness_armed = false;
  }

  // Remove queued deliveries whose input record was retracted after the
  // cut (the retraction is part of the committed global state).
  ctx_.scrub_retracted(prefix);

  ctx_.reset_termination();
  ctx_.note_activity();

  // The restored cut becomes the rollback target of last resort.
  ctx_.take_checkpoint();

  ctx_.stats().recoveries++;
  PIA_OBS_TRACE(scheduler.trace(), obs::TraceKind::kRecover,
                scheduler.now(), token);
}

void RecoveryCoordinator::begin_rejoin(std::uint64_t token) {
  for (auto& cp : ctx_.channels()) {
    ChannelEndpoint& c = *cp;
    c.rejoin_token = token;
    c.rejoin_verified = false;
    // Freeze the cut's counters: execution may legitimately resume (and
    // advance the live counters) before the peer's RejoinMsg arrives.
    c.rejoin_sent = c.event_msgs_sent;
    c.rejoin_received = c.event_msgs_received;
    c.send_message(RejoinMsg{.token = token,
                             .events_sent = c.rejoin_sent,
                             .events_received = c.rejoin_received});
  }
}

void RecoveryCoordinator::on_rejoin(ChannelId channel_id,
                                    const RejoinMsg& rejoin) {
  ChannelEndpoint& c = ctx_.channels().at(channel_id);
  ctx_.note_activity();
  if (rejoin.protocol != kChannelProtocolVersion)
    raise(ErrorKind::kProtocol,
          "rejoin protocol mismatch on channel '" + c.name() +
              "': peer speaks version " + std::to_string(rejoin.protocol) +
              ", local side version " +
              std::to_string(kChannelProtocolVersion));
  if (!c.rejoin_token.has_value() || *c.rejoin_token != rejoin.token)
    raise(ErrorKind::kProtocol,
          "rejoin token mismatch on channel '" + c.name() +
              "': peer restored " + std::to_string(rejoin.token) +
              ", local side " +
              (c.rejoin_token
                   ? "restored " + std::to_string(*c.rejoin_token)
                   : std::string("has no rejoin in progress")));
  // My sent-at-the-cut must be your received-at-the-cut and vice versa, or
  // the two sides restored inconsistent cuts and resuming would diverge
  // silently.  Both sides compare the counters frozen by begin_rejoin():
  // FIFO puts the peer's RejoinMsg ahead of any of its post-restore event
  // traffic, but the *local* live counters may already have moved on.
  if (rejoin.events_sent != c.rejoin_received ||
      rejoin.events_received != c.rejoin_sent)
    raise(ErrorKind::kProtocol,
          "rejoin sequence mismatch on channel '" + c.name() +
              "': peer sent " + std::to_string(rejoin.events_sent) +
              "/received " + std::to_string(rejoin.events_received) +
              ", local received " + std::to_string(c.rejoin_received) +
              "/sent " + std::to_string(c.rejoin_sent));
  c.rejoin_verified = true;
  ctx_.stats().rejoins_verified++;
}

void RecoveryCoordinator::replace_link(ChannelId channel_id,
                                       transport::LinkPtr link) {
  ctx_.channels().replace_link(channel_id, std::move(link));
}

}  // namespace pia::dist::sync
