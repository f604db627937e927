#include "dist/subsystem.hpp"

#include <algorithm>

#include "base/error.hpp"
#include "base/log.hpp"

namespace pia::dist {

Subsystem::Subsystem(std::string name, std::uint32_t numeric_id)
    : name_(std::move(name)),
      id_(numeric_id),
      scheduler_(name_),
      checkpoints_(scheduler_, CheckpointPolicy::kImmediate) {}

bool Subsystem::mode_change_allowed() const {
  // A flip must not race retirement (frozen floor), replica membership
  // (siblings must stay protocol-identical), or a rejoin handshake whose
  // counters are still unverified.
  if (retired() || replica_member_) return false;
  for (const auto& c : channels_)
    if (c->rejoin_token.has_value() && !c->rejoin_verified) return false;
  return true;
}

ChannelId Subsystem::add_channel(const std::string& channel_name,
                                 ChannelMode mode, transport::LinkPtr link) {
  PIA_REQUIRE(!started_, "add_channel after start on " + name_);
  const ChannelId id{static_cast<std::uint32_t>(channels_.size())};
  auto endpoint = std::make_unique<ChannelEndpoint>(channel_name, mode,
                                                    std::move(link), id_);
  endpoint->index = id.value();
  endpoint->set_batch_limit(channel_batch_limit_);
  auto proxy = std::make_unique<ChannelComponent>("__chan_" + channel_name);
  ChannelComponent& proxy_ref = *proxy;
  endpoint->channel_component = scheduler_.add(std::move(proxy));

  ChannelEndpoint* raw = endpoint.get();
  proxy_ref.set_outbound([this, raw](std::uint32_t net_index,
                                     const Value& value, VirtualTime time) {
    send_or_suppress(*raw, net_index, value, time);
  });
  channels_.add(std::move(endpoint));
  return id;
}

ChannelEndpoint& Subsystem::channel(ChannelId id) {
  return channels_.at(id);
}

std::uint32_t Subsystem::export_net(ChannelId channel_id, NetId local_net) {
  ChannelEndpoint& endpoint = channel(channel_id);
  auto& proxy = static_cast<ChannelComponent&>(
      scheduler_.component(endpoint.channel_component));
  const PortIndex hidden = proxy.add_split_net();
  scheduler_.attach(local_net, proxy.id(), proxy.port(hidden).name);
  endpoint.split_nets.push_back(local_net);
  return proxy.split_net_count() - 1;
}

void Subsystem::set_channel_batch_limit(std::uint32_t limit) {
  channel_batch_limit_ = limit == 0 ? 1 : limit;
  for (auto& c : channels_) c->set_batch_limit(channel_batch_limit_);
}

void Subsystem::set_lookahead(ChannelId channel_id, VirtualTime lookahead) {
  channel(channel_id).lookahead = lookahead;
}

void Subsystem::set_reaction_lookahead(ChannelId channel_id,
                                       VirtualTime lookahead) {
  channel(channel_id).reaction_lookahead = lookahead;
}

void Subsystem::send_runlevel(ChannelId channel_id,
                              const std::string& component,
                              const RunLevel& level) {
  channel(channel_id).send_message(RunLevelMsg{
      .component = component, .level_name = level.name,
      .detail = level.detail});
}

void Subsystem::start() {
  PIA_REQUIRE(!started_, "subsystem '" + name_ + "' already started");
  started_ = true;
  // Topology-derived self-restriction removal: an endpoint none of whose
  // split nets has a local driver besides the proxy's own hidden port can
  // never emit an event, so it owes the peer no finite safe-time promise
  // and no reaction slack.  Deriving this here (wiring is frozen once the
  // subsystem starts) is what lets a forward-only pipeline actually
  // pipeline: upstream stages are no longer throttled to the processing
  // frontier of stages that only ever listen.
  for (auto& cp : channels_) {
    ChannelEndpoint& c = *cp;
    bool drives = false;
    for (const NetId net_id : c.split_nets)
      for (const Endpoint& driver : scheduler_.net(net_id).drivers)
        drives |= driver.component != c.channel_component;
    c.can_send_events = drives;
    if (!drives) c.reaction_lookahead = VirtualTime::infinity();
  }
  conservative_.index_channels();
  scheduler_.init();
  // Base checkpoint: the rollback target of last resort.
  optimistic_.take_checkpoint();
}

void Subsystem::restore_snapshot_image(BytesView image) {
  PIA_REQUIRE(started_, "restore_snapshot_image before start() on " + name_);
  snapshot_.restore_image(image);
  // The image carried the cut's recorded modes; any half-open negotiation
  // belonged to the pre-crash timeline.
  adaptive_.reset();
}

bool Subsystem::drain() {
  // Replies provoked by the drained messages (grants, probe replies, ...)
  // batch up and go out together when the pass ends.
  FlushHold hold(channels_);
  bool any = false;
  bool progress = true;
  while (progress) {
    progress = false;
    // A pass visits the channels whose link notified (and those that
    // cannot notify); a quiet in-process channel costs it nothing.
    channels_.for_each_ready([&](std::uint32_t i) {
      while (auto message = channels_[i].poll()) {
        handle_message(ChannelId{i}, std::move(*message));
        progress = true;
        any = true;
      }
    });
  }
  return any;
}

void Subsystem::handle_message(ChannelId channel_id, ChannelMessage message) {
  ChannelEndpoint& endpoint = channel(channel_id);
  std::visit(
      [&](auto&& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, EventMsg>) {
          handle_event(channel_id, std::move(m));
        } else if constexpr (std::is_same_v<T, SafeTimeRequest>) {
          conservative_.on_request(channel_id, m);
        } else if constexpr (std::is_same_v<T, SafeTimeGrant>) {
          conservative_.on_grant(channel_id, m);
        } else if constexpr (std::is_same_v<T, MarkMsg>) {
          snapshot_.on_mark(channel_id, m);
        } else if constexpr (std::is_same_v<T, RetractMsg>) {
          optimistic_.on_retract(channel_id, m);
        } else if constexpr (std::is_same_v<T, RunLevelMsg>) {
          conservative_.note_activity();
          scheduler_.set_runlevel(m.component,
                                  RunLevel{m.level_name, m.detail});
        } else if constexpr (std::is_same_v<T, StatusMsg>) {
          const bool moved = !endpoint.peer_status_seen ||
                             endpoint.peer_status.idle != m.idle ||
                             endpoint.peer_status.msgs_sent != m.msgs_sent ||
                             endpoint.peer_status.msgs_received !=
                                 m.msgs_received;
          endpoint.peer_status = m;
          endpoint.peer_status_seen = true;
          if (moved) conservative_.note_peer_status_changed();
        } else if constexpr (std::is_same_v<T, ProbeMsg>) {
          conservative_.on_probe(channel_id, m);
        } else if constexpr (std::is_same_v<T, ProbeReply>) {
          conservative_.on_probe_reply(m);
        } else if constexpr (std::is_same_v<T, TerminateMsg>) {
          conservative_.on_terminate(channel_id, m);
        } else if constexpr (std::is_same_v<T, HeartbeatMsg>) {
          recovery_.on_heartbeat(channel_id, m);
        } else if constexpr (std::is_same_v<T, RejoinMsg>) {
          recovery_.on_rejoin(channel_id, m);
        } else if constexpr (std::is_same_v<T, ModeProposalMsg>) {
          adaptive_.on_proposal(channel_id, m);
        } else if constexpr (std::is_same_v<T, ModeAckMsg>) {
          adaptive_.on_ack(channel_id, m);
        } else if constexpr (std::is_same_v<T, ModeCommitMsg>) {
          adaptive_.on_commit(channel_id, m);
        } else if constexpr (std::is_same_v<T, ModeResumeMsg>) {
          adaptive_.on_resume(channel_id, m);
        }
      },
      std::move(message));
}

void Subsystem::handle_event(ChannelId channel_id, EventMsg event) {
  ChannelEndpoint& endpoint = channel(channel_id);
  sync::EngineContext::stats().events_received++;
  ++endpoint.event_msgs_received;
  conservative_.note_activity();
  PIA_OBS_TRACE(scheduler_.trace(), obs::TraceKind::kChannelRecv, event.time,
                endpoint.index, event.net_index);

  // Chandy–Lamport channel-state recording: events arriving between our
  // local checkpoint and this channel's mark belong to the channel state.
  snapshot_.on_event_received(channel_id, event);

  if (event.time < scheduler_.now()) {
    if (endpoint.mode() == ChannelMode::kConservative) {
      raise(ErrorKind::kConsistency,
            "conservative channel '" + endpoint.name() +
                "' delivered an event at " + event.time.str() +
                " behind subsystem time " + scheduler_.now().str() +
                " [sub=" + name_ + " granted_in=" +
                endpoint.granted_in.str() + " granted_in_seen=" +
                std::to_string(endpoint.granted_in_seen) + " sent=" +
                std::to_string(endpoint.event_msgs_sent) + " recv=" +
                std::to_string(endpoint.event_msgs_received) + "]");
    }
    // Optimistic straggler: rewind first, then apply.
    optimistic_.rollback(event.time, std::nullopt);
  }

  endpoint.input_log.push_back(ChannelEndpoint::InputRecord{
      .id = event.id,
      .net_index = event.net_index,
      .time = event.time,
      .value = event.value});
  optimistic_.inject_input(endpoint, endpoint.input_log.back());
  endpoint.injected_count = endpoint.input_log.size();
}

void Subsystem::send_or_suppress(ChannelEndpoint& endpoint,
                                 std::uint32_t net_index, const Value& value,
                                 VirtualTime time) {
  if (optimistic_.suppress_regeneration(endpoint, net_index, value, time))
    return;
  endpoint.send_event(net_index, value, time);
  endpoint.replay_cursor = endpoint.output_log.size();
  if (burst_.open && endpoint.mode() == ChannelMode::kConservative)
    burst_.barrier = min(burst_.barrier, endpoint.effective_grant());
  sync::EngineContext::stats().events_sent++;
  PIA_OBS_TRACE(scheduler_.trace(), obs::TraceKind::kChannelSend, time,
                endpoint.index, net_index);
}

Subsystem::StepResult Subsystem::try_advance(VirtualTime horizon) {
  const BurstScope scope(burst_);
  return advance_in_burst(horizon);
}

Subsystem::StepResult Subsystem::advance_in_burst(VirtualTime horizon) {
  const VirtualTime t = scheduler_.next_event_time();
  if (t.is_infinite() || t > horizon) return StepResult::kIdle;
  // Mode-negotiation hold: nothing dispatches (and so nothing sends)
  // between agreeing to a flip and performing it — the straddle-freedom of
  // the renegotiation rests on exactly this.
  if (adaptive_.hold()) return StepResult::kBlocked;
  if (!burst_.open) {
    burst_.open = true;
    burst_.barrier = conservative_.barrier();
    burst_.optimistic = optimistic_.has_optimistic_channel();
    optimistic_.collect_tails(burst_.tails);
  }
#ifndef NDEBUG
  verify_burst();
#endif
  if (t > burst_.barrier) return StepResult::kBlocked;
  // Unconfirmed outputs older than the next dispatch cannot be regenerated
  // any more (send times are monotone): retract them now.
  if (!burst_.tails.empty()) optimistic_.flush_unregenerated(t, burst_.tails);
  scheduler_.step();
  conservative_.note_activity();
  if (burst_.optimistic) optimistic_.on_dispatch();
  snapshot_.on_dispatch();
  return StepResult::kStepped;
}

void Subsystem::verify_burst() const {
  bool tails_covered = true;
  for (const auto& c : channels_)
    if (c->replay_cursor < c->output_log.size() &&
        std::find(burst_.tails.begin(), burst_.tails.end(), c.get()) ==
            burst_.tails.end())
      tails_covered = false;
  if (burst_.barrier != conservative_.barrier() ||
      burst_.optimistic != optimistic_.has_optimistic_channel() ||
      !tails_covered)
    raise(ErrorKind::kConsistency,
          "advance burst on '" + name_ + "' cached barrier " +
              burst_.barrier.str() + " against " +
              conservative_.barrier().str() +
              (tails_covered ? "" : ", an unconfirmed tail missed"));
}

std::optional<Subsystem::RunOutcome> Subsystem::run_slice(
    const RunConfig& config, bool& progressed) {
  PIA_REQUIRE(started_, "run_slice() before start() on " + name_);
  // The slice owns the scheduler for its duration; a second worker slicing
  // concurrently dies here instead of corrupting the event queue.
  const Scheduler::ConfinementGuard confined(scheduler_);

  // One frame per loop slice: everything the drain / advance burst /
  // grant and status push emit on a channel shares a batch.  The caller's
  // idle wait happens outside the hold so replies flush first.
  FlushHold hold(channels_);
  // Every grant this slice sends declares our need, which is capped by
  // this run's horizon.
  conservative_.set_horizon(config.horizon);
  progressed = drain();

  // A dead link can never deliver the grants, retractions or probe
  // replies the protocols below wait for: give up cleanly rather than
  // spinning into the stall timeout.
  for (const auto& c : channels_)
    if (c->peer_closed) return RunOutcome::kDisconnected;

  // Beacon-send is decoupled from the slice loop: it fires here and again
  // inside the advance burst, and each beacon is flushed past the batch
  // hold — a worker pinned in a long slice keeps proving it is alive.
  recovery_.service_beacons();

  bool blocked = false;
  {
    const BurstScope scope(burst_);
    for (int burst = 0; burst < 256; ++burst) {
      const StepResult result = advance_in_burst(config.horizon);
      if (result == StepResult::kStepped) {
        progressed = true;
        // Heavy components make bursts long; keep the beacons flowing.
        // service_beacons is self-gating on the interval, so this costs one
        // clock read every 32 dispatches.
        if ((burst & 31) == 31) recovery_.service_beacons();
        continue;
      }
      blocked = (result == StepResult::kBlocked);
      break;
    }
  }

  conservative_.push_grants();
  conservative_.push_status_if_changed();
  adaptive_.tick();

  if (conservative_.terminated()) return RunOutcome::kQuiescent;
  if (channels_.empty() && scheduler_.idle()) return RunOutcome::kQuiescent;

  if (blocked) conservative_.on_blocked();

  // Liveness: a peer that stopped sending *anything* (not even heartbeats)
  // is down even though the transport still looks open.
  if (recovery_.judge_liveness()) return RunOutcome::kPeerDown;

  // Horizon exit (finite horizons only): everything below the horizon is
  // done and conservative grants guarantee nothing earlier can still
  // arrive.  Infinite-horizon quiescence always goes through the
  // termination probe instead — exiting unilaterally on infinite grants
  // left peers that still needed our probe replies stalled forever
  // (fuzz_cluster seed 13: a conservative leaf next to a mixed chain).
  // (Never mid-negotiation: a hold means the peer still owes us handshake
  // messages; exiting now would strand it holding forever.)
  const VirtualTime t = scheduler_.next_event_time();
  if (!config.horizon.is_infinite() && (t.is_infinite() || t > config.horizon) &&
      conservative_.barrier() >= config.horizon &&
      !optimistic_.has_optimistic_channel() && !adaptive_.hold()) {
    return RunOutcome::kHorizon;
  }

  conservative_.maybe_start_probe();
  return std::nullopt;
}

std::chrono::milliseconds Subsystem::idle_wait_hint() const {
  auto wait = std::chrono::milliseconds(10);
  if (recovery_.heartbeat_interval().count() > 0)
    wait = std::min(wait, recovery_.heartbeat_interval());
  return wait;
}

Subsystem::RunOutcome Subsystem::run(const RunConfig& config) {
  PIA_REQUIRE(started_, "run() before start() on " + name_);
  auto last_progress = std::chrono::steady_clock::now();

  for (;;) {
    bool progressed = false;
    if (const auto outcome = run_slice(config, progressed)) return *outcome;

    if (progressed) {
      last_progress = std::chrono::steady_clock::now();
      continue;
    }

    // Nothing to do locally: one unified wait on every channel at once
    // (shared readiness signal + kernel fds), so the wake latency is
    // independent of the channel count.  Whatever arrives is consumed by
    // the next pass's drain, inside its flush hold.
    if (channels_.wait_any(idle_wait_hint())) {
      last_progress = std::chrono::steady_clock::now();
      continue;
    }
    if (std::chrono::steady_clock::now() - last_progress >
        config.stall_timeout) {
      return RunOutcome::kStalled;
    }
  }
}

// ---------------------------------------------------------------------------
// GVT
// ---------------------------------------------------------------------------

VirtualTime Subsystem::local_virtual_floor() const {
  // Valid at a drained barrier (no messages in flight anywhere): every sent
  // event is then reflected in some subsystem's queue, so the local floor is
  // simply the next unprocessed event time.
  return scheduler_.next_event_time();
}

}  // namespace pia::dist
