#include "dist/sync/recovery.hpp"

#include "base/error.hpp"
#include "base/log.hpp"

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

}  // namespace pia::dist::sync
