#include "dist/sync/conservative.hpp"

#include "base/log.hpp"

namespace pia::dist::sync {

void ConservativeEngine::on_request(ChannelId channel_id,
                                    const SafeTimeRequest& request) {
  ChannelEndpoint& endpoint = ctx_.channels().at(channel_id);
  endpoint.note_peer_need(request.need_by, request.events_seen);
  // Answered by the slice's push_grants, from the one pricing it makes for
  // every channel; the answer leaves in the same held frame either way.
  endpoint.owed_answer = request.request_id;
}

void ConservativeEngine::on_grant(ChannelId channel_id,
                                  const SafeTimeGrant& grant) {
  ChannelEndpoint& endpoint = ctx_.channels().at(channel_id);
  // FIFO: later grants reflect later grantor states; overwrite.
  endpoint.granted_in = grant.safe_time;
  endpoint.granted_in_seen = grant.events_seen;
  endpoint.granted_in_lookahead = grant.lookahead;
  endpoint.note_peer_need(grant.need_by, grant.events_seen);
  endpoint.request_outstanding = false;
  ctx_.stats().grants_received++;
  PIA_OBS_TRACE(ctx_.scheduler().trace(), obs::TraceKind::kGrant,
                grant.safe_time, endpoint.index, grant.events_seen);
}

void ConservativeEngine::send_grant(ChannelEndpoint& c,
                                    std::uint64_t request_id,
                                    VirtualTime grant) {
  c.granted_out = grant;
  c.granted_out_seen = c.event_msgs_received;
  c.send_message(SafeTimeGrant{.request_id = request_id,
                               .safe_time = grant,
                               .events_seen = c.granted_out_seen,
                               .lookahead = horizon_priced_ ? slack_[c.index]
                                                      : c.reaction_lookahead,
                               .need_by = need_on(c)});
  ctx_.stats().grants_sent++;
}

VirtualTime ConservativeEngine::need_on(const ChannelEndpoint& c) const {
  // With another channel, a relay builds the promises it makes there from
  // this channel's grant, and a receive-only channel can deliver an event
  // below any need declared here, unseen by this grantor: either way every
  // improvement may be of use.  An optimistic channel never blocks on its
  // grant and takes every floor; a replica member asks for everything too
  // (see set_replica_member).
  if (c.mode() != ChannelMode::kConservative || replica_member_ ||
      ctx_.channels().size() > 1)
    return VirtualTime::zero();
  // A leaf's grant serves only the barrier and the horizon exit: a promise
  // helps once it covers the next event, or the horizon when that comes
  // first (an idle subsystem at a finite horizon leaves on it).
  return min(ctx_.scheduler().next_event_time(), horizon_);
}

void ConservativeEngine::index_channels() {
  const ChannelSet& channels = ctx_.channels();
  proxy_channel_.clear();
  proxy_rx_.assign(channels.size(), kNoPort);
  for (std::uint32_t i = 0; i < channels.size(); ++i) {
    const ComponentId proxy = channels[i].channel_component;
    if (!proxy.valid()) continue;
    if (proxy.value() >= proxy_channel_.size())
      proxy_channel_.resize(proxy.value() + 1, kNoChannel);
    proxy_channel_[proxy.value()] = i;
    proxy_rx_[i] = static_cast<const ChannelComponent&>(
                       ctx_.scheduler().component(proxy))
                       .rx_port();
  }
  horizons_.build(ctx_.scheduler(), channels);
}

std::uint32_t ConservativeEngine::crossing_channel(const Event& e) const {
  if (e.kind != EventKind::kDeliver ||
      e.target.value() >= proxy_channel_.size())
    return kNoChannel;
  const std::uint32_t channel = proxy_channel_[e.target.value()];
  if (channel == kNoChannel || e.port == proxy_rx_[channel]) return kNoChannel;
  return channel;
}

void ConservativeEngine::price_grants(std::uint32_t first,
                                      std::uint32_t last) {
  const ChannelSet& channels = ctx_.channels();
  const std::uint32_t n = static_cast<std::uint32_t>(channels.size());
  horizon_priced_ = false;
  if (horizons_.active()) {
    // A speculating subsystem's state may yet be rolled back, so only a
    // fully conservative one promises from it.
    bool conservative = true;
    for (std::uint32_t i = 0; i < n; ++i)
      conservative &= channels[i].mode() == ChannelMode::kConservative;
    if (conservative) {
      price_horizons(first, last);
      horizon_priced_ = true;
      return;
    }
  }
  // Self-restriction removal in O(1) per channel: the promise to channel i
  // is bounded by every OTHER channel's grant, which is the smallest
  // effective grant unless i holds it, and then the second smallest.
  //
  // Every channel restricts the promise, optimistic ones included: an
  // optimistic peer's pushed floor bounds the stragglers it can still send
  // us, and a rollback they trigger here may regenerate sends to the
  // requester no earlier than that floor.  Ignoring optimistic channels let
  // a mixed subsystem promise infinity to a conservative peer before its
  // optimistic upstream had produced anything (fuzz_cluster seed 2).
  VirtualTime lowest = VirtualTime::infinity();
  VirtualTime second = VirtualTime::infinity();
  std::uint32_t lowest_channel = kNoChannel;
  VirtualTime reach = VirtualTime::zero();
  for (std::uint32_t i = 0; i < n; ++i) {
    const ChannelEndpoint& c = channels[i];
    const VirtualTime grant = c.effective_grant();
    if (grant < lowest) {
      second = lowest;
      lowest = grant;
      lowest_channel = i;
    } else if (grant < second) {
      second = grant;
    }
    if (i >= first && i < last && c.can_send_events)
      reach = max(reach, c.lookahead);
  }

  // Split the pending events by what they mean to each channel.  A
  // delivery already queued for a channel's own proxy on a hidden
  // (split-net) port IS a crossing: its timestamp carries the full
  // sender-side net delay and the proxy forwards it to the peer unchanged,
  // so it arrives at exactly event.time — no lookahead applies on top.
  // Folding these into a flat next_event_time() + lookahead over-promised
  // by exactly the lookahead whenever a relay routed a value onto the
  // channel without advancing its own clock past the net delay first
  // (delay-carrying split nets, e.g. the scale-out station fan-in).
  // Everything else — wakes, ordinary local deliveries, deliveries bound
  // for other channels, and rx-port injections (whose causal responses
  // re-cross no earlier than their own stamp plus the net delay the
  // lookahead declares) — is plain local work and still earns it.
  //
  // So the promise to i is min(min(bound_i, local_i) + lookahead_i,
  // crossing_i), where bound_i covers the other channels and i's
  // unconfirmed outputs, and local_i can be taken as `next`, the earliest
  // pending stamp.  The earliest event is either plain work for i, making
  // `next` exactly i's local horizon, or i's own crossing, which caps the
  // promise at `next` anyway: the walk below records it whenever
  // lookahead_i > 0, and with zero lookahead min(bound_i, next) is already
  // at most `next`.  A crossing at or past next + lookahead_i cannot lower
  // the promise, so one walk over the events earlier than next plus the
  // largest priced lookahead finds every crossing that matters and prunes
  // the rest of the heap.  grants_ holds each channel's earliest crossing
  // until the last loop turns it into the grant.
  const Scheduler& scheduler = ctx_.scheduler();
  const VirtualTime next = scheduler.next_event_time();
  grants_.assign(n, VirtualTime::infinity());
  scheduler.for_each_pending_before(next + reach, [&](const Event& e) {
    const std::uint32_t channel = crossing_channel(e);
    if (channel != kNoChannel)
      grants_[channel] = min(grants_[channel], e.time);
  });

  for (std::uint32_t i = first; i < last; ++i) {
    const ChannelEndpoint& c = channels[i];
    // Sink-side endpoint (no local driver can route onto it, derived at
    // start()): nothing will ever be sent to the requester, so the honest
    // promise is infinity regardless of local progress.  This is the
    // paper's self-restriction removal extended to topology: without it the
    // grant is capped by next_event_time() and a forward-only pipeline
    // degenerates to virtual-time lockstep, every stage waiting on its
    // downstream listener.
    if (!c.can_send_events) {
      grants_[i] = VirtualTime::infinity();
      continue;
    }
    VirtualTime bound = i == lowest_channel ? second : lowest;
    // Unconfirmed outputs already sent to the requester can still be
    // retracted at their recorded times if re-execution diverges: they
    // bound the promise too.  The first live entry is the earliest: an
    // execution sends in time order, and a re-execution appends only after
    // consuming (at an equal stamp) or retracting every live entry of the
    // tail, so live entries stay in time order.
    for (std::size_t k = c.replay_cursor; k < c.output_log.size(); ++k) {
      if (c.output_log[k].retracted) continue;
      bound = min(bound, c.output_log[k].time);
      break;
    }
    grants_[i] = min(min(bound, next) + c.lookahead, grants_[i]);
  }
}

void ConservativeEngine::price_horizons(std::uint32_t first,
                                        std::uint32_t last) {
  // The promise to i is the earliest crossing its state allows: what the
  // declaring components' quiet_until permits, every other channel's
  // effective grant plus the path from its deliveries, i's first live
  // unconfirmed output plus the lookahead (as above), and every pending
  // event plus its own path latency.  Latencies never go negative, so the
  // walk stops at the best promise found so far.
  const ChannelSet& channels = ctx_.channels();
  const Scheduler& scheduler = ctx_.scheduler();
  grants_.resize(channels.size());
  slack_.resize(channels.size());
  for (std::uint32_t i = first; i < last; ++i) {
    const ChannelEndpoint& c = channels[i];
    if (!c.can_send_events) {
      grants_[i] = VirtualTime::infinity();
      slack_[i] = VirtualTime::infinity();
      continue;
    }
    horizons_.solve(i, c.lookahead);
    VirtualTime earliest = horizons_.quiet(c.lookahead);
    for (std::uint32_t j = 0; j < channels.size(); ++j)
      if (j != i)
        earliest = min(earliest, channels[j].effective_grant() +
                                     horizons_.rx_latency(j, c.lookahead));
    for (std::size_t k = c.replay_cursor; k < c.output_log.size(); ++k) {
      if (c.output_log[k].retracted) continue;
      earliest = min(earliest, c.output_log[k].time + c.lookahead);
      break;
    }
    scheduler.for_each_pending_before(earliest, [&](const Event& e) {
      earliest = min(earliest, e.time + horizons_.event_latency(e));
    });
    grants_[i] = earliest;
    slack_[i] = horizons_.rx_latency(i, c.reaction_lookahead);
  }
}

VirtualTime ConservativeEngine::grant_for(ChannelId requester) {
  price_grants(requester.value(), requester.value() + 1);
  return grants_[requester.value()];
}

VirtualTime ConservativeEngine::barrier() const {
  VirtualTime barrier = VirtualTime::infinity();
  for (const auto& c : ctx_.channels())
    if (c->mode() == ChannelMode::kConservative)
      barrier = min(barrier, c->effective_grant());
  return barrier;
}

void ConservativeEngine::push_grants() {
  // Floors are pushed on optimistic channels as well: they never block the
  // receiver's advancement, but they let conservative safe times propagate
  // *through* optimistic subsystems, which is what makes mixed-mode chains
  // sound (a conservative grant grounded on an optimistic upstream).
  ChannelSet& channels = ctx_.channels();
  price_grants(0, static_cast<std::uint32_t>(channels.size()));
  for (std::uint32_t i = 0; i < channels.size(); ++i) {
    ChannelEndpoint& c = channels[i];
    const VirtualTime grant = grants_[i];
    // Push when the promise improves in either dimension: a later horizon,
    // or a horizon grounded on more of the peer's sends.  The second case
    // pushes even when the time component regresses (e.g. an initial
    // infinite promise made before any events were queued): every push is
    // an independently sound promise, and withholding the events_seen
    // acknowledgment froze the peer's unseen-send clamp forever, wedging
    // whole mixed-mode chains (fuzz_cluster seed 2).  A request is
    // answered whether or not the promise improves.
    if (grant <= c.granted_out &&
        c.event_msgs_received <= c.granted_out_seen && !c.owed_answer)
      continue;
    // ... but only once the peer can use it.  Below its need the peer's
    // effective grant stays below the need however an acknowledgment moves
    // its clamp, so a withheld push changes nothing it could act on.  An
    // owed answer waits for the first push that reaches the need.
    if (grant < c.peer_need) continue;
    send_grant(c, c.owed_answer.value_or(0), grant);
    c.owed_answer.reset();
  }
}

void ConservativeEngine::push_status_if_changed() {
  const Scheduler& scheduler = ctx_.scheduler();
  const bool idle = scheduler.idle();
  for (auto& cp : ctx_.channels()) {
    ChannelEndpoint& c = *cp;
    // Receive counters matter too: a pure sink that consumes each batch
    // within one slice is idle at every boundary and never sends, yet its
    // peer's termination probe failed against the unconsumed messages and
    // waits on exactly this announcement to respin.
    const bool counters_changed =
        c.msgs_sent != c.msgs_sent_at_last_status_push ||
        c.msgs_received != c.msgs_received_at_last_status_push;
    if (idle != c.idle_at_last_status_push || (idle && counters_changed)) {
      c.send_message(StatusMsg{.now = scheduler.now(),
                               .msgs_sent = c.msgs_sent,
                               .msgs_received = c.msgs_received,
                               .idle = idle});
      c.idle_at_last_status_push = idle;
      c.msgs_sent_at_last_status_push = c.msgs_sent;
      c.msgs_received_at_last_status_push = c.msgs_received;
    }
  }
}

void ConservativeEngine::on_blocked() {
  ctx_.stats().stalls++;
  const VirtualTime next = ctx_.scheduler().next_event_time();
  PIA_OBS_TRACE(ctx_.scheduler().trace(), obs::TraceKind::kStall, next,
                ctx_.stats().stalls);
  for (auto& cp : ctx_.channels()) {
    ChannelEndpoint& c = *cp;
    if (c.mode() != ChannelMode::kConservative) continue;
    const VirtualTime grant = c.effective_grant();
    if (grant >= next || c.request_outstanding) continue;
    // Nothing moved since the last request on this channel: the peer
    // already answered for exactly this state, and asking again only
    // manufactures wakeups (see last_request_next in channel.hpp).  The
    // next improvement arrives via the peer's proactive grant push.
    if (c.last_request_next == next && c.last_request_grant == grant)
      continue;
    c.last_request_next = next;
    c.last_request_grant = grant;
    c.send_message(SafeTimeRequest{.request_id = c.next_request_id++,
                                   .need_by = need_on(c),
                                   .events_seen = c.event_msgs_received});
    c.request_outstanding = true;
    ctx_.stats().requests_sent++;
    PIA_OBS_TRACE(ctx_.scheduler().trace(), obs::TraceKind::kGrantRequest,
                  next, c.index);
  }
}

void ConservativeEngine::maybe_start_probe() {
  ChannelSet& channels = ctx_.channels();
  if (replica_member_) return;
  if (my_probe_ || terminate_received_) return;
  if (!ctx_.scheduler().idle()) return;
  // A mode negotiation is holding dispatch: the flush below would emit
  // retractions across the flip barrier, and a quiescence verdict reached
  // mid-flip would describe a paused subsystem, not a finished one.
  if (ctx_.mode_negotiation_hold()) return;
  // Don't spin probe rounds: retry only after something changed — unless a
  // candidate round awaits its confirming twin, which by construction runs
  // with the activity counter unmoved.
  if (activity_counter_ == activity_at_last_failed_probe_ && !confirm_pending_)
    return;
  // A clean probe requires our own unconfirmed outputs settled first.
  ctx_.flush_unregenerated(VirtualTime::infinity());
  my_probe_ = ProbeRound{.nonce = next_probe_nonce_++,
                         .pending = channels.size(),
                         .ok = true,
                         .activity_at_start = activity_counter_};
  const std::uint64_t origin =
      static_cast<std::uint64_t>(ctx_.subsystem_id());
  PIA_TRACE("[" << ctx_.subsystem_name() << "] probe start nonce="
                << my_probe_->nonce << " pending=" << my_probe_->pending
                << " act=" << activity_counter_);
  for (auto& c : channels)
    c->send_message(ProbeMsg{.origin = origin, .nonce = my_probe_->nonce});
}

void ConservativeEngine::on_probe(ChannelId channel_id,
                                  const ProbeMsg& probe) {
  ChannelSet& channels = ctx_.channels();
  ChannelEndpoint& from = channels.at(channel_id);
  if (std::uint64_t& seen = probe_nonce_seen_[probe.origin];
      probe.nonce > seen)
    seen = probe.nonce;
  // During a mode negotiation the subsystem is paused, not idle: answer
  // busy (ok=false) instead of flushing unregenerated output, which would
  // leak retractions across the flip barrier.
  if (!ctx_.scheduler().idle() || ctx_.mode_negotiation_hold()) {
    PIA_TRACE("[" << ctx_.subsystem_name() << "] probe nonce=" << probe.nonce
                  << " busy -> ok=false");
    from.send_message(ProbeReply{.origin = probe.origin,
                                 .nonce = probe.nonce,
                                 .ok = false});
    return;
  }
  ctx_.flush_unregenerated(VirtualTime::infinity());
  if (channels.size() == 1) {
    PIA_TRACE("[" << ctx_.subsystem_name() << "] probe nonce=" << probe.nonce
                  << " leaf reply ok=" << ctx_.scheduler().idle()
                  << " sent=" << ctx_.messages_sent_total()
                  << " recv=" << ctx_.messages_received_total()
                  << " act=" << activity_counter_);
    from.send_message(ProbeReply{.origin = probe.origin,
                                 .nonce = probe.nonce,
                                 .ok = ctx_.scheduler().idle(),
                                 .sent = ctx_.messages_sent_total(),
                                 .received = ctx_.messages_received_total(),
                                 .activity = activity_counter_});
    return;
  }
  // Relay the wave away from the arrival channel; answer once the subtree
  // answers (the topology is a forest, so the wave terminates).
  RelayedProbe relayed{.from = channel_id,
                       .pending = channels.size() - 1,
                       .ok = true,
                       .activity_at_arrival = activity_counter_};
  relayed_probes_[{probe.origin, probe.nonce}] = relayed;
  for (std::uint32_t i = 0; i < channels.size(); ++i) {
    if (ChannelId{i} == channel_id) continue;
    channels[i].send_message(probe);
  }
}

void ConservativeEngine::on_probe_reply(const ProbeReply& reply) {
  ChannelSet& channels = ctx_.channels();
  if (my_probe_ &&
      reply.origin == static_cast<std::uint64_t>(ctx_.subsystem_id()) &&
      reply.nonce == my_probe_->nonce) {
    my_probe_->ok = my_probe_->ok && reply.ok;
    my_probe_->sent += reply.sent;
    my_probe_->received += reply.received;
    my_probe_->activity += reply.activity;
    if (--my_probe_->pending == 0) {
      const bool candidate = my_probe_->ok && ctx_.scheduler().idle() &&
                             activity_counter_ == my_probe_->activity_at_start;
      const CandidateRound round{
          .sent = my_probe_->sent + ctx_.messages_sent_total(),
          .received = my_probe_->received + ctx_.messages_received_total(),
          .activity = my_probe_->activity + activity_counter_};
      PIA_TRACE("[" << ctx_.subsystem_name() << "] probe done nonce="
                    << my_probe_->nonce << " ok=" << my_probe_->ok
                    << " candidate=" << candidate << " sent=" << round.sent
                    << " recv=" << round.received << " act=" << round.activity
                    << " confirm=" << confirm_pending_);
      // Terminate only on the second of two identical all-ok rounds whose
      // global send/receive totals balance: a lone ok-round describes the
      // past, and a message that was in flight during it can still revive
      // a subsystem that already answered.  Nothing moved anywhere between
      // two identical rounds, and balanced totals mean nothing is in
      // flight now.
      if (!terminate_received_ && candidate && round.sent == round.received &&
          last_candidate_ == round) {
        // The !terminate_received_ guard stops a duplicate flood: when the
        // peer's own confirming round won the race, its TerminateMsg already
        // reached us, and a second terminate launched here would linger
        // unread in the link once the peer stops draining.
        terminate_received_ = true;
        const std::uint64_t token =
            (static_cast<std::uint64_t>(ctx_.subsystem_id()) << 32) |
            my_probe_->nonce;
        for (auto& c : channels)
          c->send_message(TerminateMsg{.token = token});
      } else if (candidate) {
        last_candidate_ = round;
        confirm_pending_ = true;
      } else {
        last_candidate_.reset();
        confirm_pending_ = false;
        // Don't arm the don't-respin guard when every peer's latest status
        // already claims idle: the busy reply that failed this round was
        // generated before those reports and is stale.  With clone peers
        // the statuses contradicting it can be byte-identical duplicates
        // of one another, so note_peer_status_changed() would never fire
        // again.  Leaving the guard open costs at most a few extra rounds;
        // correctness rests on the two-candidate confirmation, not on this
        // spin brake.
        bool peers_report_idle = true;
        for (auto& c : channels) {
          if (!c->peer_status_seen || !c->peer_status.idle) {
            peers_report_idle = false;
            break;
          }
        }
        activity_at_last_failed_probe_ =
            !peers_report_idle &&
                    my_probe_->activity_at_start == activity_counter_
                ? activity_counter_
                : UINT64_MAX;
      }
      my_probe_.reset();
    }
    return;
  }
  const auto it = relayed_probes_.find({reply.origin, reply.nonce});
  if (it == relayed_probes_.end()) return;  // stale round
  it->second.ok = it->second.ok && reply.ok;
  it->second.sent += reply.sent;
  it->second.received += reply.received;
  it->second.activity += reply.activity;
  if (--it->second.pending == 0) {
    ChannelEndpoint& back = channels.at(it->second.from);
    back.send_message(ProbeReply{
        .origin = reply.origin,
        .nonce = reply.nonce,
        .ok = it->second.ok && ctx_.scheduler().idle() &&
              activity_counter_ == it->second.activity_at_arrival,
        .sent = it->second.sent + ctx_.messages_sent_total(),
        .received = it->second.received + ctx_.messages_received_total(),
        .activity = it->second.activity + activity_counter_});
    relayed_probes_.erase(it);
  }
}

void ConservativeEngine::on_terminate(ChannelId from,
                                      const TerminateMsg& terminate) {
  const std::uint64_t origin = terminate.token >> 32;
  const std::uint64_t nonce = terminate.token & 0xffffffffull;
  if (const auto floor = terminate_floor_.find(origin);
      floor != terminate_floor_.end() && nonce < floor->second) {
    // In flight since before a restore rolled this subsystem back: the
    // confirming rounds certified the discarded timeline, and honoring the
    // verdict now would falsely quiesce the replay.  No re-flood either —
    // every neighbour judges the same token against its own floor.
    PIA_TRACE("[" << ctx_.subsystem_name() << "] stale terminate dropped"
                  << " origin=" << origin << " nonce=" << nonce);
    return;
  }
  if (std::uint64_t& seen = probe_nonce_seen_[origin]; nonce > seen)
    seen = nonce;
  if (terminate_received_) return;
  PIA_TRACE("[" << ctx_.subsystem_name() << "] terminate received token="
                << terminate.token);
  terminate_received_ = true;
  // Flood away from the arrival direction only: on a tree every subsystem
  // is reached exactly once and no terminate ever lingers unread in a link
  // (a leftover would falsely stop a post-restore replay).
  ChannelSet& channels = ctx_.channels();
  for (std::uint32_t i = 0; i < channels.size(); ++i) {
    if (ChannelId{i} == from) continue;
    channels[i].send_message(terminate);
  }
}

void ConservativeEngine::reset_termination() {
  // The subsystem is live again: any previous termination consensus or
  // probe state described the discarded timeline.
  terminate_received_ = false;
  my_probe_.reset();
  relayed_probes_.clear();
  activity_at_last_failed_probe_ = UINT64_MAX;
  last_candidate_.reset();
  confirm_pending_ = false;
  // Terminates still in flight certify the timeline being discarded: raise
  // the staleness floor past every nonce seen so they land dead on arrival.
  for (const auto& [origin, seen] : probe_nonce_seen_)
    terminate_floor_[origin] = seen + 1;
}

}  // namespace pia::dist::sync
