#include "dist/sync/adaptive.hpp"

#include "base/error.hpp"
#include "base/log.hpp"

namespace pia::dist::sync {

void AdaptiveController::request_mode(std::size_t channel, ChannelMode target) {
  ensure_watch();
  PIA_REQUIRE(channel < watch_.size(), "request_mode: no such channel");
  watch_[channel].forced = target;
}

bool AdaptiveController::flip_safe(std::size_t channel,
                                   ChannelMode target) const {
  // Flipping to optimistic is always safe: the new engine tolerates any
  // arrival order and the flip takes a fresh checkpoint to land rollbacks
  // on.  Flipping to CONSERVATIVE is only sound from a state an
  // always-conservative channel could be in, checked per endpoint:
  //
  //  (a) the local clock has not outrun the peer's standing safe-time
  //      promise (effective_grant folds in the unseen-sends clamp, so a
  //      response the peer has yet to provoke is accounted for).  A
  //      speculated-ahead receiver would otherwise see a perfectly legal
  //      post-flip event arrive "behind subsystem time" (fuzz seed 6);
  //  (b) the channel carries no live unconfirmed output tail — entries a
  //      rolled-back execution sent and lazy cancellation has not yet
  //      confirmed or retracted.  Such entries retract on divergence, and a
  //      retraction must never cross the barrier into a conservative peer.
  //
  // Both conditions are stable through the negotiation hold: dispatch is
  // blocked (no new sends, no tail growth), the clock moves only backward
  // (rollback), and arrivals the hold admits are bounded by the same
  // promises (a) checks.  An unsafe flip is deferred (forced) or rejected
  // busy (proposals), and retried once the channel drains.
  if (target != ChannelMode::kConservative) return true;
  const ChannelEndpoint& c = ctx_.channels()[channel];
  if (ctx_.scheduler().now() > c.effective_grant()) return false;
  for (std::size_t k = c.replay_cursor; k < c.output_log.size(); ++k)
    if (!c.output_log[k].retracted) return false;
  return true;
}

void AdaptiveController::tick() {
  if (holding_) {
    ctx_.stats().hold_slices++;
    return;
  }
  if (state_ != State::kIdle) return;
  ensure_watch();
  // Forced targets fire as soon as arbitration allows, bypassing the
  // measurement machinery; they are deferred (not dropped) while a rejoin,
  // a replica membership, or a down peer is in the way.
  if (ctx_.mode_change_allowed()) {
    const ChannelSet& channels = ctx_.channels();
    for (std::size_t i = 0; i < channels.size(); ++i) {
      Watch& w = watch_[i];
      if (!w.forced) continue;
      if (*w.forced == channels[i].mode() || w.never) {
        w.forced.reset();
        continue;
      }
      if (channels[i].peer_closed || channels[i].peer_down) continue;
      if (!flip_safe(i, *w.forced)) continue;  // deferred, retried next tick
      propose(i, *w.forced);
      return;
    }
  }
  if (!enabled_) return;
  if (++slice_ < policy_.window_slices) return;
  slice_ = 0;
  sample_windows();
}

void AdaptiveController::sample_windows() {
  const std::uint64_t stalls = ctx_.stats().stalls;
  const std::uint64_t stalls_delta =
      stalls >= prev_stalls_ ? stalls - prev_stalls_ : 0;
  prev_stalls_ = stalls;
  ChannelSet& channels = ctx_.channels();
  std::optional<std::size_t> candidate;
  ChannelMode candidate_target = ChannelMode::kConservative;
  for (std::size_t i = 0; i < channels.size(); ++i) {
    ChannelEndpoint& c = channels[i];
    Watch& w = watch_[i];
    const std::uint64_t events = c.event_msgs_sent + c.event_msgs_received;
    const std::uint64_t retracts =
        c.retract_msgs_sent + c.retract_msgs_received;
    const std::uint64_t msgs = c.msgs_sent + c.msgs_received;
    // Saturating deltas: restores re-base the channel counters downward.
    const std::uint64_t ev_d = events >= w.events ? events - w.events : 0;
    const std::uint64_t re_d =
        retracts >= w.retracts ? retracts - w.retracts : 0;
    const std::uint64_t ms_d = msgs >= w.msgs ? msgs - w.msgs : 0;
    w.events = events;
    w.retracts = retracts;
    w.msgs = msgs;
    if (w.cooldown > 0) {
      --w.cooldown;
      w.lean_conservative = 0;
      w.lean_optimistic = 0;
      continue;
    }
    if (w.never || w.forced || c.peer_closed || c.peer_down) continue;
    if (ev_d < policy_.min_events) {
      w.lean_conservative = 0;
      w.lean_optimistic = 0;
      continue;
    }
    if (c.mode() == ChannelMode::kOptimistic) {
      // Rollback thrash: anti-messages eating a large fraction of the
      // channel's event bandwidth.
      const bool lean =
          static_cast<double>(re_d) >
          policy_.retract_rate_hi * static_cast<double>(ev_d);
      w.lean_conservative = lean ? w.lean_conservative + 1 : 0;
      w.lean_optimistic = 0;
      if (lean && w.lean_conservative >= policy_.hysteresis && !candidate) {
        candidate = i;
        candidate_target = ChannelMode::kConservative;
      }
    } else {
      // Null-message domination: grant/request/mark traffic dwarfing the
      // events it shepherds, or the engine stalling more than it moves.
      const std::uint64_t control =
          ms_d > ev_d + re_d ? ms_d - ev_d - re_d : 0;
      const bool lean =
          static_cast<double>(control) >
              policy_.control_rate_hi * static_cast<double>(ev_d) ||
          stalls_delta > ev_d;
      w.lean_optimistic = lean ? w.lean_optimistic + 1 : 0;
      w.lean_conservative = 0;
      if (lean && w.lean_optimistic >= policy_.hysteresis && !candidate) {
        candidate = i;
        candidate_target = ChannelMode::kOptimistic;
      }
    }
  }
  if (candidate && ctx_.mode_change_allowed() &&
      flip_safe(*candidate, candidate_target))
    propose(*candidate, candidate_target);
}

void AdaptiveController::propose(std::size_t channel, ChannelMode target) {
  ChannelEndpoint& c = ctx_.channels()[channel];
  nonce_ = (static_cast<std::uint64_t>(ctx_.subsystem_id()) << 32) |
           (next_nonce_++ & 0xffffffffull);
  target_ = target;
  active_ = channel;
  state_ = State::kProposed;
  holding_ = true;
  ctx_.stats().proposals_sent++;
  PIA_TRACE("[" << ctx_.subsystem_name() << "] mode propose channel="
                << c.name() << " target="
                << (target == ChannelMode::kOptimistic ? "optimistic"
                                                       : "conservative")
                << " nonce=" << nonce_);
  c.send_message(ModeProposalMsg{.nonce = nonce_,
                                 .epoch = c.mode_epoch(),
                                 .target = static_cast<std::uint8_t>(target)});
}

void AdaptiveController::on_proposal(ChannelId channel_id,
                                     const ModeProposalMsg& m) {
  ensure_watch();
  ChannelEndpoint& c = ctx_.channels().at(channel_id);
  ctx_.stats().proposals_received++;
  const auto target = static_cast<ChannelMode>(m.target);
  const auto proposer = static_cast<std::uint32_t>(m.nonce >> 32);
  const auto reject = [&](std::uint8_t reason) {
    ctx_.stats().proposals_rejected++;
    c.send_message(ModeAckMsg{
        .nonce = m.nonce, .phase = 0, .accept = false, .reason = reason});
  };
  // A disabled controller still answers — with a clean "unsupported" — so a
  // peer that enabled adaptation never wedges waiting on us.
  if (!enabled_) {
    reject(1);
    return;
  }
  // Epoch fence: the proposal was computed against a view of this channel
  // that a completed flip (or a restore) has since replaced.
  if (target == c.mode() || m.epoch != c.mode_epoch()) {
    reject(0);
    return;
  }
  if (!ctx_.mode_change_allowed() || c.peer_closed || c.peer_down) {
    reject(0);
    return;
  }
  // The proposer vouched for its own end; this end must qualify too.
  if (!flip_safe(channel_id.value(), target)) {
    reject(0);
    return;
  }
  if (state_ != State::kIdle) {
    // Crossed proposals on the same channel tie-break on the proposer id
    // baked into the nonce: the lower id's proposal wins, the higher id
    // abandons its own (whose eventual busy-reject is ignored by nonce).
    const bool yield = state_ == State::kProposed &&
                       active_ == channel_id.value() &&
                       proposer < ctx_.subsystem_id();
    if (!yield) {
      reject(0);
      return;
    }
  }
  ctx_.stats().proposals_accepted++;
  state_ = State::kAccepted;
  holding_ = true;
  active_ = channel_id.value();
  nonce_ = m.nonce;
  target_ = target;
  c.send_message(ModeAckMsg{.nonce = m.nonce, .phase = 0, .accept = true});
}

void AdaptiveController::on_ack(ChannelId channel_id, const ModeAckMsg& m) {
  ensure_watch();
  ChannelEndpoint& c = ctx_.channels().at(channel_id);
  if (m.phase == 0) {
    if (state_ != State::kProposed || m.nonce != nonce_ ||
        active_ != channel_id.value())
      return;  // stale (abandoned or post-restore) round
    if (!m.accept) {
      Watch& w = watch_[active_];
      if (m.reason == 1) {
        w.never = true;  // fixed-mode peer: stop asking on this channel
        w.forced.reset();
      } else {
        w.cooldown = policy_.cooldown_windows;
      }
      holding_ = false;
      state_ = State::kIdle;
      return;
    }
    // Agreed: the cut is the barrier.  Its marker floods every channel;
    // FIFO puts the one on this channel ahead of the commit we send next.
    cut_token_ = ctx_.initiate_snapshot();
    c.send_message(ModeCommitMsg{.nonce = nonce_, .token = cut_token_});
    state_ = State::kCommitted;
    return;
  }
  // phase 1 — the acceptor flipped at the cut.
  if (state_ != State::kCommitted || m.nonce != nonce_ ||
      active_ != channel_id.value())
    return;
  // FIFO: the acceptor's mark relay on this channel precedes its flipped
  // ack, so the cut's bookkeeping (if a rollback has not retired it) must
  // show this channel's mark consumed.
  if (const PendingSnapshot* snap = ctx_.find_snapshot(cut_token_))
    PIA_REQUIRE(!snap->mark_pending[active_],
                "mode flip ahead of the cut's mark");
  apply_flip(c, target_);
  c.send_message(ModeResumeMsg{.nonce = nonce_});
  finish(active_);
}

void AdaptiveController::on_commit(ChannelId channel_id,
                                   const ModeCommitMsg& m) {
  if (state_ != State::kAccepted || m.nonce != nonce_ ||
      active_ != channel_id.value())
    return;  // stale round
  ChannelEndpoint& c = ctx_.channels().at(channel_id);
  // FIFO: the proposer's mark on this channel precedes its commit.
  if (const PendingSnapshot* snap = ctx_.find_snapshot(m.token))
    PIA_REQUIRE(!snap->mark_pending[active_],
                "mode flip ahead of the cut's mark");
  cut_token_ = m.token;
  apply_flip(c, target_);
  c.send_message(ModeAckMsg{.nonce = nonce_, .phase = 1, .accept = true});
  state_ = State::kFlipped;  // hold until the proposer's resume
}

void AdaptiveController::on_resume(ChannelId channel_id,
                                   const ModeResumeMsg& m) {
  if (state_ != State::kFlipped || m.nonce != nonce_ ||
      active_ != channel_id.value())
    return;
  finish(active_);
}

void AdaptiveController::apply_flip(ChannelEndpoint& c, ChannelMode target) {
  c.set_mode(target);
  if (target == ChannelMode::kOptimistic) {
    // First checkpoint under the new protocol: a later rollback lands here
    // instead of crossing the flip barrier.
    ctx_.take_checkpoint();
  } else {
    // The grant floors stayed live the whole time (push_grants maintains
    // them on every channel regardless of mode), so the barrier is grounded
    // at once; only the request slate belongs to the old era.
    c.request_outstanding = false;
    c.last_request_next = VirtualTime::infinity();
    c.last_request_grant = VirtualTime::infinity();
  }
  // Needs are declared per mode (an optimistic channel asks for every
  // floor): both sides flip, so both restart from "push everything".
  c.peer_need = VirtualTime::zero();
  ctx_.note_activity();
  ctx_.stats().mode_changes++;
  if (target == ChannelMode::kOptimistic)
    ctx_.stats().to_optimistic++;
  else
    ctx_.stats().to_conservative++;
  PIA_TRACE("[" << ctx_.subsystem_name() << "] mode flip channel=" << c.name()
                << " -> "
                << (target == ChannelMode::kOptimistic ? "optimistic"
                                                       : "conservative")
                << " epoch=" << c.mode_epoch());
  PIA_OBS_TRACE(ctx_.scheduler().trace(), obs::TraceKind::kModeChange,
                ctx_.scheduler().now(), c.index, c.mode_epoch());
}

void AdaptiveController::finish(std::size_t channel) {
  holding_ = false;
  state_ = State::kIdle;
  ensure_watch();
  Watch& w = watch_[channel];
  const ChannelEndpoint& c = ctx_.channels()[channel];
  w.cooldown = policy_.cooldown_windows;
  w.lean_conservative = 0;
  w.lean_optimistic = 0;
  // Re-baseline so the negotiation's own traffic is not judged.
  w.events = c.event_msgs_sent + c.event_msgs_received;
  w.retracts = c.retract_msgs_sent + c.retract_msgs_received;
  w.msgs = c.msgs_sent + c.msgs_received;
  if (w.forced && *w.forced == c.mode()) w.forced.reset();
}

void AdaptiveController::reset() {
  state_ = State::kIdle;
  holding_ = false;
  cut_token_ = 0;
  slice_ = 0;
  ensure_watch();
  const ChannelSet& channels = ctx_.channels();
  for (std::size_t i = 0; i < watch_.size(); ++i) {
    Watch& w = watch_[i];
    const ChannelEndpoint& c = channels[i];
    // Re-baseline on the re-based counters; leanings and cooldowns
    // described the discarded timeline.  `forced` and `never` survive: a
    // restore changes neither what the operator asked for nor what the
    // peer supports.
    w.events = c.event_msgs_sent + c.event_msgs_received;
    w.retracts = c.retract_msgs_sent + c.retract_msgs_received;
    w.msgs = c.msgs_sent + c.msgs_received;
    w.lean_conservative = 0;
    w.lean_optimistic = 0;
    w.cooldown = 0;
  }
  prev_stalls_ = ctx_.stats().stalls;
}

void AdaptiveController::ensure_watch() {
  if (watch_.size() != ctx_.channels().size())
    watch_.resize(ctx_.channels().size());
}

}  // namespace pia::dist::sync
