// AdaptiveController: runtime conservative↔optimistic renegotiation per
// channel (the paper's runlevel idea applied to synchronization).
//
// Measures per-channel protocol cost from the counters the other engines
// already maintain — retraction volume against event volume on optimistic
// channels, grant/request/mark overhead and blocked time on conservative
// ones — and, when a hysteresis policy says the other protocol would be
// cheaper, renegotiates the channel's mode with the peer.  The flip itself
// rides a Chandy–Lamport cut from the SnapshotCoordinator: the cut's marker
// is the barrier on the FIFO channel, so each endpoint flips only after it
// has consumed every message the peer sent under the old protocol, and
// neither endpoint dispatches (the negotiation HOLD) between agreeing and
// flipping — no frame ever straddles the two protocols.
//
// The six-step handshake (proposer A, acceptor B, channel c):
//   1. propose  A→B ModeProposal{nonce, epoch, target}; A holds.
//   2. agree    B arbitrates (enabled, epoch fence, rejoin/replica/
//               retired state, crossed proposals by proposer id) and either
//               rejects — ModeAck{agree, accept=false}, A releases — or
//               holds and answers ModeAck{agree, accept=true}.
//   3. cut      A initiates a snapshot (marks flood every channel) and
//               sends ModeCommit{nonce, token}.  FIFO puts the mark on c
//               ahead of the commit.
//   4. flip@B   B, at the commit, has consumed everything A sent pre-cut;
//               it flips its endpoint and answers ModeAck{flipped}.
//   5. flip@A   A, at the flipped-ack, has consumed B's mark relay (FIFO
//               again) and everything B sent pre-cut; it flips, sends
//               ModeResume{nonce}, and releases its hold.
//   6. resume   B releases its hold.
//
// All five messages are control messages (excluded from the quiescence
// counters).  A peer whose controller is disabled answers the proposal
// "unsupported", so the channel keeps its mode instead of desyncing.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dist/sync/engine_context.hpp"

namespace pia::dist::sync {

/// Decision policy.  Costs are sampled every `window_slices` run-loop
/// slices; a channel must lean the same way `hysteresis` consecutive
/// windows before a proposal fires, and after any flip or rejection the
/// channel sits out `cooldown_windows` windows.
struct AdaptivePolicy {
  std::uint32_t window_slices = 64;
  std::uint32_t hysteresis = 2;
  /// Optimistic → conservative when retractions exceed this fraction of
  /// event traffic in a window (rollback thrash).
  double retract_rate_hi = 0.25;
  /// Conservative → optimistic when non-event protocol traffic (grants,
  /// requests, marks) exceeds this multiple of event traffic in a window
  /// (null-message dominated), or when the engine stalled more often than
  /// it moved events.
  double control_rate_hi = 4.0;
  /// Windows with fewer events than this are too quiet to judge.
  std::uint64_t min_events = 16;
  std::uint32_t cooldown_windows = 4;
};

class AdaptiveController {
 public:
  explicit AdaptiveController(EngineContext& ctx) : ctx_(ctx) {}

  /// Turns measurement-driven renegotiation on.  Off (the default) the
  /// controller never proposes, but still answers peers' proposals —
  /// with a clean "unsupported" rejection — so enabling adaptation on one
  /// side of a channel is always safe.
  void enable(const AdaptivePolicy& policy) {
    policy_ = policy;
    enabled_ = true;
  }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// True while a negotiation holds local dispatch (and probe origination):
  /// the straddle-freedom of the flip rests on nothing being dispatched
  /// between agreeing and flipping.
  [[nodiscard]] bool hold() const { return holding_; }

  /// Forced flip (tests, operators): renegotiate `channel` to `target` at
  /// the next tick the facade's arbitration allows, bypassing windows,
  /// hysteresis and cooldown.  Deferred — not dropped — while a rejoin or
  /// failover is in flight.  Cleared once the channel reaches `target`.
  void request_mode(std::size_t channel, ChannelMode target);

  /// Once per run-loop slice: sample cost windows, fire due proposals.
  void tick();

  // --- message handlers ----------------------------------------------------
  void on_proposal(ChannelId channel_id, const ModeProposalMsg& m);
  void on_ack(ChannelId channel_id, const ModeAckMsg& m);
  void on_commit(ChannelId channel_id, const ModeCommitMsg& m);
  void on_resume(ChannelId channel_id, const ModeResumeMsg& m);

  /// A restore abandoned the timeline: drop the active negotiation and the
  /// measurement windows, release the hold.  The peer restores from the
  /// same cut (or rejoins), so the half-open handshake cannot resume; its
  /// stale messages are ignored by nonce.
  void reset();

 private:
  enum class State : std::uint8_t {
    kIdle,
    kProposed,   // proposer: waiting for the agree ack
    kCommitted,  // proposer: cut initiated, waiting for the flipped ack
    kAccepted,   // acceptor: waiting for the commit
    kFlipped,    // acceptor: flipped, waiting for the resume
  };

  /// Per-channel measurement window and negotiation memory.
  struct Watch {
    std::uint64_t events = 0;    // event_msgs sent+received at last sample
    std::uint64_t retracts = 0;  // retract_msgs sent+received at last sample
    std::uint64_t msgs = 0;      // msgs sent+received at last sample
    std::uint32_t lean_conservative = 0;  // consecutive leaning windows
    std::uint32_t lean_optimistic = 0;
    std::uint32_t cooldown = 0;  // windows left before proposing again
    bool never = false;          // peer answered "unsupported": stop asking
    std::optional<ChannelMode> forced;
  };

  void ensure_watch();
  /// True when flipping `channel` to `target` cannot violate the target
  /// protocol's invariants at THIS endpoint (see the definition for the two
  /// conditions a flip to conservative must meet).
  [[nodiscard]] bool flip_safe(std::size_t channel, ChannelMode target) const;
  void sample_windows();
  void propose(std::size_t channel, ChannelMode target);
  /// The flip proper, at the barrier: switch the endpoint's mode and hand
  /// state across — a first checkpoint under optimism so no rollback ever
  /// crosses the flip, or a cleared request slate under conservatism (the
  /// grant floors themselves stayed live the whole time; push_grants
  /// maintains them on every channel regardless of mode).
  void apply_flip(ChannelEndpoint& c, ChannelMode target);
  void finish(std::size_t channel);  // release hold, start cooldown

  EngineContext& ctx_;
  AdaptivePolicy policy_{};
  bool enabled_ = false;

  State state_ = State::kIdle;
  bool holding_ = false;
  std::size_t active_ = 0;     // channel of the live negotiation
  std::uint64_t nonce_ = 0;    // its handshake nonce
  ChannelMode target_ = ChannelMode::kConservative;
  std::uint64_t cut_token_ = 0;
  std::uint64_t next_nonce_ = 1;

  std::uint32_t slice_ = 0;  // slices since the last sample
  std::uint64_t prev_stalls_ = 0;
  std::vector<Watch> watch_;
};

}  // namespace pia::dist::sync
