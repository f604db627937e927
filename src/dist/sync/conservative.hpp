// ConservativeEngine: the safe-time protocol and termination detection
// (paper §2.2.3).
//
// Owns grant negotiation with self-restriction removal, unsolicited grant
// pushes (null messages), the advance barrier, idle-status pushes, the
// stall-time SafeTimeRequest fan-out, and the diffusing termination probe
// that decides infinite-horizon quiescence.  It also keeps the subsystem's
// activity counter — the monotone "anything state-changing happened" clock
// every probe round validates against.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "dist/sync/engine_context.hpp"
#include "dist/sync/horizon.hpp"

namespace pia::dist::sync {

class ConservativeEngine {
 public:
  explicit ConservativeEngine(EngineContext& ctx) : ctx_(ctx) {}

  // --- message handlers ----------------------------------------------------
  void on_request(ChannelId channel_id, const SafeTimeRequest& request);
  void on_grant(ChannelId channel_id, const SafeTimeGrant& grant);
  void on_probe(ChannelId channel_id, const ProbeMsg& probe);
  void on_probe_reply(const ProbeReply& reply);
  void on_terminate(ChannelId from, const TerminateMsg& terminate);

  // --- run-loop services ---------------------------------------------------

  /// Derives the proxy -> channel lookup grant pricing classifies pending
  /// events with, and the output-horizon graph.  Wiring is frozen once the
  /// subsystem starts, so Subsystem::start() calls this once; until then no
  /// pending event counts as a channel crossing.
  void index_channels();

  /// The grant we can promise `requester` right now (self-restriction
  /// removed): min over next local event and the grants peers on *other*
  /// channels gave us, plus the channel lookahead; or, when components
  /// declare output horizons, the channel's earliest possible crossing.
  /// push_grants() prices every channel the same way at once.
  [[nodiscard]] VirtualTime grant_for(ChannelId requester);

  /// min over conservative channels of granted_in (the advance barrier).
  [[nodiscard]] VirtualTime barrier() const;

  /// The run's horizon: it caps the needs this subsystem declares.  Set
  /// before a run drains anything, so no declaration is made without it.
  void set_horizon(VirtualTime horizon) { horizon_ = horizon; }

  /// Pushes improved grants on all channels (null messages), each only
  /// once it reaches the need the peer declared, and answers the requests
  /// the drain recorded (on_request), by id, from the same pricing.
  void push_grants();
  void push_status_if_changed();

  /// The advance was blocked on a grant: count the stall and request safe
  /// times from every conservative channel that restricts us.
  void on_blocked();

  /// The need_by this subsystem declares on `c`: the earliest time at
  /// which it can use a promise there.  Zero ("push everything") on an
  /// optimistic channel, on a replica member, or when the subsystem has
  /// another channel; else min(next event, horizon).
  [[nodiscard]] VirtualTime need_on(const ChannelEndpoint& c) const;

  /// Starts a termination probe round if none is outstanding.
  void maybe_start_probe();

  /// Replica members must not ORIGINATE probes: a probe floods away from
  /// its arrival channel, and a replica leaf has only the one channel — its
  /// own round would confirm termination without consulting the sibling
  /// clones.  Relaying and replying stay enabled.  They declare no need
  /// either: the group passes its clones' declarations through last-wins,
  /// and a dead leader's need would withhold what a lagging survivor needs.
  void set_replica_member(bool on) { replica_member_ = on; }

  /// A peer's status report moved (it flipped idle, or its counters
  /// advanced): a probe round that failed on that peer's busyness can
  /// succeed now, so drop the don't-respin guard.  Without this, a
  /// subsystem whose peers never originate probes (a replica set is all
  /// leaves) wedges after one failed round: its own activity never moves
  /// again and nobody else re-opens the wave.
  void note_peer_status_changed() {
    activity_at_last_failed_probe_ = UINT64_MAX;
  }

  // --- activity / termination bookkeeping ----------------------------------
  // Other engines reach these through EngineContext::note_activity /
  // reset_termination.
  void note_activity() { ++activity_counter_; }
  void reset_termination();
  [[nodiscard]] bool terminated() const { return terminate_received_; }

 private:
  // Termination detection (diffusing probe waves).
  struct ProbeRound {
    std::uint64_t nonce = 0;
    std::size_t pending = 0;
    bool ok = true;
    std::uint64_t activity_at_start = 0;
    // Subtree sums accumulated from the replies (the origin's own totals
    // are added at completion).
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
    std::uint64_t activity = 0;
  };
  /// Global accounting of the last all-ok round.  Termination needs two
  /// consecutive candidate rounds with identical sums and sent == received:
  /// one round alone can certify a past in which a subsystem that had
  /// already replied was later revived by a message still in flight.
  struct CandidateRound {
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
    std::uint64_t activity = 0;
    friend bool operator==(const CandidateRound&,
                           const CandidateRound&) = default;
  };
  struct RelayedProbe {
    ChannelId from;
    std::size_t pending = 0;
    bool ok = true;
    /// Activity when the probe arrived.  The origin validates its own
    /// round-long quiet window, but a relay can go busy *after* forwarding
    /// the wave (an optimistic subsystem speculating on an in-flight
    /// straggler) and be idle again by the time the subtree answers; its
    /// reply must then be negative or the origin confirms a termination
    /// that a revived relay is about to break with fresh sends.
    std::uint64_t activity_at_arrival = 0;
    // Subtree sums accumulated from the replies (the relay's own totals
    // are added when it answers).
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
    std::uint64_t activity = 0;
  };

  static constexpr std::uint32_t kNoChannel = 0xFFFFFFFFu;

  /// Records and sends one grant on `c` (request_id 0 for a push).
  void send_grant(ChannelEndpoint& c, std::uint64_t request_id,
                  VirtualTime grant);
  /// Prices the grants of channels [first, last) into grants_ in one pass,
  /// and their reaction slack into slack_.
  void price_grants(std::uint32_t first, std::uint32_t last);
  /// price_grants() from output horizons: each channel's earliest possible
  /// crossing, and the least path latency from its own deliveries.
  void price_horizons(std::uint32_t first, std::uint32_t last);
  /// The channel `e` crosses on — a delivery to the channel's proxy on a
  /// hidden (split-net) port — or kNoChannel.
  [[nodiscard]] std::uint32_t crossing_channel(const Event& e) const;

  EngineContext& ctx_;
  /// Channel index per proxy ComponentId value (kNoChannel elsewhere), and
  /// each channel's proxy rx port; see index_channels().
  std::vector<std::uint32_t> proxy_channel_;
  std::vector<PortIndex> proxy_rx_;
  std::vector<VirtualTime> grants_;  // price_grants() output, per channel
  /// Each channel's reaction slack from the horizons, and whether the last
  /// pricing used them; without horizons a grant carries the channel's
  /// declared reaction_lookahead.
  std::vector<VirtualTime> slack_;
  bool horizon_priced_ = false;
  HorizonGraph horizons_;
  /// set_horizon()'s value.  Zero until the first run: a declaration made
  /// before then asks for every promise.
  VirtualTime horizon_ = VirtualTime::zero();
  std::optional<ProbeRound> my_probe_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, RelayedProbe>
      relayed_probes_;
  /// Highest probe nonce observed per remote origin (probes and terminate
  /// tokens both carry one), and the staleness floor a TerminateMsg must
  /// clear to be honored.  reset_termination() raises the floor past
  /// everything seen: a terminate still in flight when a snapshot restore
  /// rolled the timeline back certifies the DISCARDED run, and honoring it
  /// would falsely quiesce the replay.  Origins keep their monotone nonce
  /// counters across resets, so every post-restore terminate clears the
  /// floor naturally.
  std::map<std::uint64_t, std::uint64_t> probe_nonce_seen_;
  std::map<std::uint64_t, std::uint64_t> terminate_floor_;
  std::uint64_t next_probe_nonce_ = 1;
  std::uint64_t activity_counter_ = 0;  // bumps on any state-changing input
  std::uint64_t activity_at_last_failed_probe_ = UINT64_MAX;
  std::optional<CandidateRound> last_candidate_;
  // A candidate round is pending confirmation: re-probe even though the
  // activity counter has not moved (the usual don't-spin guard would
  // otherwise block the confirming round forever).
  bool confirm_pending_ = false;
  bool terminate_received_ = false;
  bool replica_member_ = false;
};

}  // namespace pia::dist::sync
