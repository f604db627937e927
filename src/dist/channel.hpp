// Channels and channel components (paper §2.2.1, Fig. 2).
//
// "Between each pair of communicating subsystems is a channel, across which
// all communication occurs.  Each channel is associated with a pair of dummy
// components (one on each subsystem).  Each of the hidden ports is the
// property of one of these channel components. ... Channel components are
// not self contained, rather, they are proxies for the subsystems on the
// opposite side of the channel."
//
// A net split across two subsystems becomes two local nets; each local piece
// gains a hidden inout port owned by the ChannelComponent.  Local traffic on
// the net reaches the hidden port and is forwarded over the Link as an
// EventMsg; remote EventMsgs are injected to the channel component, which
// re-drives them onto the local piece at their original timestamp.  Channel
// components have no thread of their own — they run inside the subsystem's
// scheduler like any component (the paper: they "use the subsystem's own").
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "base/ids.hpp"
#include "core/component.hpp"
#include "dist/protocol.hpp"
#include "serial/archive.hpp"
#include "serial/arena.hpp"
#include "transport/link.hpp"

namespace pia::dist {

enum class ChannelMode : std::uint8_t { kConservative, kOptimistic };

class ChannelEndpoint;

/// A flush hold shared by endpoints.  While `depth` > 0 every member holds
/// its batch, and the first message a member batches lists it in `dirty`,
/// so the outermost release flushes only the members that hold something.
/// An endpoint is the one member of its own group until a ChannelSet makes
/// it a member of the set's (FlushHold).
struct FlushGroup {
  std::uint32_t depth = 0;
  std::vector<ChannelEndpoint*> dirty;

  void hold() { ++depth; }
  /// Ends a hold; nests.
  void release();
};

class ChannelComponent final : public Component {
 public:
  /// Callback invoked when local traffic must cross the channel.
  using OutboundFn =
      std::function<void(std::uint32_t net_index, const Value& value,
                         VirtualTime time)>;

  explicit ChannelComponent(std::string name);

  /// Registers the next split net; returns its index in the channel's
  /// split-net table and the hidden port to attach to the local net piece.
  /// Both subsystems must register split nets in the same order.
  PortIndex add_split_net();
  [[nodiscard]] std::uint32_t split_net_count() const {
    return static_cast<std::uint32_t>(hidden_ports_.size());
  }
  [[nodiscard]] PortIndex hidden_port(std::uint32_t net_index) const;

  void set_outbound(OutboundFn fn) { outbound_ = std::move(fn); }

  /// Encodes a remote event for injection onto this component's rx port.
  [[nodiscard]] static Value encode_remote(std::uint32_t net_index,
                                           const Value& value);

  /// The rx port index remote events are injected on.
  [[nodiscard]] PortIndex rx_port() const { return rx_; }

  void on_receive(PortIndex port, const Value& value) override;

 private:
  PortIndex rx_;                         // unwired input fed by the endpoint
  std::vector<PortIndex> hidden_ports_;  // one inout per split net
  OutboundFn outbound_;
};

/// One side of a channel: the Link plus all per-channel protocol state.
/// Plain data driven by the Subsystem; kept separate from ChannelComponent
/// because this state must survive rollbacks that rewind the component.
class ChannelEndpoint {
 public:
  ChannelEndpoint(std::string name, ChannelMode mode, transport::LinkPtr link,
                  std::uint32_t origin_id);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] ChannelMode mode() const { return mode_; }
  /// Fence for mode renegotiation: bumped on every set_mode().  A mode
  /// proposal carries the proposer's epoch; the peer rejects on mismatch,
  /// so a flip can never apply against a stale view of the channel.
  [[nodiscard]] std::uint64_t mode_epoch() const { return mode_epoch_; }
  /// Flips the synchronization mode.  Only the sync engines may call this,
  /// and only at a barrier (a Chandy–Lamport cut or an image restore) where
  /// no in-flight traffic straddles the two protocols.
  void set_mode(ChannelMode mode) {
    mode_ = mode;
    ++mode_epoch_;
  }
  /// Restore path: adopt a recorded (mode, epoch) pair verbatim.  Both
  /// endpoints restore from the same cut (or image of it), so adopting the
  /// recorded epoch — instead of bumping — keeps the two sides' epochs
  /// equal even when a restore lands mid-negotiation, after one endpoint
  /// flipped and before the other did.
  void restore_mode(ChannelMode mode, std::uint64_t epoch) {
    mode_ = mode;
    mode_epoch_ = epoch;
  }
  [[nodiscard]] transport::Link& link() { return *link_; }

  /// Swaps in a fresh link (reconnect after a peer crash).  Clears the
  /// failure flags and liveness timers; all protocol state (logs, counters,
  /// grants) is left untouched — the caller re-synchronizes it via the
  /// snapshot restore + rejoin handshake.
  void replace_link(transport::LinkPtr link);

  // --- outbound ------------------------------------------------------------

  /// Sends an EventMsg and appends it to the output log.  Returns its id.
  SendId send_event(std::uint32_t net_index, const Value& value,
                    VirtualTime time);
  /// Transport failures (peer crashed, link abruptly closed) do not throw:
  /// they set peer_closed so the subsystem loop can wind down with
  /// RunOutcome::kDisconnected instead of unwinding mid-protocol.
  ///
  /// Batching: while a flush hold is active (the subsystem brackets its
  /// burst phases with hold_flush/release_flush) messages accumulate into
  /// one batch frame and go out together; outside a hold each message
  /// flushes immediately, preserving the unbatched send-now semantics.
  void send_message(const ChannelMessage& message);

  /// Transmits the pending batch (if any) as one link frame.  A batch of
  /// one is sent in the bare single-message wire format.
  void flush();

  /// Defer flushing until the matching release; nests.  Holds the
  /// endpoint's flush group: a set member's is the whole set, which a
  /// subsystem holds across a slice so that everything the slice emits on
  /// a channel shares a frame.
  void hold_flush() { group().hold(); }
  void release_flush() { group().release(); }

  /// Makes `group` this endpoint's flush group (ChannelSet::add).
  void join_flush_group(FlushGroup& group) { group_ = &group; }

  /// Messages per batch frame before an automatic flush.
  void set_batch_limit(std::uint32_t limit) {
    batch_limit_ = limit == 0 ? 1 : limit;
  }
  [[nodiscard]] std::uint32_t batch_limit() const { return batch_limit_; }
  [[nodiscard]] std::uint32_t pending_batch() const { return batch_count_; }

  /// The batch arena (capacity/epoch/shrink introspection for tests and
  /// benches).
  [[nodiscard]] const serial::FrameArena& arena() const { return arena_; }

  // --- inbound -------------------------------------------------------------

  /// Non-blocking: next decoded message, if any.  A drained closed link
  /// sets peer_closed.
  std::optional<ChannelMessage> poll();

  /// Blocking form: waits up to `timeout` for a message (served from the
  /// already-decoded inbound queue first, then the link).
  std::optional<ChannelMessage> recv_for(std::chrono::milliseconds timeout);

  /// Pulls a frame already sitting on the link into the decoded inbound
  /// queue WITHOUT delivering anything.  Keeps last_arrival honest while
  /// the subsystem sits inside a long advance burst: liveness stamping must
  /// not wait for the slice-top drain, or a busy peer judges a live sender
  /// silent (the receive-side half of the heartbeat false positive).
  void prime_inbound();

  /// Drops buffered state on both sides: the un-flushed outbound batch and
  /// the decoded-but-undelivered inbound queue.  Used when the link is
  /// replaced or a snapshot restore discards in-flight traffic.
  void discard_pending();

  /// The link failed or the peer went away; no further traffic is possible
  /// on this channel.
  bool peer_closed = false;

  // --- failure detection (heartbeats) ---------------------------------------

  /// Wall clock of the last raw arrival on this channel (any message kind).
  /// note_arrival() maintains it; the subsystem's heartbeat service compares
  /// it against the liveness timeout.
  std::chrono::steady_clock::time_point last_arrival{};
  std::chrono::steady_clock::time_point last_heartbeat_sent{};
  std::uint64_t heartbeat_seq = 0;       // next HeartbeatMsg sequence
  std::uint64_t heartbeats_received = 0;
  bool liveness_armed = false;  // timers initialized on first service pass
  /// Liveness timeout expired: the peer stopped sending ANY traffic.
  bool peer_down = false;

  void note_arrival() { last_arrival = std::chrono::steady_clock::now(); }

  // --- rejoin handshake -------------------------------------------------------

  /// Token announced by begin_rejoin(); a RejoinMsg arriving with a
  /// different token (or mismatched counters) raises Error{kProtocol}.
  std::optional<std::uint64_t> rejoin_token;
  bool rejoin_verified = false;  // peer's RejoinMsg arrived and cross-checked
  /// Counters frozen at begin_rejoin(): the peer's RejoinMsg is checked
  /// against these, not the live counters — an optimistic subsystem may
  /// legitimately resume sending before the peer's handshake frame arrives.
  std::uint64_t rejoin_sent = 0;
  std::uint64_t rejoin_received = 0;

  // --- conservative state ----------------------------------------------------

  VirtualTime granted_in = VirtualTime::zero();   // peer's promise to us
  std::uint64_t granted_in_seen = 0;  // our sends the peer had seen then
  VirtualTime granted_in_lookahead;   // peer's declared reaction slack
  VirtualTime granted_out = VirtualTime::zero();  // our last promise to peer
  std::uint64_t granted_out_seen = 0;
  bool request_outstanding = false;
  std::uint64_t next_request_id = 1;
  /// The id of the peer's request this side has yet to answer.  The slice's
  /// grant push answers it once the promise reaches the peer's need; the
  /// resets below keep it, since any later promise answers it soundly.
  std::optional<std::uint64_t> owed_answer;
  /// Dedup state for safe-time requests: the (pending dispatch time,
  /// effective grant) pair the last request was sent under.  A reply that
  /// improves nothing clears request_outstanding, and without this memory
  /// the next blocked pass would fire an identical request at once —
  /// degenerating into a request/grant ping-pong storm between two pooled
  /// workers (observed: ~150 round trips per event on an 8-leaf star).
  /// Re-requesting is pointless until either value changes: the grantor
  /// pushes every promise that reaches the need we declared (peer_need).
  VirtualTime last_request_next = VirtualTime::infinity();
  VirtualTime last_request_grant = VirtualTime::infinity();

  /// Demand-driven pushes (the need invariant, DESIGN.md).  `peer_need` is
  /// the earliest time at which the peer can use a promise from us: the
  /// need_by of its last request or grant, clamped to the earliest of our
  /// sends it had not seen then, and lowered by every send since.  A grant
  /// below it is withheld.  It starts at zero, "push everything", and
  /// returns to it wherever the grants above are reset.
  VirtualTime peer_need = VirtualTime::zero();
  /// Records a need the peer declared after seeing `seen` of our sends.
  void note_peer_need(VirtualTime need_by, std::uint64_t seen) {
    peer_need = min(need_by, earliest_unseen_send(seen));
  }
  /// Forgets every promise and need in both directions (a restore put the
  /// channel on a fresh timeline); the run loop re-negotiates from zero.
  void reset_grants();

  /// EventMsg counters on this channel (grant grounding).
  std::uint64_t event_msgs_sent = 0;
  std::uint64_t event_msgs_received = 0;
  /// RetractMsg counters (termination accounting only: the probe's global
  /// send/receive balance must count every revival-capable message).  Like
  /// the event counters these are re-based at every snapshot restore — a
  /// restarted process has no engine-stat history, so the balance would
  /// otherwise never close after a recovery.
  std::uint64_t retract_msgs_sent = 0;
  std::uint64_t retract_msgs_received = 0;
  /// Entries trimmed off the front of the logs by fossil collection.
  std::uint64_t output_trimmed = 0;
  std::uint64_t input_trimmed = 0;

  /// The earliest of our sends the peer had not seen once it had seen
  /// `seen` of them; infinity when it had seen them all.  This is the
  /// minimum over every unseen output-log entry, retracted ones included:
  /// a rollback can retract a send and re-send an EARLIER one, so the first
  /// unseen entry need not be the earliest, and a retracted send still
  /// reaches the peer ahead of its retraction.
  [[nodiscard]] VirtualTime earliest_unseen_send(std::uint64_t seen) const {
    VirtualTime earliest = VirtualTime::infinity();
    const std::size_t from =
        seen > output_trimmed ? static_cast<std::size_t>(seen - output_trimmed)
                              : 0;
    for (std::size_t k = from; k < output_log.size(); ++k)
      earliest = min(earliest, output_log[k].time);
    return earliest;
  }

  /// The barrier this channel imposes: the peer's grant, clamped to our
  /// earliest send it had not yet seen plus the reaction slack it declared
  /// (CMB channel-clock grounding + lookahead).
  /// A grant grounded before a GVT trim passes unclamped: the sends it
  /// had not seen are committed history.
  [[nodiscard]] VirtualTime effective_grant() const {
    if (granted_in_seen >= event_msgs_sent ||
        granted_in_seen < output_trimmed ||
        granted_in_lookahead.is_infinite())
      return granted_in;
    return min(granted_in,
               earliest_unseen_send(granted_in_seen) + granted_in_lookahead);
  }
  /// Horizon slack: the minimum virtual-time delay between dispatching a
  /// local event and any resulting value crossing this channel (net delays
  /// plus mandatory processing).  Added to the safe times we grant.
  VirtualTime lookahead = VirtualTime::zero();
  /// Reaction slack: the minimum virtual-time delay between RECEIVING a
  /// peer event and sending anything back across this channel.  Sent
  /// inside grants so the peer can run ahead of its unacknowledged sends;
  /// a pure sink honestly declares infinity.
  VirtualTime reaction_lookahead = VirtualTime::zero();
  /// Derived at Subsystem::start() from the net topology: false when no
  /// split net on this endpoint has a local driver besides the channel
  /// component's own hidden port, i.e. no component output can ever route
  /// an event out through this side of the channel.  Such a sink-side
  /// endpoint promises infinite safe time (the peer's advancement must not
  /// wait on our processing) — without this a forward-only pipeline runs in
  /// virtual-time lockstep, every stage throttled by its downstream.
  bool can_send_events = true;

  // --- optimistic logs --------------------------------------------------------

  struct OutputRecord {
    SendId id;
    std::uint32_t net_index;
    VirtualTime time;
    Value value;
    bool retracted = false;
  };
  struct InputRecord {
    SendId id;
    std::uint32_t net_index;
    VirtualTime time;
    Value value;
    bool retracted = false;
    /// Scheduler seq of this input's queued delivery, refreshed on every
    /// (re-)injection.  Retraction erases by seq: payload matching is
    /// ambiguous when two live sends carry identical (time, value) — a
    /// common case under hot-page load — and erasing a sibling's copy
    /// silently loses its event.
    std::uint64_t seq = 0;
  };
  std::vector<OutputRecord> output_log;
  std::vector<InputRecord> input_log;
  std::size_t injected_count = 0;  // input_log prefix already injected

  /// Lazy cancellation: output_log entries in [replay_cursor, size) were
  /// sent by a rolled-back execution and await confirmation.  A
  /// re-execution that regenerates an entry identically consumes it without
  /// resending; an entry whose send time passes unregenerated is retracted.
  std::size_t replay_cursor = 0;

  // --- counters (quiescence detection, status, GVT) ----------------------------

  std::uint64_t msgs_sent = 0;      // all non-status messages
  std::uint64_t msgs_received = 0;  // all non-status messages
  StatusMsg peer_status{};          // last status received
  bool peer_status_seen = false;
  std::uint64_t msgs_sent_at_last_status_push = UINT64_MAX;
  std::uint64_t msgs_received_at_last_status_push = UINT64_MAX;
  bool idle_at_last_status_push = false;

  // --- wiring ------------------------------------------------------------------

  ComponentId channel_component;  // the proxy living in the local scheduler
  std::vector<NetId> split_nets;  // local net piece per net index
  std::uint32_t index = 0;        // position in the owning subsystem's table

  /// SendId counter state, persisted by durable snapshots: a recovered
  /// process restarting the counter at zero would mint SendIds that collide
  /// with ids already in the peer's logs, corrupting retraction lookups.
  [[nodiscard]] std::uint64_t send_counter() const {
    return next_send_counter_;
  }
  void set_send_counter(std::uint64_t counter) {
    next_send_counter_ = counter;
  }

 private:
  /// Pops the front of the decoded inbound queue and counts it.
  ChannelMessage take_inbound();

  /// Pulls the next ready frame off the link into the decoded queue,
  /// borrowing it in place when the link supports views.  Returns false
  /// when no frame was ready.
  bool pull_frame();

  std::string name_;
  ChannelMode mode_;
  std::uint64_t mode_epoch_ = 0;
  transport::LinkPtr link_;
  std::uint32_t origin_id_;
  std::uint64_t next_send_counter_ = 0;

  // Outbound batching state.  The whole batch — a reserved header gap, then
  // per-message [length prefix][encoded message] — builds up contiguously
  // in the arena; flush() back-patches the header and hands the batch to
  // the link as one subspan, with no intermediate scratch→batch→frame
  // copies.  The arena's epoch recycling keeps the allocation warm across
  // frames and bounds the high-water mark after a burst.
  serial::FrameArena arena_;
  serial::OutArchive enc_{arena_.storage()};  // appends into the arena
  std::uint32_t batch_count_ = 0;
  std::size_t first_payload_offset_ = 0;  // bare-format start, batch of one
  std::uint32_t batch_limit_ = 64;
  FlushGroup own_group_;
  FlushGroup* group_ = nullptr;  // a set's group, or own_group_ when null
  bool listed_ = false;          // in group().dirty until its release
  friend struct FlushGroup;

  [[nodiscard]] FlushGroup& group() {
    return group_ != nullptr ? *group_ : own_group_;
  }

  std::deque<ChannelMessage> inbound_;  // decoded, not yet delivered
};

}  // namespace pia::dist
