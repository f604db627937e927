// The inter-subsystem channel protocol.
//
// Everything two subsystems exchange travels as one of these messages over a
// FIFO Link (paper §2.2): timestamped net events, safe-time requests and
// grants (conservative channels, §2.2.3), retractions (optimistic rollback,
// §2.2.4), Chandy–Lamport marks (§2.2.5), runlevel coordination and idle
// status for termination/GVT.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <variant>

#include "base/ids.hpp"
#include "base/time.hpp"
#include "core/value.hpp"

namespace pia::dist {

/// Channel wire-protocol version.  Version 2 introduced batch frames (one
/// link frame carrying several messages) and the compact Event port
/// encoding in recovery images; version 3 the `need_by` fields of safe-time
/// requests and grants; version 4 dropped ModeProposalMsg's trailing
/// capability word (every build renegotiates; a disabled controller answers
/// "unsupported") and made RejoinMsg's protocol field mandatory.  Announced
/// in the rejoin handshake so mismatched peers fail loudly instead of
/// desynchronizing.
inline constexpr std::uint32_t kChannelProtocolVersion = 4;

/// Globally unique identifier of a sent event: (origin subsystem, counter).
/// Retractions name the event they cancel by this id.
struct SendId {
  std::uint32_t origin = 0;
  std::uint64_t counter = 0;

  friend bool operator==(const SendId&, const SendId&) = default;
};

/// A net event crossing the channel: "value appeared on split net
/// `net_index` at virtual time `time`".
struct EventMsg {
  SendId id;
  std::uint32_t net_index = 0;  // index into the channel's split-net table
  VirtualTime time;
  Value value;
};

/// "How far may I advance without consulting you again?"
///
/// `need_by` is the earliest time at which the requester can use a promise
/// on this channel, and `events_seen` how many of the grantor's EventMsgs
/// it had received when it said so.  The grantor answers once its grant
/// reaches the need (see ChannelEndpoint::peer_need).  Zero asks for every
/// promise.
struct SafeTimeRequest {
  std::uint64_t request_id = 0;
  VirtualTime need_by = VirtualTime::zero();
  std::uint64_t events_seen = 0;
};

/// The grant: the reporting subsystem's own horizon with all restrictions
/// from the requester removed (self-restriction removal, §2.2.3).
///
/// `events_seen` grounds the promise: it is how many of the requester's
/// EventMsgs the grantor had received when computing the grant.  Events the
/// grantor has not yet seen could still provoke responses as early as their
/// own timestamps, so the requester clamps its barrier to its earliest
/// unseen send's time (the CMB channel-clock argument).
struct SafeTimeGrant {
  std::uint64_t request_id = 0;  // 0 for unsolicited (null-message) grants
  VirtualTime safe_time;
  std::uint64_t events_seen = 0;
  /// The grantor's declared reaction slack: it promises never to send a
  /// message earlier than `unseen event time + lookahead` in response to a
  /// requester event it has not seen yet.  Lets the requester run several
  /// events ahead per grant instead of lock-stepping one per round trip.
  VirtualTime lookahead;
  /// The grantor's own need on this channel, as in SafeTimeRequest; it is
  /// grounded on `events_seen`.
  VirtualTime need_by = VirtualTime::zero();
};

/// Chandy–Lamport marker.  `token` identifies the snapshot request so a
/// subsystem checkpoints only once per request (§2.2.5).
struct MarkMsg {
  std::uint64_t token = 0;
};

/// Anti-message: cancel a previously sent EventMsg (optimistic rollback).
struct RetractMsg {
  SendId id;
  VirtualTime time;  // timestamp of the event being cancelled
};

/// Runlevel coordination across a channel (§2.2.1: channel components
/// "may be responsible for coordinating run levels between the components").
struct RunLevelMsg {
  std::string component;
  std::string level_name;
  std::int32_t detail = 0;
};

/// Periodic status: enables quiescence detection (both sides idle with
/// matched message counters means nothing is in flight) and GVT estimation.
/// Counters cover all non-status messages on this channel.
struct StatusMsg {
  VirtualTime now;
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_received = 0;
  bool idle = false;

  friend bool operator==(const StatusMsg&, const StatusMsg&) = default;
};

/// Diffusing termination probe (Dijkstra–Scholten echo over the subsystem
/// forest).  An idle subsystem floods a probe; each relay forwards it away
/// from the arrival channel and replies with the conjunction of its
/// subtree's answers AND its own idleness at reply time.  FIFO links make
/// the answers truthful: any event a peer sent before its reply is received
/// before the reply.
struct ProbeMsg {
  std::uint64_t origin = 0;  // (subsystem id << 32) | nonce
  std::uint64_t nonce = 0;
};

struct ProbeReply {
  std::uint64_t origin = 0;
  std::uint64_t nonce = 0;
  bool ok = false;
  /// Safra-style subtree accounting: simulation messages (events and
  /// retractions) sent and received, plus the activity counter, summed over
  /// every subsystem in the replying subtree.  A single all-ok wave cannot
  /// rule out an in-flight message reviving a subsystem that already
  /// replied, so the origin terminates only after two consecutive candidate
  /// rounds report identical sums with sent == received.
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t activity = 0;
};

/// Broadcast by the subsystem whose probe confirmed global quiescence;
/// flooded over the tree, it tells everyone to stop.  Quiescence is a
/// stable property, so the flood is race-free.
struct TerminateMsg {
  std::uint64_t token = 0;
};

/// Liveness beacon (failure detection).  Sent on every inter-node link at
/// the configured heartbeat interval whether or not simulation traffic
/// flows; a channel that sees NO traffic at all for the liveness timeout
/// declares the peer down (RunOutcome::kPeerDown) instead of hanging.
struct HeartbeatMsg {
  std::uint64_t seq = 0;
};

/// Rejoin handshake after a crash recovery.  Each side announces the
/// snapshot token it restored and its channel sequence state (EventMsg
/// counters); the receiver cross-checks them — my sent must equal your
/// received and vice versa, or the two sides restored inconsistent cuts and
/// resuming would diverge silently.
struct RejoinMsg {
  std::uint64_t token = 0;
  std::uint64_t events_sent = 0;      // sender's event_msgs_sent on this channel
  std::uint64_t events_received = 0;  // sender's event_msgs_received
  /// Wire-protocol version the sender speaks.
  std::uint32_t protocol = kChannelProtocolVersion;
};

/// Mode renegotiation, step 1 (propose).  The proposer asks its peer to
/// flip this channel's synchronization mode at a future Chandy–Lamport cut.
/// `nonce` is (proposer subsystem id << 32) | counter so crossed proposals
/// tie-break deterministically (lower subsystem id wins); `epoch` is the
/// proposer's view of the channel's mode epoch — a mismatch means the mode
/// already changed underneath the proposal and the peer must reject it.
struct ModeProposalMsg {
  std::uint64_t nonce = 0;
  std::uint64_t epoch = 0;
  std::uint8_t target = 0;  // ChannelMode the proposer wants
};

/// Mode renegotiation, steps 2 and 5 (agree / flipped).  phase 0 answers
/// the proposal (accept=false carries a reason: 0 = busy, retry later;
/// 1 = unsupported, never retry on this channel).  phase 1 confirms the
/// acceptor flipped its endpoint at the cut, releasing the proposer.
struct ModeAckMsg {
  std::uint64_t nonce = 0;
  std::uint8_t phase = 0;   // 0 = agree, 1 = flipped
  bool accept = false;
  std::uint8_t reason = 0;  // 0 = busy/retry, 1 = unsupported/never-retry
};

/// Mode renegotiation, step 3 (cut).  Sent by the proposer after the agree
/// ack: `token` names the snapshot cut whose marker — already in flight on
/// this FIFO channel, ahead of this message — is the flip barrier.
struct ModeCommitMsg {
  std::uint64_t nonce = 0;
  std::uint64_t token = 0;
};

/// Mode renegotiation, step 6 (resume).  Sent by the proposer after its own
/// flip; the acceptor releases its dispatch hold on receipt.
struct ModeResumeMsg {
  std::uint64_t nonce = 0;
};

using ChannelMessage =
    std::variant<EventMsg, SafeTimeRequest, SafeTimeGrant, MarkMsg,
                 RetractMsg, RunLevelMsg, StatusMsg, ProbeMsg, ProbeReply,
                 TerminateMsg, HeartbeatMsg, RejoinMsg, ModeProposalMsg,
                 ModeAckMsg, ModeCommitMsg, ModeResumeMsg>;

[[nodiscard]] Bytes encode_message(const ChannelMessage& message);
/// Appends the encoding to `ar` — the scratch-archive form the channel send
/// path uses to avoid a fresh allocation per message.
void encode_message_into(serial::OutArchive& ar,
                         const ChannelMessage& message);
[[nodiscard]] ChannelMessage decode_message(BytesView data);

/// First payload byte of a batch frame: `kBatchFrameTag`, then a varint
/// message count, then count × (varint length + message bytes).  Message
/// tags skip 13 and 14 (they resume at 15 for the mode-negotiation class),
/// so the first byte disambiguates batch frames from bare single messages —
/// one message per frame still travels in the old format.
inline constexpr std::uint8_t kBatchFrameTag = 13;

/// Decodes one link frame — bare message or batch — appending the decoded
/// messages to `out` in send order.
void decode_frame(BytesView frame, std::deque<ChannelMessage>& out);

/// First payload byte of a replica-tagged frame: `kReplicaFrameTag`, then a
/// varint member index, a varint member epoch, and the inner frame (bare
/// message or batch) unchanged.  Stamped by ReplicaTagLink on every frame a
/// replica member sends so the receiving ReplicaLinkGroup can attribute the
/// frame to a (member, epoch) for deduplication; frames from a retired
/// epoch of the same member slot are dropped instead of corrupting the
/// dedup cursor of its replacement.
inline constexpr std::uint8_t kReplicaFrameTag = 14;

struct ReplicaFrameHeader {
  std::uint32_t member = 0;  // slot in the ReplicaSet, stable across respawns
  std::uint64_t epoch = 0;   // bumped every time the slot is re-attached
};

/// Wraps `inner` (a complete bare or batch frame) with a replica header.
void encode_replica_frame(serial::OutArchive& out, std::uint32_t member,
                          std::uint64_t epoch, BytesView inner);

/// Splits a replica-tagged frame into its header and the inner frame view
/// (aliasing `frame`).  nullopt when `frame` carries no replica header.
[[nodiscard]] std::optional<std::pair<ReplicaFrameHeader, BytesView>>
split_replica_frame(BytesView frame);

/// Control messages are protocol plumbing (status, probes, termination,
/// heartbeats, rejoin handshakes): they are excluded from the msgs_sent /
/// msgs_received counters that ground quiescence detection, so adding a
/// control exchange never perturbs termination.
[[nodiscard]] bool is_control_message(const ChannelMessage& message);

}  // namespace pia::dist
