// Functional replication: K deterministic clones of a subsystem behind one
// logical channel, with zero-rollback failover (FT-GAIA direction).
//
// PR 3's durable snapshots recover a crashed subsystem by restoring a past
// cut — seconds of downtime and a coordinated restore.  Functional
// replication removes the downtime entirely for critical subsystems: a
// ReplicaSet registers K copies of the same model seeded identically, so
// every replica computes the identical event stream.  The replication is
// invisible to both the peer and the replicas themselves:
//
//   * Fan-out — the peer's ChannelEndpoint talks to a ReplicaLinkGroup, a
//     transport::Link whose send() duplicates every outgoing frame to all
//     live members.  Each replica therefore observes the complete logical
//     input stream.
//
//   * Dedup — each member's outgoing frames are stamped with a
//     (member, epoch) header by a ReplicaTagLink; the group's recv side
//     strips the header, decodes the frame, and passes the messages through
//     a ReplicaDedup filter so the peer sees exactly the single-instance
//     stream, bit-exact with an unreplicated run.  Deduplication is
//     message-level, not frame-level: batch boundaries, heartbeats and
//     grant timing are wall-clock dependent and differ across replicas even
//     when the simulation streams are identical.
//
//   * Failover — a dying member (abrupt transport close, heartbeat
//     timeout upstream) is simply dropped from the group; a survivor's
//     stream continues from the accepted position.  No rollback, no
//     snapshot restore: the survivor already holds live state.  Only when
//     every member is gone does the group report closed(), pushing the peer
//     onto the PR 3 snapshot ladder (RunOutcome::kDisconnected).
//
// Message classes (see ReplicaDedup):
//   * simulation stream (Event / Retract / Mark / RunLevel): deterministic
//     across clones — deduplicated positionally: member stream position
//     must equal the globally accepted position.
//   * probes (ProbeMsg): deduplicated per origin by nonce — nonces are
//     monotone per origin, and a duplicate would corrupt the Safra
//     pending/sum accounting.
//   * probe replies: AND-gathered per (origin, nonce), not first-copy-wins.
//     The logical peer is idle only when EVERY live clone is idle: a lone
//     idle clone's ok reply must not certify termination while a lagging
//     sibling still holds undispatched events (it would quiesce mid-stream
//     on the flooded TerminateMsg).  A busy clone's ok=false reply fails
//     the round immediately; an all-ok round emits once the last live
//     clone has answered (the copies are identical by determinism).
//   * everything else (grants, requests, status, heartbeats, terminate,
//     rejoin): pass-through.  Grants and statuses are idempotent
//     last-wins state reports; a stale grant from a lagging replica only
//     tightens the barrier because effective_grant() grounds a grant in
//     the events the grantor had seen.
//
// Constraints: a replicated subsystem is a conservative leaf.  Conservative,
// because optimistic retraction streams depend on wall-clock racing and
// would diverge across clones; a leaf (one logical channel), because
// termination-probe relaying assumes each physical peer is a distinct
// forest edge.  Replica members never ORIGINATE termination probes (their
// TerminateMsg would flood away from the arrival channel and miss the
// sibling replicas); they still relay and reply.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dist/node.hpp"
#include "dist/protocol.hpp"
#include "transport/fault.hpp"
#include "transport/latency.hpp"
#include "transport/link.hpp"

namespace pia::dist {

struct ReplicaGroupStats {
  std::uint64_t frames_fanned_out = 0;   // frame copies sent to members
  std::uint64_t frames_received = 0;     // member frames pulled off sub-links
  std::uint64_t messages_accepted = 0;   // survived dedup, delivered upstream
  std::uint64_t duplicates_dropped = 0;  // redundant copies discarded
  std::uint64_t stale_epoch_frames = 0;  // frames from a retired member epoch
  std::uint64_t members_dropped = 0;     // member deaths observed
  std::uint64_t promotions = 0;          // drops that left a live survivor
  /// Failover latency of the most recent promotion: member-death detection
  /// to the next frame delivered upstream (the zero-rollback resume).
  std::uint64_t last_failover_micros = 0;
};

/// Message-level duplicate filter for one replica group (see file comment
/// for the class taxonomy).  Separate from ReplicaLinkGroup so the dedup
/// rules are unit-testable without transport plumbing.
class ReplicaDedup {
 public:
  explicit ReplicaDedup(std::size_t members = 0)
      : sim_seen_(members, 0), live_(members, true) {}

  void add_member() {
    sim_seen_.push_back(0);
    live_.push_back(true);
  }
  [[nodiscard]] std::size_t member_count() const { return sim_seen_.size(); }

  /// Re-bases a member's simulation-stream cursor to the accepted position.
  /// Used when a respawned clone is attached at a drained barrier: its
  /// output resumes exactly at the logical stream position the group has
  /// already accepted.
  void rebase_member(std::size_t member) {
    sim_seen_.at(member) = sim_accepted_;
    live_.at(member) = true;
  }

  /// A member died: stop expecting its copy in open reply gathers.  Returns
  /// the all-ok replies this completes (rounds that were only waiting on
  /// the dead clone) — the caller must deliver them upstream, or the
  /// origin's probe round hangs forever.
  [[nodiscard]] std::vector<ChannelMessage> note_member_dead(
      std::size_t member);

  [[nodiscard]] std::uint64_t sim_accepted() const { return sim_accepted_; }
  [[nodiscard]] std::uint64_t sim_seen(std::size_t member) const {
    return sim_seen_.at(member);
  }

  /// True when `message`, arriving from `member`, completes the logical
  /// single-instance stream and must be delivered upstream; false for
  /// redundant copies (and for ok probe replies still waiting on sibling
  /// clones — see the file comment's class taxonomy).
  [[nodiscard]] bool accept(std::size_t member, const ChannelMessage& message);

 private:
  /// One open probe round: which live clones still owe their reply copy.
  struct ReplyGather {
    std::vector<bool> expected;  // live members when the round opened
    std::vector<bool> seen;
    std::optional<ChannelMessage> ok_copy;  // representative all-ok reply
  };

  std::vector<std::uint64_t> sim_seen_;  // per member: sim-class msgs seen
  std::vector<bool> live_;               // per member: still expected
  std::uint64_t sim_accepted_ = 0;       // sim-class msgs delivered upstream
  std::map<std::uint64_t, std::uint64_t> probe_accepted_;  // origin -> nonce
  std::map<std::uint64_t, std::uint64_t> reply_accepted_;  // origin -> nonce
  std::map<std::pair<std::uint64_t, std::uint64_t>, ReplyGather>
      reply_gather_;  // (origin, nonce) -> open round
};

/// Link decorator for the member side of a replica channel: stamps every
/// outgoing frame with the member's (slot, epoch) replica header so the
/// receiving ReplicaLinkGroup can attribute and deduplicate it.  Inbound
/// (fan-out) frames pass through untouched.
class ReplicaTagLink final : public transport::Link {
 public:
  ReplicaTagLink(transport::LinkPtr inner, std::uint32_t member,
                 std::uint64_t epoch)
      : inner_(std::move(inner)), member_(member), epoch_(epoch) {}

  void send(BytesView frame, std::uint32_t message_count = 1) override;
  std::optional<Bytes> try_recv() override { return inner_->try_recv(); }
  std::optional<Bytes> recv_for(std::chrono::milliseconds timeout) override {
    return inner_->recv_for(timeout);
  }
  void close() override { inner_->close(); }
  [[nodiscard]] bool closed() const override { return inner_->closed(); }
  [[nodiscard]] transport::LinkStats stats() const override {
    return inner_->stats();
  }
  [[nodiscard]] std::string describe() const override;
  void set_ready_signal(transport::ReadySignalPtr signal) override {
    inner_->set_ready_signal(std::move(signal));
  }
  [[nodiscard]] int readable_fd() const override {
    return inner_->readable_fd();
  }
  void poll_fds(std::vector<pollfd>& fds) const override {
    inner_->poll_fds(fds);
  }
  [[nodiscard]] std::optional<std::chrono::steady_clock::time_point>
  next_ready_time() const override {
    return inner_->next_ready_time();
  }

 private:
  transport::LinkPtr inner_;
  std::uint32_t member_;
  std::uint64_t epoch_;
};

/// The peer-side link of a replicated channel: one transport::Link facade
/// over K member sub-links.  send() fans frames out to every live member;
/// the recv side deduplicates member streams back into the single logical
/// stream.  Member death (kTransport on send, closed() on recv) drops the
/// member and promotes the survivors in place — the channel endpoint above
/// never notices.  closed() only once every member is gone.
class ReplicaLinkGroup final : public transport::Link {
 public:
  explicit ReplicaLinkGroup(std::string name) : name_(std::move(name)) {}

  /// Registers a member sub-link (epoch 1); returns its slot index.
  std::size_t add_member(transport::LinkPtr link);
  /// Re-attaches a fresh sub-link on `member`'s slot with a bumped epoch
  /// and the dedup cursor re-based to the accepted position.  Only valid at
  /// a drained barrier with the new clone primed to the accepted state;
  /// frames still in flight from the previous epoch are dropped.
  void reattach_member(std::size_t member, transport::LinkPtr link);

  [[nodiscard]] std::size_t member_count() const { return members_.size(); }
  [[nodiscard]] std::size_t live_count() const;
  [[nodiscard]] bool member_live(std::size_t member) const {
    return members_.at(member).alive;
  }
  [[nodiscard]] std::uint64_t member_epoch(std::size_t member) const {
    return members_.at(member).epoch;
  }

  /// Invoked (from the owning endpoint's thread) whenever a member is
  /// dropped; used by ReplicaSet to retire the member subsystem from GVT.
  void set_death_callback(std::function<void(std::size_t)> callback) {
    death_callback_ = std::move(callback);
  }

  [[nodiscard]] const ReplicaGroupStats& group_stats() const {
    return gstats_;
  }
  [[nodiscard]] ReplicaDedup& dedup() { return dedup_; }

  // --- transport::Link ------------------------------------------------------
  void send(BytesView frame, std::uint32_t message_count = 1) override;
  std::optional<Bytes> try_recv() override;
  std::optional<Bytes> recv_for(std::chrono::milliseconds timeout) override;
  void close() override;
  [[nodiscard]] bool closed() const override { return live_count() == 0; }
  [[nodiscard]] transport::LinkStats stats() const override;
  [[nodiscard]] std::string describe() const override;
  void set_ready_signal(transport::ReadySignalPtr signal) override;
  /// Every live member's poll entries.  Socket members never notify the
  /// shared signal, so the waiter must watch each of them (a frame can
  /// arrive on any member), and the executor's park rule must see that the
  /// group is fd-backed.
  void poll_fds(std::vector<pollfd>& fds) const override;
  [[nodiscard]] std::optional<std::chrono::steady_clock::time_point>
  next_ready_time() const override;

 private:
  struct Member {
    transport::LinkPtr link;
    std::uint64_t epoch = 1;
    bool alive = true;
  };

  void drop_member(std::size_t member);
  /// Shared death bookkeeping for drop/retire: completes reply gathers that
  /// were only waiting on the dead member and queues the released replies
  /// for delivery (a probe round in flight across a member death must still
  /// answer the origin).
  void settle_member_death(std::size_t member);
  /// Strips the replica header, decodes, dedups and re-encodes one member
  /// frame.  nullopt when every message was a duplicate (or the frame came
  /// from a stale epoch).
  std::optional<Bytes> process_frame(std::size_t member, BytesView frame);
  /// process_frame plus the delivery bookkeeping (round-robin advance,
  /// failover-latency stamp) shared by try_recv and recv_for.
  std::optional<Bytes> handle_raw(std::size_t member, BytesView raw);

  std::string name_;
  std::vector<Member> members_;
  ReplicaDedup dedup_;
  ReplicaGroupStats gstats_;
  std::size_t rr_ = 0;  // round-robin recv cursor (fairness across members)
  std::deque<Bytes> pending_out_;  // death-completed replies awaiting recv
  transport::ReadySignalPtr signal_;  // re-applied to re-attached members
  std::function<void(std::size_t)> death_callback_;
  std::optional<std::chrono::steady_clock::time_point> death_detected_;
};

/// Registry of K replica subsystems plus the wiring that makes them look
/// like one logical peer.  Workflow:
///
///   ReplicaSet set("gateway");
///   set.add_member(node1.add_subsystem("gateway-r0"));   // distinct nodes
///   set.add_member(node2.add_subsystem("gateway-r1"));
///   auto chan = set.connect(frontend, ChannelMode::kConservative);
///   set.export_net(frontend, chan, frontend_net, member_net);
///   ... configure each member identically (same components, same seed) ...
///
/// The members must be deterministic clones: same model, same seed-derived
/// RNG streams.  Placement is anti-affine — connect() rejects members that
/// share a host node (or the peer's), since co-located replicas die
/// together and protect nothing.
class ReplicaSet {
 public:
  explicit ReplicaSet(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Registers a member clone.  Marks it as a replica member: replica
  /// members never originate termination probes (see file comment).
  void add_member(Subsystem& member);

  [[nodiscard]] std::size_t size() const { return members_.size(); }
  [[nodiscard]] Subsystem& member(std::size_t i) { return *members_.at(i); }

  struct Channel {
    ChannelId peer;                  // the peer's logical channel
    std::vector<ChannelId> members;  // each member's physical channel
  };

  /// Wires `peer` to every member as ONE logical channel.  `mode` must be
  /// kConservative.  `member_faults[k]`, when present, injects wire faults
  /// on member k's sub-link only (the seeded replica-kill harness); each
  /// sub-link gets `latency` and its faults in one decorator, as with
  /// connect().  A ReplicaSet carries exactly one logical channel:
  /// replicated subsystems are leaves.
  Channel connect(Subsystem& peer, ChannelMode mode,
                  Wire wire = Wire::kLoopback,
                  transport::LatencyModel latency = {},
                  std::vector<transport::FaultPlan> member_faults = {});

  /// Splits a net across the logical channel: `peer_net` inside the peer,
  /// `member_net` inside every member.  Same ordering rules as split_net().
  void export_net(Subsystem& peer, const Channel& channel, NetId peer_net,
                  NetId member_net);

  /// The fan-out/dedup link facade; owned by the peer's endpoint, valid
  /// while the peer subsystem lives.  Only valid after connect().
  [[nodiscard]] ReplicaLinkGroup& group();

  [[nodiscard]] std::size_t live_members() const;

 private:
  std::string name_;
  std::vector<Subsystem*> members_;
  ReplicaLinkGroup* group_ = nullptr;  // owned by the peer's endpoint
};

class NodeCluster;

/// connect() plus topology registration: the replica group is ONE logical
/// edge (peer <-> set name) in the cluster forest — member subsystems do
/// not appear as forest vertices, mirroring how the sync protocols account
/// the whole group as one logical peer.
ReplicaSet::Channel connect_replicated_checked(
    NodeCluster& cluster, Subsystem& peer, ReplicaSet& set, ChannelMode mode,
    Wire wire = Wire::kLoopback, transport::LatencyModel latency = {},
    std::vector<transport::FaultPlan> member_faults = {});

}  // namespace pia::dist
