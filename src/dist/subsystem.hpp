// Subsystem: one fragment of the design under test, with its scheduler and
// channel endpoints (paper §2.2).
//
// A Pia node contains one or more subsystems; each subsystem owns a
// Scheduler (the local timing kernel), a CheckpointManager, and a set of
// channels to peer subsystems.  The distributed time rules themselves live
// in five layered engines under dist/sync/, each owning one protocol's state:
//
//   * sync::ConservativeEngine (§2.2.3): safe-time grants with
//     self-restriction removal, unsolicited grant pushes (null messages),
//     the advance barrier, and the diffusing termination probe.
//
//   * sync::OptimisticEngine (§2.2.4): checkpoint cadence, rollback to the
//     newest suitable snapshot, retraction (anti-messages) with lazy
//     cancellation, and GVT-driven fossil collection.
//
//   * sync::SnapshotCoordinator (§2.2.5): Chandy–Lamport marks, channel
//     state recording, durable persistence and the image format, and the
//     one restore of a completed cut (in memory or from an image).
//
//   * sync::RecoveryCoordinator: heartbeat liveness and the post-recovery
//     rejoin handshake.
//
//   * sync::AdaptiveController: runtime conservative↔optimistic
//     renegotiation per channel, flipped atomically at a Chandy–Lamport
//     cut (see adaptive.hpp for the handshake).
//
// The facade owns the run loop, the channel message dispatch, and the
// outbound send path; engines reach shared infrastructure and each other's
// services only through sync::EngineContext, which Subsystem implements
// privately.  The facade and the engines count into one SubsystemStats
// block held by that context; stats() hands it out read-only.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/scheduler.hpp"
#include "dist/channel.hpp"
#include "dist/channel_set.hpp"
#include "dist/protocol.hpp"
#include "dist/snapshot_store.hpp"
#include "dist/sync/adaptive.hpp"
#include "dist/sync/conservative.hpp"
#include "dist/sync/engine_context.hpp"
#include "dist/sync/optimistic.hpp"
#include "dist/sync/recovery.hpp"
#include "dist/sync/snapshot.hpp"

namespace pia::dist {

class Subsystem : private sync::EngineContext {
 public:
  Subsystem(std::string name, std::uint32_t numeric_id);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint32_t numeric_id() const { return id_; }
  [[nodiscard]] Scheduler& scheduler() override { return scheduler_; }
  [[nodiscard]] const Scheduler& scheduler() const override {
    return scheduler_;
  }
  [[nodiscard]] CheckpointManager& checkpoints() override {
    return checkpoints_;
  }
  [[nodiscard]] const CheckpointManager& checkpoints() const override {
    return checkpoints_;
  }

  /// The subsystem's protocol counters, as the facade and the sync engines
  /// count them.
  [[nodiscard]] const SubsystemStats& stats() const {
    return sync::EngineContext::stats();
  }

  // --- channel setup ---------------------------------------------------------

  /// Attaches a channel to a peer subsystem over `link`.  Creates the
  /// channel component pair member on this side.
  ChannelId add_channel(const std::string& channel_name, ChannelMode mode,
                        transport::LinkPtr link);

  [[nodiscard]] ChannelEndpoint& channel(ChannelId id);
  [[nodiscard]] std::size_t channel_count() const { return channels_.size(); }

  /// Splits `local_net` across the channel: attaches a hidden port of the
  /// channel component to it.  Call in the same order on both subsystems so
  /// net indexes line up.  Returns the net's index in the channel table.
  std::uint32_t export_net(ChannelId channel_id, NetId local_net);

  /// Sets the batch limit (messages per link frame) on every channel, and
  /// the default applied to channels added later.  1 disables batching.
  void set_channel_batch_limit(std::uint32_t limit);

  /// Sets the horizon slack of a conservative channel (typically the
  /// minimum delay of the nets it exports).
  void set_lookahead(ChannelId channel_id, VirtualTime lookahead);
  /// Sets the reaction slack this subsystem declares on the channel: the
  /// minimum virtual time between receiving a peer event and sending
  /// anything back.  Pure sinks declare VirtualTime::infinity().
  void set_reaction_lookahead(ChannelId channel_id, VirtualTime lookahead);

  // --- checkpoint cadence (optimistic operation) -------------------------------

  void set_checkpoint_interval(std::uint64_t dispatches) {
    optimistic_.set_checkpoint_interval(dispatches);
  }
  [[nodiscard]] std::uint64_t checkpoint_interval() const {
    return optimistic_.checkpoint_interval();
  }

  // --- adaptive synchronization ---------------------------------------------------

  /// Enables measurement-driven per-channel mode renegotiation.  Off by
  /// default; a disabled subsystem still answers peers' proposals with a
  /// clean "unsupported" rejection, so enabling one side is always safe.
  void set_adaptive_sync(const sync::AdaptivePolicy& policy = {}) {
    adaptive_.enable(policy);
  }

  /// Forces a renegotiation of `channel_id` to `target` at the next slice
  /// the facade's arbitration allows (tests, operators).  Deferred — not
  /// dropped — while a rejoin or failover is in flight.
  void request_mode_change(ChannelId channel_id, ChannelMode target) {
    adaptive_.request_mode(channel_id.value(), target);
  }

  // --- runlevel coordination across channels ------------------------------------

  /// Asks the peer subsystem to switch one of ITS components.
  void send_runlevel(ChannelId channel_id, const std::string& component,
                     const RunLevel& level);

  // --- distributed snapshots ------------------------------------------------------

  /// Starts a Chandy–Lamport snapshot; returns the token identifying it
  /// across all subsystems.  (Doubles as the EngineContext service the
  /// AdaptiveController cuts its mode-flip barrier with.)
  std::uint64_t initiate_snapshot() override { return snapshot_.initiate(); }
  [[nodiscard]] bool snapshot_complete(std::uint64_t token) const {
    return snapshot_.complete(token);
  }
  /// Restores the local checkpoint of `token` plus its recorded channel
  /// state.  All subsystems must restore the same token (coordinated by the
  /// caller) for a consistent global restore.
  void restore_snapshot(std::uint64_t token) {
    snapshot_.restore(token);
    // The restore adopted the cut's recorded modes; any half-open
    // negotiation described the abandoned timeline.
    adaptive_.reset();
  }

  // --- durable snapshots / crash recovery ---------------------------------------

  /// Attaches an on-disk store: every Chandy–Lamport snapshot that
  /// completes on this subsystem is exported and committed automatically
  /// (atomic write-temp-then-rename; see SnapshotStore for the format).
  void set_snapshot_store(std::shared_ptr<SnapshotStore> store) {
    snapshot_.set_store(std::move(store));
  }
  [[nodiscard]] SnapshotStore* snapshot_store() { return snapshot_.store(); }

  /// Makes this subsystem initiate a Chandy–Lamport snapshot every N local
  /// dispatches (0 disables).  Dispatch-count cadence keeps the snapshot
  /// points deterministic per run, unlike wall-clock timers.
  void set_auto_snapshot_interval(std::uint64_t dispatches) {
    snapshot_.set_auto_interval(dispatches);
  }

  /// Serializes the completed snapshot `token` — component images, event
  /// queue, per-channel logs and the recorded in-flight channel frames —
  /// into a self-contained durable image (the SnapshotStore payload).
  [[nodiscard]] Bytes export_snapshot(std::uint64_t token) const {
    return snapshot_.export_image(token);
  }

  /// Fresh-process restore: rebuilds this subsystem's entire execution
  /// state from a durable image produced by export_snapshot on an
  /// identically wired subsystem.  Must be called after start(), before
  /// run(); links are expected to be fresh (empty).  The restored subsystem
  /// resumes at the snapshot's virtual time, bit-exact with the original.
  void restore_snapshot_image(BytesView image);

  /// Announces this side of the post-recovery handshake: sends a RejoinMsg
  /// carrying `token` and the channel sequence state on every channel, and
  /// arms verification of the peer's announcement.  Counter or token
  /// mismatches raise Error{kProtocol}.
  void begin_rejoin(std::uint64_t token) { recovery_.begin_rejoin(token); }

  /// Swaps in a fresh link on one channel (reconnect path for a surviving
  /// subsystem whose peer is being restarted).
  void replace_link(ChannelId channel_id, transport::LinkPtr link) {
    channels_.replace_link(channel_id, std::move(link));
  }

  // --- failure detection ----------------------------------------------------------

  /// Enables heartbeats on every channel: a beacon every `interval`, peer
  /// declared down after `timeout` with no traffic at all.  Disabled by
  /// default (interval zero); timeout must comfortably exceed interval.
  void set_heartbeat(std::chrono::milliseconds interval,
                     std::chrono::milliseconds timeout) {
    recovery_.set_heartbeat(interval, timeout);
  }

  // --- execution --------------------------------------------------------------------

  /// Must be called once after wiring, before the first run.  Initializes
  /// the scheduler and takes the base checkpoint optimistic rollback needs.
  void start();
  [[nodiscard]] bool started() const { return started_; }

  /// Processes every currently available channel message.  Returns true if
  /// anything was consumed.
  bool drain();

  enum class StepResult { kStepped, kBlocked, kIdle };

  /// Dispatches the next local event if the conservative grants allow it.
  StepResult try_advance(VirtualTime horizon = VirtualTime::infinity());

  struct RunConfig {
    VirtualTime horizon = VirtualTime::infinity();
    /// Give up if no progress happens for this long (deadlock guard in
    /// tests; production would wait forever).
    std::chrono::milliseconds stall_timeout{5000};
  };

  /// kDisconnected: a channel's transport failed (peer crash, abrupt
  /// close); the subsystem wound down cleanly instead of unwinding with a
  /// transport exception mid-protocol.  kPeerDown: the transport still
  /// looks open but the peer stopped sending anything (heartbeat liveness
  /// timeout) — the distributed-system failure mode kDisconnected cannot
  /// see.
  enum class RunOutcome {
    kQuiescent,
    kHorizon,
    kStalled,
    kDisconnected,
    kPeerDown,
  };

  /// The subsystem main loop: drain / advance / exchange grants and status
  /// until global quiescence is observed, the horizon is guaranteed, or no
  /// progress happens for stall_timeout.
  RunOutcome run(const RunConfig& config);
  RunOutcome run() { return run(RunConfig{}); }

  /// One cooperative slice of the main loop: drain, a bounded advance
  /// burst, grant/status push, and the exit checks — everything run() does
  /// between two idle waits.  Returns an outcome when the subsystem is
  /// finished, nullopt to keep going; `progressed` reports whether the
  /// slice consumed messages or dispatched events (the caller's idle/stall
  /// signal).  The calling thread holds the scheduler confinement for the
  /// duration of the slice, so a pool may move a subsystem between workers
  /// across slices but never run two slices concurrently.
  std::optional<RunOutcome> run_slice(const RunConfig& config,
                                      bool& progressed);

  /// How long an idle wait after an unproductive slice may sleep before
  /// protocol timers (heartbeats) need service.
  [[nodiscard]] std::chrono::milliseconds idle_wait_hint() const;

  /// The channel table, for callers that wait on several subsystems at
  /// once (dist::NodeExecutor builds one poll set across pool members).
  [[nodiscard]] ChannelSet& channel_set() { return channels_; }

  /// Host tagging (set by PiaNode::add_subsystem): lets ReplicaSet refuse
  /// to co-locate replicas that would die together.  Opaque to Subsystem
  /// itself.
  void set_host_node(const void* node) { host_node_ = node; }
  [[nodiscard]] const void* host_node() const { return host_node_; }

  /// Marks this subsystem as a member of a ReplicaSet.  Replica members
  /// never ORIGINATE termination probes — a probe floods away from its
  /// arrival channel, so one originated by a replica could confirm
  /// termination without ever consulting the sibling clones.  They still
  /// relay probes and reply.  Nor do they declare a safe-time need: their
  /// group passes the clones' declarations through last-wins.
  void set_replica_member(bool on) {
    replica_member_ = on;
    conservative_.set_replica_member(on);
  }

  /// Retires this subsystem from cluster-wide accounting (GVT minima).  Set
  /// by the replica failover path when this member's link group drops it:
  /// its virtual floor is frozen at the crash point and must not drag GVT.
  /// Atomic because the death is detected on the peer's runner thread.
  void set_retired() { retired_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool retired() const {
    return retired_.load(std::memory_order_relaxed);
  }

  /// Per-subsystem contribution to GVT: min(next event, unacknowledged
  /// optimistic sends).  A global GVT is the min over all subsystems, taken
  /// when no messages are in flight (see NodeCluster::compute_gvt).
  [[nodiscard]] VirtualTime local_virtual_floor() const;

  /// Discards checkpoints and log prefixes older than `gvt`.
  void fossil_collect(VirtualTime gvt) { optimistic_.fossil_collect(gvt); }

 private:
  // --- facade-owned message paths ------------------------------------------
  void handle_message(ChannelId channel_id, ChannelMessage message);
  void handle_event(ChannelId channel_id, EventMsg event);
  /// Outbound path: runs the optimistic lazy-cancellation filter, then
  /// transmits and logs the send.
  void send_or_suppress(ChannelEndpoint& endpoint, std::uint32_t net_index,
                        const Value& value, VirtualTime time);

  // --- the advance burst ----------------------------------------------------
  //
  // Inside a burst nothing is received: grants, modes and unconfirmed
  // output tails change only in the drain, rollbacks and restores, all
  // outside it.  The one change a burst makes itself is a local send,
  // which can only lower that channel's effective grant.  So the burst's
  // safe-time state is computed once, at its first dispatch check, and a
  // conservative send folds its channel's new grant in: every dispatch costs
  // O(1) in the channel count, and the cache stays exact (DESIGN.md, "the
  // burst invariant"; builds without NDEBUG re-check it on every dispatch).
  struct Burst {
    bool open = false;
    VirtualTime barrier;       // conservative_.barrier()
    bool optimistic = false;   // optimistic_.has_optimistic_channel()
    // Channels with an unconfirmed tail (replay_cursor < output_log.size()).
    std::vector<ChannelEndpoint*> tails;
  };
  /// Closes the burst on scope exit, exceptions included.
  class BurstScope {
   public:
    explicit BurstScope(Burst& burst) : burst_(burst) {}
    ~BurstScope() {
      burst_.open = false;
      burst_.tails.clear();
    }
    BurstScope(const BurstScope&) = delete;
    BurstScope& operator=(const BurstScope&) = delete;

   private:
    Burst& burst_;
  };
  /// One dispatch of the burst in progress, if the grants allow it.
  StepResult advance_in_burst(VirtualTime horizon);
  /// Throws kConsistency when the burst's cache differs from a full
  /// recomputation.
  void verify_burst() const;

  // --- sync::EngineContext (cross-engine service forwarding) ---------------
  [[nodiscard]] ChannelSet& channels() override { return channels_; }
  [[nodiscard]] const ChannelSet& channels() const override {
    return channels_;
  }
  [[nodiscard]] const std::string& subsystem_name() const override {
    return name_;
  }
  [[nodiscard]] std::uint32_t subsystem_id() const override { return id_; }
  void note_activity() override { conservative_.note_activity(); }
  void reset_termination() override { conservative_.reset_termination(); }
  // Termination accounting sums the per-channel counters, NOT the run-loop
  // stats: channel counters are re-based at every snapshot restore, so the
  // probe's global balance closes again after a recovery (a restarted
  // process has no stats history, and a survivor's stats keep pre-crash
  // traffic the replacement never received).
  [[nodiscard]] std::uint64_t messages_sent_total() const override {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < channels_.size(); ++i)
      total += channels_[i].event_msgs_sent + channels_[i].retract_msgs_sent;
    return total;
  }
  [[nodiscard]] std::uint64_t messages_received_total() const override {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < channels_.size(); ++i)
      total += channels_[i].event_msgs_received +
               channels_[i].retract_msgs_received;
    return total;
  }
  void flush_unregenerated(VirtualTime upto) override {
    optimistic_.flush_unregenerated(upto);
  }
  SnapshotId take_checkpoint() override {
    return optimistic_.take_checkpoint();
  }
  void reset_checkpoint_cadence() override { optimistic_.reset_cadence(); }
  [[nodiscard]] sync::SnapshotPositions positions_of(
      SnapshotId snap) const override {
    return optimistic_.positions_of(snap);
  }
  void drop_positions_after(SnapshotId snap) override {
    optimistic_.drop_positions_after(snap);
  }
  void clear_positions() override { optimistic_.clear_positions(); }
  void scrub_retracted(const sync::SnapshotPositions& positions) override {
    optimistic_.scrub_retracted(positions);
  }
  void inject_input(ChannelEndpoint& endpoint,
                    ChannelEndpoint::InputRecord& record) override {
    optimistic_.inject_input(endpoint, record);
  }
  void invalidate_snapshots_after(SnapshotId kept) override {
    snapshot_.invalidate_after(kept);
  }
  [[nodiscard]] const sync::PendingSnapshot* find_snapshot(
      std::uint64_t token) const override {
    return snapshot_.find(token);
  }
  [[nodiscard]] bool mode_negotiation_hold() const override {
    return adaptive_.hold();
  }
  [[nodiscard]] bool mode_change_allowed() const override;

  std::string name_;
  std::uint32_t id_;
  Scheduler scheduler_;
  CheckpointManager checkpoints_;
  ChannelSet channels_;
  const void* host_node_ = nullptr;
  std::atomic<bool> retired_{false};
  bool started_ = false;
  std::uint32_t channel_batch_limit_ = 64;
  Burst burst_;

  // Engines are constructed against *this as their EngineContext; they only
  // store the reference, so ordering after channels_ is safe.
  sync::ConservativeEngine conservative_{*this};
  sync::OptimisticEngine optimistic_{*this};
  sync::SnapshotCoordinator snapshot_{*this};
  sync::RecoveryCoordinator recovery_{*this};
  sync::AdaptiveController adaptive_{*this};
  bool replica_member_ = false;
};

}  // namespace pia::dist
