// EngineContext: the narrow seam between the Subsystem facade and the five
// sync engines (conservative, optimistic, snapshot, recovery, adaptive).
//
// Each engine owns one protocol's state and sees the rest of the subsystem
// only through this interface: the shared infrastructure (scheduler,
// checkpoint manager, channel set), the subsystem's one counter block
// (SubsystemStats), and a handful of cross-engine services.  Every service
// is implemented by exactly one engine and forwarded by the facade, so
// engines never include — or even name — each other; the layering lint
// (tools/lint_layers.py) enforces that structurally.  The cuts, durable
// images included, stay inside the SnapshotCoordinator: other engines reach
// a cut only read-only (find_snapshot), and the RecoveryCoordinator offers
// no service at all.  A test can implement
// EngineContext with a stub and drive an engine without sockets, threads,
// or the other protocols.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/scheduler.hpp"
#include "dist/channel_set.hpp"
#include "dist/protocol.hpp"

namespace pia::dist {

/// A subsystem's protocol counters: the one block the facade and every
/// sync engine count into, each field incremented in place by the layer
/// that owns it.  Every consumer (metrics export, the AdaptiveController,
/// scale-out totals, tests, benches) reads this block, so the number a
/// decision acted on is the number the operator sees.
struct SubsystemStats {
  // Facade: raw event traffic on the send/receive paths.
  std::uint64_t events_sent = 0;      // EventMsgs to peers
  std::uint64_t events_received = 0;  // EventMsgs from peers
  // ConservativeEngine.
  std::uint64_t grants_sent = 0;
  std::uint64_t grants_received = 0;
  std::uint64_t requests_sent = 0;
  std::uint64_t stalls = 0;  // loop iterations blocked on a grant
  // OptimisticEngine.
  std::uint64_t rollbacks = 0;
  std::uint64_t retracts_sent = 0;
  std::uint64_t retracts_received = 0;
  std::uint64_t checkpoints = 0;
  // SnapshotCoordinator.
  std::uint64_t marks_received = 0;
  std::uint64_t snapshots_persisted = 0;  // completed CL cuts written out
  std::uint64_t snapshot_persist_bytes = 0;
  std::uint64_t snapshots_invalidated = 0;  // durable cuts revoked by rollback
  // RecoveryCoordinator.
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t heartbeats_received = 0;
  std::uint64_t peer_down_events = 0;  // channels declared dead
  // Restores from a durable image: counted by the SnapshotCoordinator,
  // which owns the image, under the "recovery" metrics scope it has always
  // been exported in.
  std::uint64_t recoveries = 0;
  std::uint64_t rejoins_verified = 0;  // rejoin handshakes cross-checked
  // AdaptiveController.
  std::uint64_t proposals_sent = 0;
  std::uint64_t proposals_received = 0;
  std::uint64_t proposals_accepted = 0;  // local accept decisions
  std::uint64_t proposals_rejected = 0;  // local reject decisions
  std::uint64_t mode_changes = 0;        // flips applied to a local endpoint
  std::uint64_t to_optimistic = 0;
  std::uint64_t to_conservative = 0;
  std::uint64_t hold_slices = 0;  // run-loop slices spent under negotiation
};

/// One row per SubsystemStats field: the layer that counts it (the
/// "engine/<name>/<group>" metrics scope) and its exported name.  Metrics
/// export and every cross-subsystem sum walk this table, so a new field
/// needs one row here and nothing else.
struct SubsystemCounter {
  const char* group;
  const char* name;
  std::uint64_t SubsystemStats::*field;
};

inline constexpr std::array<SubsystemCounter, 27> kSubsystemCounters{{
    {"traffic", "events_sent", &SubsystemStats::events_sent},
    {"traffic", "events_received", &SubsystemStats::events_received},
    {"conservative", "grants_sent", &SubsystemStats::grants_sent},
    {"conservative", "grants_received", &SubsystemStats::grants_received},
    {"conservative", "requests_sent", &SubsystemStats::requests_sent},
    {"conservative", "stalls", &SubsystemStats::stalls},
    {"optimistic", "rollbacks", &SubsystemStats::rollbacks},
    {"optimistic", "retracts_sent", &SubsystemStats::retracts_sent},
    {"optimistic", "retracts_received", &SubsystemStats::retracts_received},
    {"optimistic", "checkpoints", &SubsystemStats::checkpoints},
    {"snapshot", "marks_received", &SubsystemStats::marks_received},
    {"snapshot", "snapshots_persisted", &SubsystemStats::snapshots_persisted},
    {"snapshot", "snapshot_persist_bytes",
     &SubsystemStats::snapshot_persist_bytes},
    {"snapshot", "snapshots_invalidated",
     &SubsystemStats::snapshots_invalidated},
    {"recovery", "heartbeats_sent", &SubsystemStats::heartbeats_sent},
    {"recovery", "heartbeats_received", &SubsystemStats::heartbeats_received},
    {"recovery", "peer_down_events", &SubsystemStats::peer_down_events},
    {"recovery", "recoveries", &SubsystemStats::recoveries},
    {"recovery", "rejoins_verified", &SubsystemStats::rejoins_verified},
    {"adaptive", "proposals_sent", &SubsystemStats::proposals_sent},
    {"adaptive", "proposals_received", &SubsystemStats::proposals_received},
    {"adaptive", "proposals_accepted", &SubsystemStats::proposals_accepted},
    {"adaptive", "proposals_rejected", &SubsystemStats::proposals_rejected},
    {"adaptive", "mode_changes", &SubsystemStats::mode_changes},
    {"adaptive", "to_optimistic", &SubsystemStats::to_optimistic},
    {"adaptive", "to_conservative", &SubsystemStats::to_conservative},
    {"adaptive", "hold_slices", &SubsystemStats::hold_slices},
}};
// One row per field: as many rows as fields, and no field named twice.
static_assert(sizeof(SubsystemStats) ==
                  kSubsystemCounters.size() * sizeof(std::uint64_t),
              "every SubsystemStats field needs a kSubsystemCounters row");
static_assert(
    [] {
      for (std::size_t i = 0; i < kSubsystemCounters.size(); ++i)
        for (std::size_t j = 0; j < i; ++j)
          if (kSubsystemCounters[i].field == kSubsystemCounters[j].field)
            return false;
      return true;
    }(),
    "a SubsystemStats field has two kSubsystemCounters rows");

}  // namespace pia::dist

namespace pia::dist::sync {

/// Per-channel log positions at a checkpoint: output_log size, input
/// injected count and lazy-replay cursor at request time.  Owned per
/// SnapshotId by the OptimisticEngine; shared here because the
/// SnapshotCoordinator records them in every cut it restores.
struct SnapshotPositions {
  std::vector<std::size_t> out;
  std::vector<std::size_t> in;
  std::vector<std::size_t> cursor;
};

/// Chandy–Lamport bookkeeping per token: one cut, taken live or decoded
/// from a durable image.  Owned by the SnapshotCoordinator; the type is
/// shared so the AdaptiveController can read a cut's recorded modes.
struct PendingSnapshot {
  SnapshotId local;
  std::vector<bool> mark_pending;  // per channel: still recording?
  std::vector<std::vector<EventMsg>> recorded;  // channel state
  SnapshotPositions positions;
  /// Per-channel (ChannelMode, mode epoch) at checkpoint time.  A cut is a
  /// mode barrier: restoring it must also restore the modes that were live
  /// at the cut, or a restore racing a renegotiation would resume with the
  /// two endpoints disagreeing on protocol.  Epochs are restored verbatim
  /// (ChannelEndpoint::restore_mode) so both sides stay in step.
  std::vector<ChannelMode> modes;
  std::vector<std::uint64_t> mode_epochs;
  bool persisted = false;  // committed to the attached SnapshotStore
};

class EngineContext {
 public:
  virtual ~EngineContext() = default;

  /// The subsystem's counter block.  Engines increment its fields in
  /// place; the accessor is not virtual, so counting stays a plain add.
  [[nodiscard]] SubsystemStats& stats() { return stats_; }
  [[nodiscard]] const SubsystemStats& stats() const { return stats_; }

  // --- shared infrastructure ---------------------------------------------
  [[nodiscard]] virtual Scheduler& scheduler() = 0;
  [[nodiscard]] virtual const Scheduler& scheduler() const = 0;
  [[nodiscard]] virtual CheckpointManager& checkpoints() = 0;
  [[nodiscard]] virtual const CheckpointManager& checkpoints() const = 0;
  [[nodiscard]] virtual ChannelSet& channels() = 0;
  [[nodiscard]] virtual const ChannelSet& channels() const = 0;
  [[nodiscard]] virtual const std::string& subsystem_name() const = 0;
  [[nodiscard]] virtual std::uint32_t subsystem_id() const = 0;

  // --- services of the ConservativeEngine --------------------------------
  /// Something state-changing happened (event, retract, runlevel, rejoin);
  /// bumps the activity counter termination probes validate against.
  virtual void note_activity() = 0;
  /// Lifetime totals of simulation messages (events + retractions) this
  /// subsystem sent / received, on all channels.  Termination probes sum
  /// them over the tree: the cluster is only done when the global sums
  /// match — an excess on the sent side is a message still in flight
  /// toward a subsystem that would otherwise already have stopped.
  [[nodiscard]] virtual std::uint64_t messages_sent_total() const = 0;
  [[nodiscard]] virtual std::uint64_t messages_received_total() const = 0;
  /// A restore put the subsystem back on a live timeline: forget any
  /// termination consensus and probe state from the abandoned one.
  virtual void reset_termination() = 0;

  // --- services of the OptimisticEngine -----------------------------------
  virtual void flush_unregenerated(VirtualTime upto) = 0;
  virtual SnapshotId take_checkpoint() = 0;
  /// Restart the periodic-checkpoint countdown without taking one (used by
  /// restores, which put a checkpoint-equivalent state in place).
  virtual void reset_checkpoint_cadence() = 0;
  [[nodiscard]] virtual SnapshotPositions positions_of(SnapshotId snap)
      const = 0;
  /// Forget checkpoint positions describing a discarded future.
  virtual void drop_positions_after(SnapshotId snap) = 0;
  virtual void clear_positions() = 0;
  virtual void scrub_retracted(const SnapshotPositions& positions) = 0;
  virtual void inject_input(ChannelEndpoint& endpoint,
                            ChannelEndpoint::InputRecord& record) = 0;

  // --- services of the SnapshotCoordinator --------------------------------
  /// A rollback discarded the future past `kept`: revoke durable cuts that
  /// captured it.
  virtual void invalidate_snapshots_after(SnapshotId kept) = 0;
  /// The cut registered under `token`, or null (the AdaptiveController
  /// reads the modes its flip barrier recorded).
  [[nodiscard]] virtual const PendingSnapshot* find_snapshot(
      std::uint64_t token) const = 0;

  // --- services of the AdaptiveController ----------------------------------
  /// True while a mode negotiation holds dispatch on this subsystem: the
  /// run loop must not dispatch events, and the conservative engine must
  /// neither originate termination probes nor answer them ok — both paths
  /// flush unregenerated output, which would leak retractions across the
  /// flip barrier.
  [[nodiscard]] virtual bool mode_negotiation_hold() const = 0;
  /// Facade arbitration: false while a flip would race a rejoin, a replica
  /// membership, or retirement; proposals are rejected busy and the
  /// controller retries after its cooldown.
  [[nodiscard]] virtual bool mode_change_allowed() const = 0;
  /// Starts a Chandy–Lamport cut and returns its token (the mode-flip
  /// barrier).  Forwarded to SnapshotCoordinator::initiate().
  virtual std::uint64_t initiate_snapshot() = 0;

 private:
  SubsystemStats stats_;
};

}  // namespace pia::dist::sync
