// SnapshotCoordinator: Chandy–Lamport distributed snapshots (paper §2.2.5)
// plus their durable persistence.
//
// Owns the cuts: the per-token mark bookkeeping and recorded channel state,
// the dispatch-count auto-snapshot cadence, the one restore of a completed
// cut, and the durable side — the image format ("pia.dist.recovery"), which
// is the serialized cut, committing completed cuts to the attached
// SnapshotStore, and revoking cuts a rollback has unwound.  A fresh process
// restores an image by decoding it into a registered cut and restoring that
// through the same restore(token) a survivor uses in memory.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "dist/snapshot_store.hpp"
#include "dist/sync/engine_context.hpp"

namespace pia::dist::sync {

class SnapshotCoordinator {
 public:
  explicit SnapshotCoordinator(EngineContext& ctx) : ctx_(ctx) {}

  void set_store(std::shared_ptr<SnapshotStore> store) {
    store_ = std::move(store);
  }
  [[nodiscard]] SnapshotStore* store() { return store_.get(); }
  [[nodiscard]] const SnapshotStore* store() const { return store_.get(); }

  void set_auto_interval(std::uint64_t dispatches) {
    auto_snapshot_interval_ = dispatches;
  }
  /// Dispatch cadence: initiates a snapshot every N local dispatches.
  /// Dispatch-count cadence keeps the cut points deterministic per run,
  /// unlike wall-clock timers.
  void on_dispatch();

  /// Starts a Chandy–Lamport snapshot; returns its cluster-wide token.
  std::uint64_t initiate();
  void on_mark(ChannelId channel_id, const MarkMsg& mark);
  /// Channel-state recording: every event arriving between the local
  /// checkpoint of a token and that channel's mark belongs to the cut.
  void on_event_received(ChannelId channel_id, const EventMsg& event);
  [[nodiscard]] bool complete(std::uint64_t token) const;

  /// Restores the local checkpoint of `token` plus its recorded channel
  /// state (coordinated restore; all subsystems restore the same token).
  void restore(std::uint64_t token);

  // --- durable image -------------------------------------------------------
  /// Serializes the completed snapshot `token` into a self-contained
  /// durable image (the SnapshotStore payload).
  [[nodiscard]] Bytes export_image(std::uint64_t token) const;
  /// Fresh-process restore from an image produced by export_image on an
  /// identically wired subsystem: registers the image's cut under its token
  /// (complete and persisted) and restores it with restore(token).  Raises
  /// Error{kSerialization} for an image of another format version.
  void restore_image(BytesView image);

  // --- services reached via EngineContext ----------------------------------
  void invalidate_after(SnapshotId kept);
  [[nodiscard]] const PendingSnapshot* find(std::uint64_t token) const;

 private:
  /// Commits `token` to the attached store if the snapshot just completed.
  void maybe_persist(std::uint64_t token);
  /// A new cut at this instant: a checkpoint, its log positions, every
  /// channel still recording, and the per-channel (mode, epoch) pairs live
  /// now — the cut doubles as the mode-flip barrier, so a restore must put
  /// the modes of the cut back too.
  PendingSnapshot checkpoint_cut();

  EngineContext& ctx_;
  std::map<std::uint64_t, PendingSnapshot> cl_snapshots_;
  std::uint64_t next_cl_token_ = 1;
  std::shared_ptr<SnapshotStore> store_;
  std::uint64_t auto_snapshot_interval_ = 0;
  std::uint64_t dispatches_since_auto_snapshot_ = 0;
};

}  // namespace pia::dist::sync
