// RecoveryCoordinator: the crash-recovery layer.
//
// Owns failure detection (heartbeat beacons + liveness timeouts) and the
// post-recovery rejoin handshake that cross-checks both sides restored the
// same cut.  The durable image and its restore belong to the
// SnapshotCoordinator, which owns the cuts they serialize.
#pragma once

#include <chrono>
#include <cstdint>

#include "dist/sync/engine_context.hpp"

namespace pia::dist::sync {

class RecoveryCoordinator {
 public:
  explicit RecoveryCoordinator(EngineContext& ctx) : ctx_(ctx) {}

  // --- failure detection ---------------------------------------------------
  void set_heartbeat(std::chrono::milliseconds interval,
                     std::chrono::milliseconds timeout) {
    heartbeat_interval_ = interval;
    heartbeat_timeout_ = timeout;
  }
  [[nodiscard]] std::chrono::milliseconds heartbeat_interval() const {
    return heartbeat_interval_;
  }
  /// Sends due liveness beacons on every channel and pushes them onto the
  /// wire immediately (past any batch FlushHold).  Cheap when nothing is
  /// due; called at the top of every slice AND periodically from inside
  /// long advance bursts so a heavily loaded worker never starves its own
  /// beacons past a peer's timeout.
  void service_beacons();
  /// Judges peer liveness; true when some peer stands declared down.  A
  /// channel silent for the timeout is dead: with beacons serviced from
  /// inside the advance burst (see service_beacons), a live peer keeps
  /// arriving no matter how loaded it is, so silence is no longer the
  /// false positive it was when beacons waited for slice boundaries.
  bool judge_liveness();
  void on_heartbeat(ChannelId channel_id, const HeartbeatMsg& heartbeat);

  // --- rejoin ---------------------------------------------------------------
  void begin_rejoin(std::uint64_t token);
  void on_rejoin(ChannelId channel_id, const RejoinMsg& rejoin);

 private:
  EngineContext& ctx_;
  std::chrono::milliseconds heartbeat_interval_{0};  // 0 = disabled
  std::chrono::milliseconds heartbeat_timeout_{0};
};

}  // namespace pia::dist::sync
