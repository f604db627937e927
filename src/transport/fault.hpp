// Deterministic fault injection for Links.
//
// Every transport test in the seed ran over perfect pipes, so the rollback,
// safe-time and snapshot machinery was never exercised under the network
// conditions the paper's geographic distribution implies.  A FaultLink
// decorates any Link with seed-driven wire faults while PRESERVING the Link
// contract the distributed protocols depend on (FIFO, exactly-once): it
// models a reliability layer riding an unreliable wire, the way TCP rides
// IP.  It is also the one release-delay decorator: the wide-area
// LatencyModel (transport/latency.hpp) rides in FaultPlan::latency, and its
// delay joins the fault delays below in a single per-frame release
// deadline.  Concretely:
//
//   * latency           — base + per-byte + jitter delay per frame,
//   * delay jitter      — each frame's release is pushed by a random extra
//                         wall-clock delay; a monotone release floor keeps
//                         FIFO order (Chandy–Lamport needs FIFO channels),
//   * duplication       — a frame is transmitted twice; the receiving side
//                         discards the copy by sequence number,
//   * drop-with-retry   — the first transmission is "lost" and the frame is
//                         retransmitted after a retry timeout (observable as
//                         extra latency, never as loss),
//   * partition/heal    — scheduled wall-clock windows during which traffic
//                         is held, then released in order at heal time,
//   * abrupt close      — after N sends the link slams shut like a crashed
//                         peer: send() throws Error{kTransport} and the peer
//                         drains then observes closed(),
//   * crash at frame    — like abrupt close, but the trigger counts frames
//                         in BOTH directions and can be pinned to one
//                         endpoint of a pair: the kill switch the crash
//                         recovery tests use to fell a chosen node mid-run.
//
// All decisions derive from FaultPlan::seed through pia::Rng, so any failure
// a fuzzer finds is reproducible from its seed alone.  Faults other than
// abrupt close affect only *wall-clock* timing, never simulated behaviour —
// which is exactly the property the cluster fuzzer checks.
#pragma once

#include <chrono>
#include <vector>

#include "transport/latency.hpp"
#include "transport/link.hpp"

namespace pia::transport {

struct FaultPlan {
  std::uint64_t seed = 1;

  /// Wide-area delay applied to every frame (its jitter draws from `seed`).
  LatencyModel latency;

  /// Per-frame extra delay, uniform in [0, delay_jitter_max].
  std::chrono::microseconds delay_jitter_max{0};

  /// Probability a frame is transmitted twice (receiver-side dedup).
  double dup_probability = 0.0;

  /// Probability the first transmission is lost; the frame is retransmitted
  /// `retry_delay` later (a reliability layer's retransmission timeout).
  double drop_probability = 0.0;
  std::chrono::microseconds retry_delay{2000};

  /// Partition windows, relative to link creation: frames whose release
  /// falls inside [start, start+duration) are held until the window heals.
  struct Partition {
    std::chrono::milliseconds start{0};
    std::chrono::milliseconds duration{0};
  };
  std::vector<Partition> partitions;

  /// After this many send() calls the link closes abruptly (peer crash).
  /// 0 means never.
  std::uint64_t close_after_sends = 0;

  /// Crash fault for the recovery tests: after this endpoint has observed
  /// `crash_at_frames` frames IN EITHER DIRECTION (sends plus accepted
  /// receives) it slams shut like close_after_sends — except the trigger
  /// counts both ways, so a pure sink can still be killed at a chosen
  /// point.  0 means never.
  std::uint64_t crash_at_frames = 0;
  /// Which endpoint of a pair the crash applies to: 0 = both trip on their
  /// own counters, 1 / 2 = only the endpoint for_endpoint() derives with
  /// that salt (the other side's crash_at_frames is cleared).
  std::uint64_t crash_endpoint = 0;

  [[nodiscard]] bool enabled() const {
    return latency.enabled() || delay_jitter_max.count() > 0 ||
           dup_probability > 0.0 || drop_probability > 0.0 ||
           !partitions.empty() || close_after_sends > 0 ||
           crash_at_frames > 0;
  }

  [[nodiscard]] static FaultPlan none() { return {}; }

  [[nodiscard]] static FaultPlan jitter(
      std::uint64_t seed,
      std::chrono::microseconds max = std::chrono::microseconds(500)) {
    FaultPlan plan;
    plan.seed = seed;
    plan.delay_jitter_max = max;
    return plan;
  }

  [[nodiscard]] static FaultPlan duplication(std::uint64_t seed,
                                             double probability = 0.25) {
    FaultPlan plan;
    plan.seed = seed;
    plan.dup_probability = probability;
    return plan;
  }

  [[nodiscard]] static FaultPlan drops(
      std::uint64_t seed, double probability = 0.2,
      std::chrono::microseconds retry = std::chrono::microseconds(2000)) {
    FaultPlan plan;
    plan.seed = seed;
    plan.drop_probability = probability;
    plan.retry_delay = retry;
    return plan;
  }

  [[nodiscard]] static FaultPlan partition(
      std::uint64_t seed, std::chrono::milliseconds start,
      std::chrono::milliseconds duration) {
    FaultPlan plan;
    plan.seed = seed;
    plan.partitions.push_back({start, duration});
    return plan;
  }

  /// Kills one endpoint of the channel once it has seen `frames` frames in
  /// both directions combined (the kill-and-recover driver's trigger).
  [[nodiscard]] static FaultPlan crash_at(std::uint64_t seed,
                                          std::uint64_t frames,
                                          std::uint64_t endpoint = 1) {
    FaultPlan plan;
    plan.seed = seed;
    plan.crash_at_frames = frames;
    plan.crash_endpoint = endpoint;
    return plan;
  }

  /// Everything at once (except abrupt close, which breaks equivalence).
  [[nodiscard]] static FaultPlan chaos(std::uint64_t seed) {
    FaultPlan plan;
    plan.seed = seed;
    plan.delay_jitter_max = std::chrono::microseconds(400);
    plan.dup_probability = 0.3;
    plan.drop_probability = 0.15;
    plan.retry_delay = std::chrono::microseconds(1500);
    plan.partitions.push_back(
        {std::chrono::milliseconds(20), std::chrono::milliseconds(40)});
    return plan;
  }

  /// Derives an endpoint-specific plan so the two directions of a channel
  /// do not mirror each other's fault decisions.
  [[nodiscard]] FaultPlan for_endpoint(std::uint64_t salt) const {
    FaultPlan plan = *this;
    plan.seed = seed * 0x9E3779B97F4A7C15ULL + salt;
    if (crash_endpoint != 0 && salt != crash_endpoint)
      plan.crash_at_frames = 0;  // the crash belongs to the other side
    return plan;
  }
};

/// Wraps `inner` with the plan's latency and faults.  Both endpoints of a channel must
/// be wrapped (each handles its own outgoing faults and deduplicates its
/// incoming frames); use for_endpoint() to de-correlate their seeds.
LinkPtr make_fault_link(LinkPtr inner, FaultPlan plan);

/// A loopback pipe with the endpoint-salted plan applied in both directions.
LinkPair make_fault_pair(FaultPlan plan);

}  // namespace pia::transport
