// Pia nodes and clusters (paper §2, Fig. 1).
//
// "The Pia simulation system is a set of Pia nodes that can be
// interconnected through a network.  Each node contains a number of sockets
// and each socket can facilitate a connection to a design tool ... or a
// device."  A PiaNode hosts one or more subsystems and runs each on its own
// thread (or on a NodeExecutor pool); channels between subsystems ride on
// in-process loopback pipes when both live in the same process — on one node
// or on co-located nodes — and on TCP sockets when they do not.  NodeCluster
// is the in-process harness gluing several nodes together for tests,
// examples and benches — including the coordinated GVT barrier used for
// fossil collection.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dist/subsystem.hpp"
#include "dist/topology.hpp"
#include "obs/metrics.hpp"
#include "transport/fault.hpp"
#include "transport/latency.hpp"
#include "transport/tcp.hpp"

namespace pia::dist {

class PiaNode {
 public:
  explicit PiaNode(std::string name);

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Creates a subsystem hosted on this node.
  Subsystem& add_subsystem(const std::string& subsystem_name);

  [[nodiscard]] std::vector<Subsystem*> subsystems();

  /// start() every subsystem (after wiring and channel setup).
  void start_all();

  /// Worker pool size for NodeCluster::run_all.  0 (the default) keeps the
  /// legacy execution exactly: one dedicated OS thread per subsystem.  Any
  /// n >= 1 runs this node's subsystems on a NodeExecutor pool of n
  /// scheduler threads with work stealing — set it to the core count to
  /// let an N-core host actually run N subsystems at once.
  void set_worker_threads(std::size_t n) { worker_threads_ = n; }
  [[nodiscard]] std::size_t worker_threads() const { return worker_threads_; }

 private:
  friend class NodeCluster;
  std::string name_;
  std::vector<std::unique_ptr<Subsystem>> subsystems_;
  std::size_t worker_threads_ = 0;
  std::uint32_t next_subsystem_id_;
  // Atomic: nodes are legitimately constructed from concurrent test/driver
  // threads, and a torn read-modify-write here would hand two nodes the
  // same subsystem id block.
  static std::atomic<std::uint32_t> next_node_seed_;
};

struct ChannelPair {
  ChannelId a;
  ChannelId b;
};

/// How the two endpoints of a channel are physically connected.
enum class Wire {
  kLoopback,  // in-process pipe (same node, or co-located nodes)
  kTcp,       // real sockets over localhost (the "Internet" of Fig. 1)
};

/// Builds a connected raw link pair for `wire` — no latency or faults
/// applied.  connect() and the replica wiring share this so every transport
/// is constructed one way.
transport::LinkPair make_wire_pair(Wire wire);

/// Applies a channel's wide-area `latency` and wire faults to a raw pair.
/// `latency` replaces `fault.latency`; when the resulting plan is enabled,
/// each endpoint is wrapped exactly once, in a FaultLink whose plan is
/// endpoint-salted so the two directions do not mirror each other.
/// connect() and the replica wiring share this.
transport::LinkPair decorate_pair(transport::LinkPair pair,
                                  const transport::LatencyModel& latency,
                                  transport::FaultPlan fault);

/// Connects two subsystems with a channel.  `latency` models the wide-area
/// path and `fault` injects seed-driven wire faults, both applied in both
/// directions by decorate_pair().  The subsystems may live on the same node
/// or different nodes; the transport is chosen by `wire`.
ChannelPair connect(Subsystem& a, Subsystem& b, ChannelMode mode,
                    Wire wire = Wire::kLoopback,
                    transport::LatencyModel latency = {},
                    const transport::FaultPlan& fault = {});

/// Splits a logical net across a channel: `net_a` is its piece inside `a`,
/// `net_b` inside `b` (Fig. 2).  Call once per shared net, in the same order
/// as any other exports on this channel.
void split_net(Subsystem& a, ChannelId chan_a, NetId net_a, Subsystem& b,
               ChannelId chan_b, NetId net_b);

/// Collects a subsystem's counters into `registry`: SubsystemStats and
/// scheduler totals under "sub/<tag>", SubsystemStats again grouped by
/// counting layer under "engine/<tag>/<group>", per-component dispatch
/// counts under "dispatch/<tag>", and every channel endpoint's protocol +
/// link counters under "chan/<tag>/<index>:<channel>".  `tag` defaults to
/// the subsystem name; pass an explicit tag when several collected
/// subsystems share one (a scenario generator stamping out N
/// identically-named subsystems).
/// Throws Error{kConsistency} if "sub/<tag>" is already populated — silent
/// metric merging across subsystems hides real counters.
void collect_metrics(Subsystem& subsystem, obs::MetricsRegistry& registry,
                     const std::string& tag = "");

class NodeCluster {
 public:
  PiaNode& add_node(const std::string& node_name);
  [[nodiscard]] PiaNode& node(const std::string& node_name);
  [[nodiscard]] std::vector<Subsystem*> all_subsystems();

  /// Records a channel for topology validation; connect() via the cluster
  /// helper does this automatically.
  ChannelPair connect_checked(Subsystem& a, Subsystem& b, ChannelMode mode,
                              Wire wire = Wire::kLoopback,
                              transport::LatencyModel latency = {},
                              const transport::FaultPlan& fault = {});

  /// Adds an edge to the topology forest without wiring a transport —
  /// connect_replicated_checked() registers a replica group as ONE logical
  /// edge (peer <-> set name) this way, since its K member links are not
  /// forest edges of their own.
  void register_logical_channel(const std::string& a, const std::string& b);

  /// Validates topology and starts every subsystem.
  void start_all();

  /// Runs every subsystem on its own thread until each returns; returns the
  /// outcome per subsystem name.
  std::map<std::string, Subsystem::RunOutcome> run_all(
      const Subsystem::RunConfig& config);
  std::map<std::string, Subsystem::RunOutcome> run_all() {
    return run_all(Subsystem::RunConfig{});
  }

  /// Global virtual time at a drained barrier: with no runner active, keeps
  /// draining all subsystems until no channel has pending traffic, then
  /// takes the min local floor.  (A cross-process deployment would use
  /// Mattern's token algorithm instead; in-process the barrier is exact.)
  [[nodiscard]] VirtualTime compute_gvt();

  /// compute_gvt() + fossil_collect(gvt) on every subsystem.
  VirtualTime fossil_collect_all();

  [[nodiscard]] const Topology& topology() const { return topology_; }

  // --- observability ----------------------------------------------------------

  /// One metrics snapshot covering every subsystem and channel endpoint in
  /// the cluster (see collect_metrics).
  [[nodiscard]] obs::MetricsRegistry metrics();

  /// Exports the whole run as Chrome trace-event JSON, one track per
  /// subsystem — viewable in chrome://tracing or Perfetto.  Capture must
  /// have been enabled (PIA_TRACE=1 or obs::set_trace_enabled) for the
  /// tracks to hold records.
  void export_chrome_trace(const std::string& path);

 private:
  std::vector<std::unique_ptr<PiaNode>> nodes_;
  Topology topology_;
};

}  // namespace pia::dist
