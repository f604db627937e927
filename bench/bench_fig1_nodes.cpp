// Fig. 1 reproduction: "Several Pia nodes connected through the Internet".
//
// The figure shows the framework's claim to fame: a set of nodes, each
// hosting subsystems, joined by sockets.  This bench builds star topologies
// of increasing size — one hub subsystem taking the traffic of N leaf
// subsystems, each on its own Pia node — and measures end-to-end delivery
// and throughput, over in-process pipes and over real TCP sockets.
#include <chrono>

#include "bench_util.hpp"
#include "dist/node.hpp"
#include "../tests/helpers.hpp"

using namespace pia;
using namespace pia::bench;
using namespace pia::dist;
using namespace std::chrono_literals;

namespace {

struct StarResult {
  std::size_t leaves;
  std::uint64_t delivered;
  std::uint64_t grants;
  double seconds;
};

/// Each leaf produces `count` events into the hub, where every leaf's
/// channel proxy drives the one `fanin` net into a local sink
/// (cross-subsystem fan-in over N channels).
StarResult run_star(std::size_t leaves, std::uint64_t count, Wire wire) {
  NodeCluster cluster;
  PiaNode& hub_node = cluster.add_node("hub-node");
  Subsystem& hub = hub_node.add_subsystem("hub");
  auto& sink = hub.scheduler().emplace<pia::testing::Sink>("sink");
  const NetId fan_in = hub.scheduler().make_net("fanin");
  hub.scheduler().attach(fan_in, sink.id(), "in");

  std::vector<Subsystem*> leaf_subsystems;
  for (std::size_t i = 0; i < leaves; ++i) {
    PiaNode& node = cluster.add_node("leaf-node-" + std::to_string(i));
    Subsystem& leaf = node.add_subsystem("leaf" + std::to_string(i));
    auto& producer = leaf.scheduler().emplace<pia::testing::Producer>(
        "p", count, ticks(10 + i));
    const NetId out = leaf.scheduler().make_net("out");
    leaf.scheduler().attach(out, producer.id(), "out");

    const ChannelPair channels =
        cluster.connect_checked(hub, leaf, ChannelMode::kConservative, wire);
    // Leaves produce autonomously and never react to bus traffic: declare
    // infinite reaction slack so the hub isn't grant-limited.
    leaf.set_reaction_lookahead(channels.b, VirtualTime::infinity());
    // The hub's piece of every leaf's split net is the shared `fanin` net:
    // each channel proxy drives it directly, so one sink port takes all N.
    split_net(hub, channels.a, fan_in, leaf, channels.b, out);
    leaf_subsystems.push_back(&leaf);
  }

  cluster.start_all();
  StarResult result{.leaves = leaves, .delivered = 0, .grants = 0,
                    .seconds = 0};
  result.seconds = timed([&] {
    cluster.run_all(Subsystem::RunConfig{.stall_timeout = 30'000ms});
  });
  result.delivered = sink.received.size();
  result.grants = hub.stats().grants_sent + hub.stats().grants_received;
  return result;
}

}  // namespace

int main() {
  header("Fig. 1: Pia nodes interconnected through a network (star of N)");
  constexpr std::uint64_t kEventsPerLeaf = 500;
  JsonReport report("fig1_nodes");

  for (const auto [wire, wire_name] :
       {std::pair{Wire::kLoopback, "loopback"}, std::pair{Wire::kTcp, "tcp"}}) {
    std::printf("\ntransport: %s\n", wire_name);
    std::printf("%8s %12s %12s %12s %14s\n", "leaves", "delivered",
                "grants", "wall [ms]", "events/s");
    for (const std::size_t leaves : {1u, 2u, 4u, 6u}) {
      const StarResult r = run_star(leaves, kEventsPerLeaf, wire);
      const bool complete = r.delivered == leaves * kEventsPerLeaf;
      std::printf("%8zu %12llu %12llu %12.2f %14.0f %s\n", r.leaves,
                  static_cast<unsigned long long>(r.delivered),
                  static_cast<unsigned long long>(r.grants),
                  r.seconds * 1e3,
                  static_cast<double>(r.delivered) / r.seconds,
                  complete ? "" : "!! INCOMPLETE");
      const std::string prefix =
          std::string(wire_name) + "_leaves" + std::to_string(leaves) + "_";
      report.metric(prefix + "seconds", r.seconds);
      report.metric(prefix + "delivered", r.delivered);
      report.metric(prefix + "grants", r.grants);
    }
  }
  note("\nevery event crosses one socket; virtual time stays consistent "
       "across all nodes (deliveries complete exactly).");
  return 0;
}
