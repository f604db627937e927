// Worker-pool scaling: subsystems × worker threads (PiaNode::
// set_worker_threads / NodeExecutor).
//
// The paper's setting is hardware-in-the-loop: a subsystem fronting a real
// device (or a vendor tool) spends most of its wall-clock time *waiting* on
// I/O, not computing.  IoRelay models that with a real sleep per event, so
// the win from pooled execution is overlap — while one subsystem's device
// round-trip is in flight, the pool runs (or sleeps on) the others.  That
// also makes the bench meaningful on a single-core runner: the speedup
// measured here comes from overlapping waits, which needs OS threads, not
// cores.
//
// Two topologies, both all-subsystems-on-one-node (every channel is an
// in-process loopback queue):
//   * pipeline: producer -> N-1 sleeping relays -> sink, one stage per
//     subsystem.  Overlap is pipelining: stage g works item k while stage
//     g+1 works item k-1 (at the granularity of the slice burst / grant
//     push, ~256 events).
//   * star: a hub hosting one producer+sink pair per leaf, each leaf a
//     sleeping relay.  Leaves are independent, so overlap is total.
//
// Emits BENCH_threads.json.  The tentpole acceptance number is
// pipeline_s8_speedup_w8_over_w1 (required >= 4 on a quiet machine).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "dist/node.hpp"
#include "transport/ready.hpp"
#include "../tests/helpers.hpp"

using namespace pia;
using namespace pia::bench;
using namespace pia::dist;
using namespace std::chrono_literals;

namespace {

constexpr auto kIoTime = std::chrono::microseconds(150);
constexpr std::uint64_t kPipelineItems = 4000;
constexpr std::uint64_t kStarItemsPerLeaf = 400;

/// Relay whose per-event cost is a real device round-trip: sleep, then
/// forward.  Virtual think time stays tiny so the synchronization protocol
/// is exercised at word granularity.
class IoRelay : public Component {
 public:
  IoRelay(std::string name, std::chrono::microseconds io)
      : Component(std::move(name)), io_(io) {
    in_ = add_input("in");
    out_ = add_output("out");
  }

  void on_receive(PortIndex, const Value& value) override {
    // The hardware round-trip, through the library's one sleep: every
    // layout (w1, pooled, legacy) then waits with the same 1 ns timer slack,
    // and the worker-count comparison measures overlap alone.
    transport::poll_until({}, std::chrono::steady_clock::now() + io_);
    advance(ticks(1));
    send(out_, Value{value.as_word() + 1});
  }

  void save_state(serial::OutArchive&) const override {}
  void restore_state(serial::InArchive&) override {}

 private:
  std::chrono::microseconds io_;
  PortIndex in_;
  PortIndex out_;
};

struct RunResult {
  double ms = 0;
  bool complete = false;
};

/// `subsystems` stages on one pooled node: ss0 hosts the producer, every
/// later subsystem one IoRelay, the sink rides with the last relay.
/// workers == 0 runs the legacy thread-per-subsystem layout for reference.
RunResult run_pipeline(std::size_t subsystems, std::size_t workers) {
  NodeCluster cluster;
  PiaNode& node = cluster.add_node("pool");
  node.set_worker_threads(workers);

  std::vector<Subsystem*> ss;
  for (std::size_t g = 0; g < subsystems; ++g) {
    ss.push_back(&node.add_subsystem("ss" + std::to_string(g)));
    // Flush every message immediately: pipelining wants the finest-grained
    // traffic, the exact opposite of the batching bench.
    ss.back()->set_channel_batch_limit(1);
  }

  auto& producer = ss[0]->scheduler().emplace<pia::testing::Producer>(
      "p", kPipelineItems, ticks(10));
  std::vector<ComponentId> stage{producer.id()};
  for (std::size_t g = 1; g < subsystems; ++g)
    stage.push_back(ss[g]->scheduler()
                        .emplace<IoRelay>("r" + std::to_string(g), kIoTime)
                        .id());
  auto& sink = ss.back()->scheduler().emplace<pia::testing::Sink>("s");

  std::vector<ChannelPair> chans;
  for (std::size_t g = 0; g + 1 < subsystems; ++g)
    chans.push_back(cluster.connect_checked(*ss[g], *ss[g + 1],
                                            ChannelMode::kConservative));
  for (std::size_t g = 0; g + 1 < subsystems; ++g) {
    Scheduler& up = ss[g]->scheduler();
    const NetId net_up = up.make_net("fwd" + std::to_string(g));
    up.attach(net_up, stage[g], "out");
    Scheduler& down = ss[g + 1]->scheduler();
    const NetId net_down = down.make_net("fwd" + std::to_string(g));
    down.attach(net_down, stage[g + 1], "in");
    split_net(*ss[g], chans[g].a, net_up, *ss[g + 1], chans[g].b, net_down);
  }
  Scheduler& tail = ss.back()->scheduler();
  const NetId result = tail.make_net("result");
  tail.attach(result, stage.back(), "out");
  tail.attach(result, sink.id(), "in");

  cluster.start_all();
  const WallTimer timer;
  const auto outcomes =
      cluster.run_all(Subsystem::RunConfig{.stall_timeout = 30'000ms});
  RunResult r{.ms = timer.millis(), .complete = true};
  for (const auto& [name, outcome] : outcomes)
    r.complete &= outcome == Subsystem::RunOutcome::kQuiescent;
  r.complete &= sink.received.size() == kPipelineItems;
  return r;
}

/// A hub subsystem with one producer+sink pair per leaf; each leaf is one
/// sleeping relay.  Leaves have no mutual dependencies, so an n-worker pool
/// should overlap their device waits almost perfectly.
RunResult run_star(std::size_t leaves, std::size_t workers) {
  NodeCluster cluster;
  PiaNode& node = cluster.add_node("pool");
  node.set_worker_threads(workers);

  Subsystem& hub = node.add_subsystem("hub");
  hub.set_channel_batch_limit(1);
  std::vector<pia::testing::Sink*> sinks;
  for (std::size_t i = 0; i < leaves; ++i) {
    Subsystem& leaf = node.add_subsystem("leaf" + std::to_string(i));
    leaf.set_channel_batch_limit(1);
    auto& producer = hub.scheduler().emplace<pia::testing::Producer>(
        "p" + std::to_string(i), kStarItemsPerLeaf, ticks(10));
    sinks.push_back(
        &hub.scheduler().emplace<pia::testing::Sink>("s" + std::to_string(i)));
    auto& relay = leaf.scheduler().emplace<IoRelay>("r", kIoTime);

    const ChannelPair chan =
        cluster.connect_checked(hub, leaf, ChannelMode::kConservative);
    const NetId fwd_hub = hub.scheduler().make_net("fwd" + std::to_string(i));
    hub.scheduler().attach(fwd_hub, producer.id(), "out");
    const NetId fwd_leaf = leaf.scheduler().make_net("fwd");
    leaf.scheduler().attach(fwd_leaf, relay.id(), "in");
    split_net(hub, chan.a, fwd_hub, leaf, chan.b, fwd_leaf);

    const NetId back_leaf = leaf.scheduler().make_net("back");
    leaf.scheduler().attach(back_leaf, relay.id(), "out");
    const NetId back_hub = hub.scheduler().make_net("back" + std::to_string(i));
    hub.scheduler().attach(back_hub, sinks.back()->id(), "in");
    split_net(leaf, chan.b, back_leaf, hub, chan.a, back_hub);
  }

  cluster.start_all();
  const WallTimer timer;
  const auto outcomes =
      cluster.run_all(Subsystem::RunConfig{.stall_timeout = 30'000ms});
  RunResult r{.ms = timer.millis(), .complete = true};
  for (const auto& [name, outcome] : outcomes)
    r.complete &= outcome == Subsystem::RunOutcome::kQuiescent;
  for (const auto* sink : sinks)
    r.complete &= sink->received.size() == kStarItemsPerLeaf;
  return r;
}

}  // namespace

int main() {
  JsonReport report("threads");
  report.metric("io_us",
                static_cast<std::uint64_t>(kIoTime.count()));
  report.metric("pipeline_items", kPipelineItems);
  report.metric("star_items_per_leaf", kStarItemsPerLeaf);
  bool all_complete = true;

  header("pipeline: subsystems x worker threads (ms)");
  note("stage = one subsystem; every event costs one 150us device wait");
  double s8_w1 = 0, s8_w8 = 0;
  for (const std::size_t subsystems : {2u, 4u, 8u}) {
    std::printf("  %zu subsystems:", subsystems);
    for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
      const RunResult r = run_pipeline(subsystems, workers);
      all_complete &= r.complete;
      std::printf("  w%zu %8.1f", workers, r.ms);
      report.metric("pipeline_s" + std::to_string(subsystems) + "_w" +
                        std::to_string(workers) + "_ms",
                    r.ms);
      if (subsystems == 8 && workers == 1) s8_w1 = r.ms;
      if (subsystems == 8 && workers == 8) s8_w8 = r.ms;
    }
    std::printf("\n");
  }
  {
    // Reference: the legacy thread-per-subsystem layout (workers = 0).
    const RunResult legacy = run_pipeline(8, 0);
    all_complete &= legacy.complete;
    note("  8 subsystems, legacy thread-per-subsystem: " +
         std::to_string(legacy.ms) + " ms");
    report.metric("pipeline_s8_legacy_ms", legacy.ms);
  }
  const double speedup = s8_w8 > 0 ? s8_w1 / s8_w8 : 0;
  note("  8-subsystem pipeline speedup, 8 workers vs 1: " +
       std::to_string(speedup) + "x");
  report.metric("pipeline_s8_speedup_w8_over_w1", speedup);

  header("star: leaves x worker threads (ms)");
  note("independent leaves; waits overlap fully given enough workers");
  for (const std::size_t leaves : {4u, 8u}) {
    std::printf("  %zu leaves:", leaves);
    for (const std::size_t workers : {1u, 2u, 8u}) {
      const RunResult r = run_star(leaves, workers);
      all_complete &= r.complete;
      std::printf("  w%zu %8.1f", workers, r.ms);
      report.metric("star_l" + std::to_string(leaves) + "_w" +
                        std::to_string(workers) + "_ms",
                    r.ms);
    }
    std::printf("\n");
  }

  report.metric("complete", static_cast<std::uint64_t>(all_complete));
  report.write();
  if (!all_complete) {
    std::fprintf(stderr, "!! at least one configuration did not quiesce\n");
    return 1;
  }
  return 0;
}
