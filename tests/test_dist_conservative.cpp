#include <gtest/gtest.h>

#include <functional>

#include "base/error.hpp"
#include "dist_helpers.hpp"

namespace pia::dist {
namespace {

using testing::SplitLoop;
using testing::SplitPipe;
using testing::single_host_loop_reference;

TEST(Topology, ForestsAreValid) {
  Topology t;
  t.add_channel("a", "b");
  t.add_channel("b", "c");
  t.add_channel("b", "d");
  EXPECT_NO_THROW(t.validate());
  EXPECT_TRUE(t.valid());
}

TEST(Topology, TriangleRejected) {
  // Fig. 4's three subsystems: SS1-SS2, SS1-SS3 is fine; adding SS2-SS3
  // would close a cycle of length 3.
  Topology t;
  t.add_channel("ss1", "ss2");
  t.add_channel("ss1", "ss3");
  EXPECT_TRUE(t.valid());
  t.add_channel("ss2", "ss3");
  EXPECT_THROW(t.validate(), Error);
}

TEST(Topology, SelfChannelRejected) {
  Topology t;
  t.add_channel("a", "a");
  EXPECT_THROW(t.validate(), Error);
}

TEST(Topology, ParallelChannelsRejected) {
  Topology t;
  t.add_channel("a", "b");
  t.add_channel("b", "a");
  EXPECT_THROW(t.validate(), Error);
}

// A second channel wired past the cluster's topology check used to hang:
// ssA -> ssB over one conservative and one optimistic loopback channel
// delivered every event, yet the termination probe never closed on the
// multi-edge.  start_all() now refuses the wiring.
TEST(Topology, ParallelChannelOutsideTheTopologyFailsAtStart) {
  testing::SplitPipe pipe(3, ChannelMode::kConservative);
  transport::LinkPair extra = transport::make_loopback_pair();
  const ChannelId xa = pipe.a->add_channel(
      "ssA<->ssB#2", ChannelMode::kOptimistic, std::move(extra.a));
  const ChannelId xb = pipe.b->add_channel(
      "ssA<->ssB#2", ChannelMode::kOptimistic, std::move(extra.b));
  auto& p2 = pipe.a->scheduler().emplace<testing::Producer>("p2", 3);
  auto& s2 = pipe.b->scheduler().emplace<testing::Sink>("s2");
  const NetId net_a = pipe.a->scheduler().make_net("wire2");
  pipe.a->scheduler().attach(net_a, p2.id(), "out");
  const NetId net_b = pipe.b->scheduler().make_net("wire2");
  pipe.b->scheduler().attach(net_b, s2.id(), "in");
  split_net(*pipe.a, xa, net_a, *pipe.b, xb, net_b);
  try {
    pipe.cluster.start_all();
    FAIL() << "parallel channels started";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kTopology) << e.what();
  }
  EXPECT_FALSE(pipe.a->started());
  EXPECT_FALSE(pipe.b->started());
}

TEST(ConservativePipe, DeliversAcrossSubsystems) {
  SplitPipe pipe(10, ChannelMode::kConservative);
  pipe.cluster.start_all();
  const auto outcomes = pipe.cluster.run_all();
  for (const auto& [name, outcome] : outcomes)
    EXPECT_EQ(outcome, Subsystem::RunOutcome::kQuiescent) << name;

  EXPECT_EQ(pipe.sink->received,
            (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  // Delivery times preserved across the split: producer emits at 10,20,...
  for (std::size_t i = 0; i < pipe.sink->times.size(); ++i)
    EXPECT_EQ(pipe.sink->times[i], ticks(10 * (i + 1)));
  EXPECT_EQ(pipe.a->stats().events_sent, 10u);
  EXPECT_EQ(pipe.b->stats().events_received, 10u);
}

TEST(ConservativePipe, WorksOverTcp) {
  SplitPipe pipe(25, ChannelMode::kConservative, Wire::kTcp);
  pipe.cluster.start_all();
  pipe.cluster.run_all();
  ASSERT_EQ(pipe.sink->received.size(), 25u);
  for (std::size_t i = 0; i < 25; ++i)
    EXPECT_EQ(pipe.sink->received[i], i);
}

TEST(ConservativePipe, WorksWithWideAreaLatency) {
  using namespace std::chrono_literals;
  SplitPipe pipe(10, ChannelMode::kConservative, Wire::kLoopback,
                 transport::LatencyModel{.base = 2ms});
  pipe.cluster.start_all();
  pipe.cluster.run_all();
  EXPECT_EQ(pipe.sink->received.size(), 10u);
  EXPECT_EQ(pipe.sink->times.back(), ticks(100));
}

TEST(ConservativeLoop, RoundTripMatchesSingleHost) {
  SplitLoop loop(20, ChannelMode::kConservative);
  loop.cluster.start_all();
  const auto outcomes = loop.cluster.run_all();
  for (const auto& [name, outcome] : outcomes)
    EXPECT_EQ(outcome, Subsystem::RunOutcome::kQuiescent) << name;
  EXPECT_EQ(loop.sink->received, single_host_loop_reference(20));
  EXPECT_EQ(loop.relay->forwarded, 20u);
}

TEST(ConservativeLoop, SafeTimeProtocolExchangesGrants) {
  SplitLoop loop(20, ChannelMode::kConservative);
  loop.cluster.start_all();
  loop.cluster.run_all();
  // Both sides must have granted and received safe times; neither may have
  // rolled back (conservative never does).
  EXPECT_GT(loop.a->stats().grants_received, 0u);
  EXPECT_GT(loop.b->stats().grants_sent, 0u);
  EXPECT_EQ(loop.a->stats().rollbacks, 0u);
  EXPECT_EQ(loop.b->stats().rollbacks, 0u);
}

TEST(ConservativeChain, ThreeSubsystemsConverge) {
  // Fig. 4's shape: SS1 in the middle with channels to SS2 and SS3.  Safe
  // time must flow through the chain without deadlock (self-restriction
  // removal).
  NodeCluster cluster;
  PiaNode& node = cluster.add_node("node");
  Subsystem& ss1 = node.add_subsystem("ss1");
  Subsystem& ss2 = node.add_subsystem("ss2");
  Subsystem& ss3 = node.add_subsystem("ss3");

  // ss2: producer -> ss1: relay -> ss3: sink
  auto& producer = ss2.scheduler().emplace<testing::Producer>("p", 15);
  auto& relay = ss1.scheduler().emplace<testing::Relay>("r");
  auto& sink = ss3.scheduler().emplace<testing::Sink>("s");

  const NetId fwd2 = ss2.scheduler().make_net("fwd");
  ss2.scheduler().attach(fwd2, producer.id(), "out");
  const NetId fwd1 = ss1.scheduler().make_net("fwd");
  ss1.scheduler().attach(fwd1, relay.id(), "in");
  const NetId out1 = ss1.scheduler().make_net("out");
  ss1.scheduler().attach(out1, relay.id(), "out");
  const NetId out3 = ss3.scheduler().make_net("out");
  ss3.scheduler().attach(out3, sink.id(), "in");

  const ChannelPair c12 =
      cluster.connect_checked(ss1, ss2, ChannelMode::kConservative);
  const ChannelPair c13 =
      cluster.connect_checked(ss1, ss3, ChannelMode::kConservative);
  split_net(ss1, c12.a, fwd1, ss2, c12.b, fwd2);
  split_net(ss1, c13.a, out1, ss3, c13.b, out3);

  cluster.start_all();
  const auto outcomes = cluster.run_all();
  for (const auto& [name, outcome] : outcomes)
    EXPECT_EQ(outcome, Subsystem::RunOutcome::kQuiescent) << name;
  ASSERT_EQ(sink.received.size(), 15u);
  for (std::size_t i = 0; i < 15; ++i)
    EXPECT_EQ(sink.received[i], i + 1);  // relay adds 1
}

TEST(ConservativeStall, Fig3SubsystemMustWaitForPeer) {
  // The Fig. 3 scenario: a subsystem with a ready event cannot dispatch it
  // until the peer grants a safe time that covers it.
  SplitPipe pipe(1, ChannelMode::kConservative, Wire::kLoopback,
                 /*latency=*/{}, /*period=*/ticks(10));
  pipe.cluster.start_all();

  // ssB's sink has nothing; ssA's producer will emit at t=10.  ssB cannot
  // know whether ssA will send before its own (hypothetical) events, so any
  // local event on ssB would be blocked until a grant arrives.
  // Drive the loop manually: before any grant exchange, ssB's barrier is 0.
  EXPECT_EQ(pipe.b->scheduler().now(), VirtualTime::zero());
  Event probe{.time = ticks(20),
              .target = pipe.sink->id(),
              .port = 0,
              .kind = EventKind::kDeliver,
              .value = Value{std::uint64_t{99}}};
  pipe.b->scheduler().inject(probe);
  EXPECT_EQ(pipe.b->try_advance(), Subsystem::StepResult::kBlocked);

  // Once both sides run, grants flow: the probe (t=20) and the remote
  // event (t=10) are delivered in timestamp order.
  pipe.cluster.run_all();
  ASSERT_EQ(pipe.sink->received.size(), 2u);
  EXPECT_EQ(pipe.sink->received[0], 0u);   // remote at t=10 first
  EXPECT_EQ(pipe.sink->received[1], 99u);  // probe at t=20 second
  // (Whether run() observes an explicit stall is a wall-clock race — the
  // deterministic kBlocked assertion above is the Fig. 3 property.)
}

TEST(RunLevelCoordination, SwitchPropagatesAcrossChannel) {
  SplitPipe pipe(3, ChannelMode::kConservative);
  pipe.cluster.start_all();
  // ssA asks ssB to switch the sink's runlevel (proxy coordination).
  pipe.a->send_runlevel(pipe.channels.a, "s", runlevels::kPacket);
  pipe.cluster.run_all();
  EXPECT_EQ(pipe.sink->runlevel().name, "packetLevel");
}

// --- effective_grant() boundary cases ---------------------------------------
//
// The grant clamp walks the output log at index granted_in_seen -
// output_trimmed; fossil collection slides that window, so the boundaries
// where the window starts or falls entirely off the log are load-bearing.

struct GrantRig {
  transport::LinkPair pair = transport::make_loopback_pair();
  ChannelEndpoint ep{"grant-test", ChannelMode::kConservative,
                     std::move(pair.a), /*origin_id=*/1};
};

TEST(EffectiveGrant, AllSendsSeenReturnsRawGrant) {
  GrantRig rig;
  ChannelEndpoint& ep = rig.ep;
  ep.granted_in = ticks(100);
  ep.send_event(0, Value{1u}, ticks(40));
  ep.granted_in_seen = ep.event_msgs_sent;  // peer saw everything
  EXPECT_EQ(ep.effective_grant(), ticks(100));
}

TEST(EffectiveGrant, SeenEqualsTrimmedClampsToFirstSurvivingSend) {
  GrantRig rig;
  ChannelEndpoint& ep = rig.ep;
  ep.granted_in = ticks(100);
  ep.granted_in_lookahead = ticks(5);
  for (int i = 0; i < 3; ++i)
    ep.send_event(0, Value{static_cast<std::uint64_t>(i)},
                  ticks(10 * (i + 1)));
  // Fossil collection trimmed the first send; the peer's grant was grounded
  // exactly at that trim point, so the clamp must use output_log[0] (t=20),
  // not walk off the front of the window.
  ep.output_log.erase(ep.output_log.begin());
  ep.output_trimmed = 1;
  ep.granted_in_seen = 1;
  EXPECT_EQ(ep.effective_grant(), ticks(20) + ticks(5));
}

TEST(EffectiveGrant, SeenBelowTrimmedIsPreGvtAndUnclamped) {
  GrantRig rig;
  ChannelEndpoint& ep = rig.ep;
  ep.granted_in = ticks(100);
  ep.granted_in_lookahead = ticks(0);
  for (int i = 0; i < 3; ++i)
    ep.send_event(0, Value{static_cast<std::uint64_t>(i)},
                  ticks(10 * (i + 1)));
  ep.output_log.erase(ep.output_log.begin(), ep.output_log.begin() + 2);
  ep.output_trimmed = 2;
  // A grant grounded before the GVT trim references sends that are already
  // irrevocably committed — it must pass through unclamped.
  ep.granted_in_seen = 1;
  EXPECT_EQ(ep.effective_grant(), ticks(100));
}

TEST(EffectiveGrant, FullyFossilCollectedLogReturnsRawGrant) {
  GrantRig rig;
  ChannelEndpoint& ep = rig.ep;
  ep.granted_in = ticks(100);
  ep.granted_in_lookahead = ticks(0);
  for (int i = 0; i < 3; ++i)
    ep.send_event(0, Value{static_cast<std::uint64_t>(i)},
                  ticks(10 * (i + 1)));
  // Everything the grant could reference is gone: index lands past the end
  // of the (empty) log, which means all those sends are pre-GVT history.
  ep.output_log.clear();
  ep.output_trimmed = 3;
  ep.granted_in_seen = 2;
  EXPECT_EQ(ep.effective_grant(), ticks(100));
}

TEST(SplitNet, RegistrationOrderMismatchIsCaught) {
  NodeCluster cluster;
  PiaNode& node = cluster.add_node("n");
  Subsystem& a = node.add_subsystem("a");
  Subsystem& b = node.add_subsystem("b");
  const NetId na1 = a.scheduler().make_net("n1");
  const NetId na2 = a.scheduler().make_net("n2");
  const NetId nb1 = b.scheduler().make_net("n1");
  const ChannelPair ch = cluster.connect_checked(a, b, ChannelMode::kConservative);
  a.export_net(ch.a, na1);  // a registers one extra net first
  EXPECT_THROW(split_net(a, ch.a, na2, b, ch.b, nb1), Error);
}

}  // namespace
}  // namespace pia::dist

// --- output horizons ---------------------------------------------------------

namespace pia::dist {
namespace {
namespace horizons {

/// Wakes at `wake`, computes until `at`, sends one value, and declares
/// that nothing leaves before `promised`: honest when promised <= at.
class Announcer final : public Component {
 public:
  Announcer(std::string name, VirtualTime wake, VirtualTime at,
            VirtualTime promised)
      : Component(std::move(name)), wake_(wake), at_(at), promised_(promised) {
    out_ = add_output("out");
    declare_horizons();
  }
  void on_init() override { wake_at(wake_); }
  void on_wake() override {
    advance(VirtualTime{at_.ticks() - wake_.ticks()});
    sent_ = true;
    send(out_, Value{std::uint64_t{1}});
  }
  void on_receive(PortIndex, const Value&) override {}
  [[nodiscard]] VirtualTime quiet_until(PortIndex) const override {
    return sent_ ? VirtualTime::infinity() : promised_;
  }
  void save_state(serial::OutArchive& ar) const override {
    ar.put_varint(sent_);
  }
  void restore_state(serial::InArchive& ar) override {
    sent_ = ar.get_varint() != 0;
  }

 private:
  VirtualTime wake_;
  VirtualTime at_;
  VirtualTime promised_;
  bool sent_ = false;
  PortIndex out_;
};

/// ssA's announcer wakes at `wake`, sends at t=100 and promises `promised`;
/// ssB has its own event at t=101.  ssA first slices to a horizon below
/// `wake`, so its only grant is the promise (checked by `on_grant`); ssB
/// runs on it; then ssA sends.
void run_promise(VirtualTime wake, VirtualTime promised,
                 const std::function<void(const ChannelEndpoint&)>& on_grant =
                     [](const ChannelEndpoint&) {}) {
  NodeCluster cluster;
  Subsystem& a = cluster.add_node("nodeA").add_subsystem("ssA");
  Subsystem& b = cluster.add_node("nodeB").add_subsystem("ssB");
  auto& announcer = a.scheduler().emplace<horizons::Announcer>(
      "announcer", wake, ticks(100), promised);
  auto& sink = b.scheduler().emplace<testing::Sink>("sink");
  auto& tick = b.scheduler().emplace<testing::Producer>("tick", 1, ticks(10),
                                                        ticks(101));
  const NetId net_a = a.scheduler().make_net("wire");
  a.scheduler().attach(net_a, announcer.id(), "out");
  const NetId net_b = b.scheduler().make_net("wire");
  b.scheduler().attach(net_b, sink.id(), "in");
  const NetId idle = b.scheduler().make_net("tick");
  b.scheduler().attach(idle, tick.id(), "out");
  const ChannelPair channels =
      cluster.connect_checked(a, b, ChannelMode::kConservative);
  split_net(a, channels.a, net_a, b, channels.b, net_b);
  cluster.start_all();

  bool progressed = false;
  (void)a.run_slice(Subsystem::RunConfig{.horizon = ticks(20)}, progressed);
  b.drain();
  on_grant(b.channel(channels.b));
  const Subsystem::RunConfig run{.horizon = ticks(1000)};
  for (int round = 0; round < 20; ++round) {
    (void)b.run_slice(run, progressed);
    (void)a.run_slice(run, progressed);
  }
  EXPECT_EQ(sink.received.size(), 1u);
}

/// Forwards every input `latency` later, and declares exactly that.
class Gate final : public Component {
 public:
  Gate(std::string name, VirtualTime latency)
      : Component(std::move(name)), latency_(latency) {
    in_ = add_input("in");
    out_ = add_output("out");
    declare_horizons();
  }
  void on_receive(PortIndex, const Value& value) override {
    send(out_, value, latency_);
  }
  [[nodiscard]] VirtualTime quiet_until(PortIndex) const override {
    return VirtualTime::infinity();
  }
  [[nodiscard]] VirtualTime min_latency(PortIndex, PortIndex) const override {
    return latency_;
  }

 private:
  VirtualTime latency_;
  PortIndex in_;
  PortIndex out_;
};

/// ssA: a producer that declares nothing, waking at 10, feeds a Gate whose
/// output crosses to ssB; ssA declares `lookahead`.  Returns the first
/// grant ssB receives (ssA slices once without dispatching).
VirtualTime gated_grant(VirtualTime latency, VirtualTime lookahead) {
  NodeCluster cluster;
  Subsystem& a = cluster.add_node("nodeA").add_subsystem("ssA");
  Subsystem& b = cluster.add_node("nodeB").add_subsystem("ssB");
  auto& producer = a.scheduler().emplace<testing::Producer>("p", 1);
  auto& gate = a.scheduler().emplace<Gate>("gate", latency);
  a.scheduler().connect(producer.id(), "out", gate.id(), "in");
  const NetId net_a = a.scheduler().make_net("wire");
  a.scheduler().attach(net_a, gate.id(), "out");
  auto& sink = b.scheduler().emplace<testing::Sink>("sink");
  const NetId net_b = b.scheduler().make_net("wire");
  b.scheduler().attach(net_b, sink.id(), "in");
  const ChannelPair channels =
      cluster.connect_checked(a, b, ChannelMode::kConservative);
  split_net(a, channels.a, net_a, b, channels.b, net_b);
  a.set_lookahead(channels.a, lookahead);
  cluster.start_all();
  bool progressed = false;
  (void)a.run_slice(Subsystem::RunConfig{.horizon = ticks(1)}, progressed);
  b.drain();
  return b.channel(channels.b).granted_in;
}

}  // namespace horizons

// A path through a component that declares nothing is bounded by the
// channel lookahead, the user's claim about every path; declared latencies
// on it count only where they add up to more.
TEST(OutputHorizon, SilentComponentsKeepTheLookaheadAsAFloor) {
  EXPECT_EQ(horizons::gated_grant(ticks(5), ticks(20)), ticks(30));
  EXPECT_EQ(horizons::gated_grant(ticks(25), ticks(20)), ticks(35));
}

// The kernel's safety net under a false horizon: a promise one tick past
// the real send lets the peer dispatch its event at 101 before the value
// stamped 100 arrives, and the delivery check refuses it.
TEST(OutputHorizon, OverPromiseByOneTickFailsWithConsistency) {
  horizons::run_promise(ticks(100), ticks(100));  // honest
  try {
    horizons::run_promise(ticks(100), ticks(101));
    FAIL() << "a horizon one tick too late went unnoticed";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kConsistency) << e.what();
  }
}

// The promise is the declared quiet time, not the next event plus the
// lookahead: the announcer wakes at 40 but cannot send before 100.  Nothing
// on ssA reacts to ssB, so the reaction slack is infinite.
TEST(OutputHorizon, GrantIsTheDeclaredQuietTime) {
  horizons::run_promise(ticks(40), ticks(100), [](const ChannelEndpoint& c) {
    EXPECT_EQ(c.granted_in, ticks(100));
    EXPECT_TRUE(c.granted_in_lookahead.is_infinite());
  });
}

}  // namespace
}  // namespace pia::dist
