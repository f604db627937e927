#include <gtest/gtest.h>

#include <map>

#include "core/scheduler.hpp"
#include "core/simulation.hpp"
#include "helpers.hpp"

namespace pia {
namespace {

using testing::Producer;
using testing::Relay;
using testing::Sink;

TEST(Kernel, ProducerToSinkDelivery) {
  Scheduler sched;
  auto& producer = sched.emplace<Producer>("p", 5);
  auto& sink = sched.emplace<Sink>("s");
  sched.connect(producer.id(), "out", sink.id(), "in");
  sched.init();
  sched.run();
  EXPECT_EQ(sink.received, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(Kernel, DeliveryTimesFollowPeriodAndNetDelay) {
  Scheduler sched;
  auto& producer =
      sched.emplace<Producer>("p", 3, /*period=*/ticks(10), /*start=*/ticks(100));
  auto& sink = sched.emplace<Sink>("s");
  sched.connect(producer.id(), "out", sink.id(), "in", /*delay=*/ticks(7));
  sched.init();
  sched.run();
  EXPECT_EQ(sink.times, (std::vector<VirtualTime>{ticks(107), ticks(117),
                                                  ticks(127)}));
}

TEST(Kernel, TwoLevelTimeInvariants) {
  // The paper's two-level virtual time (§2.1): subsystem time advances
  // monotonically along dispatched event times; a component's local time
  // never decreases and, once the component is activated, is never behind
  // subsystem time (its view of the world is up to date when restarted).
  Scheduler sched;
  auto& producer = sched.emplace<Producer>("p", 20);
  auto& relay = sched.emplace<Relay>("r", /*think=*/ticks(3));
  auto& sink = sched.emplace<Sink>("s");
  sched.connect(producer.id(), "out", relay.id(), "in");
  sched.connect(relay.id(), "out", sink.id(), "in");
  sched.init();

  std::map<ComponentId, VirtualTime> last_local;
  VirtualTime last_now = VirtualTime::zero();
  while (sched.step()) {
    EXPECT_GE(sched.now(), last_now) << "subsystem time went backwards";
    last_now = sched.now();
    for (ComponentId id : sched.component_ids()) {
      const VirtualTime local = sched.component(id).local_time();
      auto [it, fresh] = last_local.emplace(id, local);
      if (!fresh) {
        EXPECT_GE(local, it->second)
            << sched.component(id).name() << " local time went backwards";
        it->second = local;
      }
      // Once activated (local > 0), a component is never behind the
      // subsystem clock beyond the instant of its last activation.
      if (local > VirtualTime::zero() && local >= sched.now()) {
        EXPECT_LE(sched.now(), local);
      }
    }
  }
  EXPECT_EQ(sink.received.size(), 20u);
  // At quiescence every component caught up with everything it was sent.
  EXPECT_EQ(relay.forwarded, 20u);
}

TEST(Kernel, RelayAddsComputationTime) {
  Scheduler sched;
  auto& producer = sched.emplace<Producer>("p", 1, ticks(10), ticks(10));
  auto& relay = sched.emplace<Relay>("r", ticks(5));
  auto& sink = sched.emplace<Sink>("s");
  sched.connect(producer.id(), "out", relay.id(), "in");
  sched.connect(relay.id(), "out", sink.id(), "in");
  sched.init();
  sched.run();
  // Producer emits at 10; relay thinks 5; sink receives at 15.
  ASSERT_EQ(sink.times.size(), 1u);
  EXPECT_EQ(sink.times[0], ticks(15));
  EXPECT_EQ(sink.received[0], 1u);  // relay forwards value + 1
}

TEST(Kernel, FanOutDeliversToAllSinks) {
  Scheduler sched;
  auto& producer = sched.emplace<Producer>("p", 3);
  auto& s1 = sched.emplace<Sink>("s1");
  auto& s2 = sched.emplace<Sink>("s2");
  const NetId net = sched.make_net("bus");
  sched.attach(net, producer.id(), "out");
  sched.attach(net, s1.id(), "in");
  sched.attach(net, s2.id(), "in");
  sched.init();
  sched.run();
  EXPECT_EQ(s1.received.size(), 3u);
  EXPECT_EQ(s2.received.size(), 3u);
}

TEST(Kernel, DeterministicTieBreaking) {
  // Two producers emitting at identical times must dispatch identically on
  // every run (checkpoint/rollback correctness depends on this).
  auto run_once = [] {
    Scheduler sched;
    auto& p1 = sched.emplace<Producer>("p1", 10, ticks(10), ticks(10));
    auto& p2 = sched.emplace<Producer>("p2", 10, ticks(10), ticks(10));
    auto& sink = sched.emplace<Sink>("s");
    const NetId net = sched.make_net("bus");
    sched.attach(net, p1.id(), "out");
    sched.attach(net, p2.id(), "out");
    sched.attach(net, sink.id(), "in");
    sched.init();
    sched.run();
    return sink.received;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Kernel, SynchronousViolationThrowsWithoutHandler) {
  /// Computes for 50 ticks on every input.
  class Busy : public Component {
   public:
    Busy() : Component("busy") { add_input("in"); }
    void on_receive(PortIndex, const Value&) override { advance(ticks(50)); }
  };
  Scheduler sched;
  auto& sink = sched.emplace<Sink>("s", PortSync::kSynchronous);
  auto& busy = sched.emplace<Busy>();
  sched.init();
  // Pretend the sink computed ahead, then inject an event in its past.
  sched.inject(Event{.time = ticks(100),
                     .target = sink.id(),
                     .port = 0,
                     .kind = EventKind::kDeliver,
                     .value = Value{std::uint64_t{1}}});
  sched.run();
  EXPECT_EQ(sink.local_time(), ticks(100));
  // Subsystem time is now 100; injecting an earlier event is a straggler.
  EXPECT_THROW(sched.inject(Event{.time = ticks(50),
                                  .target = sink.id(),
                                  .port = 0,
                                  .kind = EventKind::kDeliver,
                                  .value = Value{std::uint64_t{2}}}),
               Error);
  // A delivery at the component's own local time is not a violation.
  sched.inject(Event{.time = ticks(100),
                     .target = sink.id(),
                     .port = 0,
                     .kind = EventKind::kDeliver,
                     .value = Value{std::uint64_t{3}}});
  sched.run();
  EXPECT_EQ(sink.received, (std::vector<std::uint64_t>{1, 3}));
  EXPECT_EQ(sched.stats().violations, 0u);

  // One that computed past the instant is: the kernel counts it and
  // raises kConsistency.
  sched.inject(Event{.time = ticks(100),
                     .target = busy.id(),
                     .port = 0,
                     .kind = EventKind::kDeliver,
                     .value = Value{std::uint64_t{4}}});
  sched.run();
  EXPECT_EQ(busy.local_time(), ticks(150));
  sched.inject(Event{.time = ticks(120),
                     .target = busy.id(),
                     .port = 0,
                     .kind = EventKind::kDeliver,
                     .value = Value{std::uint64_t{5}}});
  try {
    sched.run();
    ADD_FAILURE() << "a delivery into the component's past was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kConsistency) << e.what();
  }
  EXPECT_EQ(sched.stats().violations, 1u);
}

TEST(Kernel, AsynchronousPortAcceptsInterruptStyleDelivery) {
  Scheduler sched;
  auto& sink = sched.emplace<Sink>("s", PortSync::kAsynchronous);
  // A second component keeps subsystem time honest.
  auto& producer = sched.emplace<Producer>("p", 1, ticks(10), ticks(200));
  auto& psink = sched.emplace<Sink>("ps");
  sched.connect(producer.id(), "out", psink.id(), "in");
  sched.init();

  sched.inject(Event{.time = ticks(100),
                     .target = sink.id(),
                     .port = 0,
                     .kind = EventKind::kDeliver,
                     .value = Value{std::uint64_t{7}}});
  sched.run();
  EXPECT_EQ(sink.received, (std::vector<std::uint64_t>{7}));
  EXPECT_EQ(sched.stats().violations, 0u);
}

TEST(Kernel, WiringErrors) {
  Scheduler sched;
  auto& producer = sched.emplace<Producer>("p", 1);
  auto& sink = sched.emplace<Sink>("s");
  EXPECT_THROW(sched.connect(producer.id(), "nope", sink.id(), "in"), Error);
  sched.connect(producer.id(), "out", sink.id(), "in");
  // Double-wiring the same port is a precondition failure.
  auto& sink2 = sched.emplace<Sink>("s2");
  EXPECT_THROW(sched.connect(producer.id(), "out", sink2.id(), "in"), Error);
}

TEST(Kernel, DuplicateComponentNameRejected) {
  Scheduler sched;
  sched.emplace<Sink>("same");
  EXPECT_THROW(sched.emplace<Sink>("same"), Error);
}

TEST(Kernel, SendOnInputPortRejected) {
  class Bad : public Component {
   public:
    Bad() : Component("bad") { in_ = add_input("in"); }
    void on_init() override { wake_after(ticks(1)); }
    void on_wake() override { send(in_, Value{std::uint64_t{1}}); }
    void on_receive(PortIndex, const Value&) override {}
    PortIndex in_;
  };
  Scheduler sched;
  sched.emplace<Bad>();
  sched.init();
  EXPECT_THROW(sched.run(), Error);
}

TEST(Kernel, RunUntilStopsAtBoundary) {
  Scheduler sched;
  auto& producer = sched.emplace<Producer>("p", 10, ticks(10), ticks(10));
  auto& sink = sched.emplace<Sink>("s");
  sched.connect(producer.id(), "out", sink.id(), "in");
  sched.init();
  sched.run_until(ticks(45));
  EXPECT_EQ(sink.received.size(), 4u);  // deliveries at 10,20,30,40
  EXPECT_LE(sched.now(), ticks(45));
  sched.run();
  EXPECT_EQ(sink.received.size(), 10u);
}

TEST(Kernel, StatsAreAccurate) {
  Scheduler sched;
  auto& producer = sched.emplace<Producer>("p", 5);
  auto& sink = sched.emplace<Sink>("s");
  sched.connect(producer.id(), "out", sink.id(), "in");
  sched.init();
  sched.run();
  // 5 wakes + 5 deliveries.
  EXPECT_EQ(sched.stats().events_dispatched, 10u);
  EXPECT_EQ(sched.stats().wakes_dispatched, 5u);
}

TEST(Kernel, ComponentLookup) {
  Scheduler sched;
  auto& sink = sched.emplace<Sink>("findme");
  EXPECT_EQ(sched.find_component("findme"), &sink);
  EXPECT_EQ(sched.find_component("ghost"), nullptr);
  EXPECT_EQ(sched.component_id("findme"), sink.id());
  EXPECT_THROW(sched.component_id("ghost"), Error);
}

TEST(SimulationFacade, ConnectAndRun) {
  Simulation sim;
  auto& producer = sim.emplace<Producer>("p", 3);
  auto& sink = sim.emplace<Sink>("s");
  sim.connect(producer, "out", sink, "in");
  sim.init();
  sim.run();
  EXPECT_EQ(sink.received.size(), 3u);
  EXPECT_GT(sim.now(), VirtualTime::zero());
}

}  // namespace
}  // namespace pia
