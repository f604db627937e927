// Thread-safety storms for the Link implementations, the loopback queue's
// borrowed-view receive path, the ReadySignal doorbell contract (arm /
// notify / take / disarm) and ChannelSet::wait_any, doorbell routing (many
// sets on one worker's bell, sets re-routed by a steal), and the
// NodeExecutor worker pool, including which subsystems it parks.  Everything here is
// about concurrency: FIFO order under sender/receiver/stats races, views
// against a racing producer, close() mid-storm, lost-wakeup windows, EINTR
// resilience, and bit-exact pooled execution.  Run under ThreadSanitizer
// in CI.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <pthread.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "base/error.hpp"
#include "base/rng.hpp"
#include "dist/executor.hpp"
#include "dist/node.hpp"
#include "dist_helpers.hpp"
#include "transport/link.hpp"
#include "transport/ready.hpp"
#include "transport/tcp.hpp"

namespace pia::transport {
namespace {

using namespace std::chrono_literals;

Bytes frame_for(std::uint32_t i) {
  Bytes b(4);
  b[0] = std::byte(i & 0xff);
  b[1] = std::byte((i >> 8) & 0xff);
  b[2] = std::byte((i >> 16) & 0xff);
  b[3] = std::byte((i >> 24) & 0xff);
  return b;
}

std::uint32_t index_of(const Bytes& b) {
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

/// One sender thread streaming `count` indexed frames, one receiver thread
/// draining them, one thread hammering stats() the whole time.  Asserts
/// FIFO delivery of every frame and a consistent final counter snapshot.
void storm(Link& tx, Link& rx, std::uint32_t count) {
  std::atomic<bool> done{false};

  std::thread stats_reader([&] {
    std::uint64_t last_sent = 0;
    while (!done.load(std::memory_order_acquire)) {
      const LinkStats s = tx.stats();
      // Monotone under concurrent sends — a torn counter would go backwards.
      EXPECT_GE(s.messages_sent, last_sent);
      last_sent = s.messages_sent;
      (void)rx.stats();
    }
  });

  std::thread sender([&] {
    for (std::uint32_t i = 0; i < count; ++i) tx.send(frame_for(i));
  });

  std::uint32_t next = 0;
  while (next < count) {
    auto got = rx.recv_for(2000ms);
    ASSERT_TRUE(got.has_value()) << "lost frame " << next;
    ASSERT_EQ(index_of(*got), next) << "FIFO violated";
    ++next;
  }

  sender.join();
  done.store(true, std::memory_order_release);
  stats_reader.join();

  const LinkStats sent = tx.stats();
  EXPECT_EQ(sent.messages_sent, count);
  EXPECT_EQ(sent.frames_sent, count);
  const LinkStats received = rx.stats();
  EXPECT_EQ(received.frames_received, count);
}

TEST(LinkStorm, LoopbackFifoUnderStatsRace) {
  LinkPair pair = make_loopback_pair();
  storm(*pair.a, *pair.b, 5000);
}

TEST(LinkStorm, TcpFifoUnderStatsRace) {
  TcpListener listener(0);
  LinkPair pair = connect_tcp_pair(listener);
  storm(*pair.a, *pair.b, 2000);
}

/// close() racing a send storm: the sender must either complete or observe
/// Error{kTransport}; the receiver drains what was delivered and then sees
/// nullopt.  No deadlock, no crash, FIFO for whatever arrives.
void close_storm(LinkPair pair) {
  std::atomic<bool> sender_saw_close{false};
  std::thread sender([&] {
    try {
      for (std::uint32_t i = 0; i < 100000; ++i) pair.a->send(frame_for(i));
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kTransport);
      sender_saw_close.store(true, std::memory_order_release);
    }
  });

  // Take a few frames, then slam the door from the receive side.
  std::uint32_t next = 0;
  for (; next < 100; ++next) {
    auto got = pair.b->recv_for(2000ms);
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(index_of(*got), next);
  }
  pair.b->close();
  sender.join();

  // Drain whatever was in flight: still FIFO, then EOF.
  while (auto got = pair.b->try_recv()) ASSERT_EQ(index_of(*got), next++);
  EXPECT_FALSE(pair.b->try_recv().has_value());
  EXPECT_TRUE(sender_saw_close.load(std::memory_order_acquire));
}

TEST(LinkStorm, LoopbackCloseMidStorm) { close_storm(make_loopback_pair()); }

// --- Borrowed-view receive (the path every ChannelEndpoint decodes through)

/// A frame whose every byte is derived from (seed, position), so a view
/// aliasing the wrong slot cannot go unnoticed.
Bytes patterned_frame(std::uint32_t seed, std::size_t size) {
  Bytes b(size);
  for (std::size_t i = 0; i < size; ++i)
    b[i] = std::byte((seed * 131 + i * 7) & 0xff);
  return b;
}

TEST(Loopback, BorrowedViewMatchesOwningRecv) {
  LinkPair pair = make_loopback_pair();
  ASSERT_TRUE(pair.b->supports_recv_view());
  for (std::uint32_t i = 0; i < 512; ++i)
    pair.a->send(patterned_frame(i, (i * 11) % 97));
  for (std::uint32_t i = 0; i < 512; ++i) {
    const Bytes expect = patterned_frame(i, (i * 11) % 97);
    if (i % 2 == 0) {
      const auto view = pair.b->try_recv_view();
      ASSERT_TRUE(view.has_value()) << "frame " << i;
      EXPECT_EQ(Bytes(view->begin(), view->end()), expect);
      pair.b->release_recv_view();
    } else {
      // Alternating with the owning API must preserve FIFO.
      auto got = pair.b->try_recv();
      ASSERT_TRUE(got.has_value()) << "frame " << i;
      EXPECT_EQ(*got, expect);
    }
  }
  EXPECT_FALSE(pair.b->try_recv_view().has_value());
  EXPECT_EQ(pair.b->stats().frames_received, 512u);
}

TEST(Loopback, BorrowedViewStableWhileProducerPushes) {
  // The aliasing contract: the borrowed front slot must not move or change
  // until release, however many frames the producer queues behind it.
  LinkPair pair = make_loopback_pair();
  const Bytes expect = patterned_frame(7, 48);
  pair.a->send(BytesView{expect});
  const auto view = pair.b->try_recv_view();
  ASSERT_TRUE(view.has_value());
  for (std::uint32_t i = 0; i < 3000; ++i) pair.a->send(frame_for(i));
  EXPECT_EQ(Bytes(view->begin(), view->end()), expect);  // untouched
  pair.b->release_recv_view();
  for (std::uint32_t i = 0; i < 3000; ++i) {
    auto got = pair.b->try_recv();
    ASSERT_TRUE(got.has_value()) << "frame " << i;
    EXPECT_EQ(index_of(*got), i);
  }
}

TEST(Loopback, AbandonedViewIsConsumedByNextRecv) {
  // Contract: any subsequent recv call invalidates (and consumes) an
  // unreleased view, so a decode error cannot wedge the queue.
  LinkPair pair = make_loopback_pair();
  pair.a->send(frame_for(1));
  pair.a->send(frame_for(2));
  pair.a->send(frame_for(3));
  ASSERT_TRUE(pair.b->try_recv_view().has_value());  // never released
  auto got = pair.b->try_recv();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(index_of(*got), 2u);  // frame 1 was consumed with its view
  ASSERT_TRUE(pair.b->try_recv_view().has_value());  // frame 3, abandoned
  EXPECT_FALSE(pair.b->recv_for(1ms).has_value());
}

TEST(LinkStorm, LoopbackBorrowedViewFifoUnderSendRace) {
  // The borrowed-view consumer against a storming producer: views must be
  // byte-exact and FIFO while the sender keeps pushing behind them.
  LinkPair pair = make_loopback_pair();
  constexpr std::uint32_t kFrames = 5000;
  std::thread sender([&] {
    for (std::uint32_t i = 0; i < kFrames; ++i) pair.a->send(frame_for(i));
  });
  std::uint32_t next = 0;
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (next < kFrames) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "stalled";
    const auto view = pair.b->try_recv_view();
    if (!view) continue;
    ASSERT_EQ(view->size(), 4u);
    ASSERT_EQ(index_of(Bytes(view->begin(), view->end())), next);
    pair.b->release_recv_view();
    ++next;
  }
  sender.join();
}

// --- ReadySignal hardening regressions -----------------------------------

/// The first half of a wait on the signal's own doorbell, as
/// ChannelSet::wait_any runs it: route, arm, then read the mark.  True means
/// a pulse is pending and the waiter must not sleep.
bool arm_own_bell(ReadySignal& signal) {
  signal.route_to(signal.bell());
  signal.bell().arm();
  return signal.pending();
}

TEST(ReadySignal, DrainOnEmptyPipeReturnsQuietly) {
  // A wait nobody notified: no mark to take, nothing rung, and disarm()
  // must neither throw nor leave the fd readable.
  ReadySignal signal;
  EXPECT_FALSE(signal.take());
  EXPECT_FALSE(arm_own_bell(signal));
  signal.bell().disarm();
  pollfd p{signal.bell().fd(), POLLIN, 0};
  EXPECT_EQ(::poll(&p, 1, 0), 0);
}

TEST(ReadySignal, DrainConsumesEveryQueuedPulse) {
  // Only the first notify after arm() rings the fd; disarm() reads that
  // ring back, so no stale doorbell is left to busy-spin on.  The pending
  // mark survives the wait for the next take().
  ReadySignal signal;
  ASSERT_FALSE(arm_own_bell(signal));
  for (int i = 0; i < 64; ++i) signal.notify();
  pollfd p{signal.bell().fd(), POLLIN, 0};
  EXPECT_EQ(::poll(&p, 1, 0), 1);
  signal.bell().disarm();
  EXPECT_EQ(::poll(&p, 1, 0), 0);
  EXPECT_TRUE(signal.take());
  EXPECT_FALSE(signal.take());
}

TEST(ReadySignal, UnarmedNotifyMarksPendingWithoutRinging) {
  // Nobody is asleep, so a notify costs no syscall: the fd stays quiet and
  // the mark is taken exactly once.
  ReadySignal signal;
  signal.notify();
  signal.notify();
  pollfd p{signal.bell().fd(), POLLIN, 0};
  EXPECT_EQ(::poll(&p, 1, 0), 0);
  EXPECT_TRUE(signal.take());
  EXPECT_FALSE(signal.take());
  // A mark already pending when the waiter arms tells it not to sleep.
  signal.notify();
  EXPECT_TRUE(arm_own_bell(signal));
  signal.bell().disarm();
  EXPECT_TRUE(signal.take());
}

TEST(ReadySignal, NotifyBetweenArmAndPollWakesThePoll) {
  // The lost-wakeup window: the waiter armed and found nothing pending,
  // then a sender notifies before the waiter reaches its poll.  The ring
  // must already be there when the poll starts.
  ReadySignal signal;
  ASSERT_FALSE(arm_own_bell(signal));
  std::thread sender([&] { signal.notify(); });
  sender.join();
  pollfd p{signal.bell().fd(), POLLIN, 0};
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(poll_until({&p, 1}, start + 10s), 1);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 5s);
  signal.bell().disarm();
  EXPECT_EQ(::poll(&p, 1, 0), 0);
  EXPECT_TRUE(signal.take());
}

TEST(ReadySignal, ReadEndIsNonBlocking) {
  // The ctor must verify its fcntl calls; a blocking read end would hang
  // drain() forever on an empty pipe.
  ReadySignal signal;
  const int flags = ::fcntl(signal.bell().fd(), F_GETFL);
  ASSERT_GE(flags, 0);
  EXPECT_TRUE(flags & O_NONBLOCK);
}

namespace {
void sigusr1_noop(int) {}
}  // namespace

/// Pepper a blocked recv_for with signals: poll returns EINTR, and the wait
/// must resume with the *remaining* timeout — neither returning early nor
/// restarting from scratch.  TCP is the link whose recv_for sleeps in
/// poll_until.
TEST(ReadySignal, RecvForSurvivesEintrStorm) {
  struct sigaction sa = {};
  sa.sa_handler = sigusr1_noop;
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, nullptr), 0);

  TcpListener listener(0);
  LinkPair pair = connect_tcp_pair(listener);
  std::optional<Bytes> got;
  const auto start = std::chrono::steady_clock::now();
  std::thread waiter([&] { got = pair.b->recv_for(400ms); });
  const pthread_t handle = waiter.native_handle();
  for (int i = 0; i < 8; ++i) {
    std::this_thread::sleep_for(25ms);
    ::pthread_kill(handle, SIGUSR1);
  }
  waiter.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;

  EXPECT_FALSE(got.has_value());
  EXPECT_GE(elapsed, 350ms);  // signals must not shorten the wait
  EXPECT_LT(elapsed, 5s);     // ...nor restart it indefinitely
}

TEST(ReadySignal, WaitAnySurvivesEintrStorm) {
  struct sigaction sa = {};
  sa.sa_handler = sigusr1_noop;
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, nullptr), 0);

  // A real subsystem channel table with no traffic: wait_any must ride out
  // the interruptions and report a clean timeout.
  dist::testing::SplitPipe pipe(1, dist::ChannelMode::kConservative);
  bool woke = true;
  const auto start = std::chrono::steady_clock::now();
  std::thread waiter(
      [&] { woke = pipe.a->channel_set().wait_any(400ms); });
  const pthread_t handle = waiter.native_handle();
  for (int i = 0; i < 8; ++i) {
    std::this_thread::sleep_for(25ms);
    ::pthread_kill(handle, SIGUSR1);
  }
  waiter.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;

  EXPECT_FALSE(woke);
  EXPECT_GE(elapsed, 350ms);
  EXPECT_LT(elapsed, 5s);
}

TEST(DeferredRings, NotifyOutsideAScopeRingsAtOnceInsideAtItsEnd) {
  ReadySignal signal;
  pollfd p{signal.bell().fd(), POLLIN, 0};
  // No scope: the notify rings the armed bell before it returns.
  ASSERT_FALSE(arm_own_bell(signal));
  signal.notify();
  EXPECT_EQ(::poll(&p, 1, 0), 1);
  signal.bell().disarm();
  EXPECT_TRUE(signal.take());

  // In nested scopes the ring waits for the outermost scope's end.
  ASSERT_FALSE(arm_own_bell(signal));
  {
    const DeferredRings outer;
    {
      const DeferredRings inner;
      signal.notify();
    }
    EXPECT_TRUE(signal.pending());
    EXPECT_EQ(::poll(&p, 1, 0), 0);
  }
  EXPECT_EQ(::poll(&p, 1, 0), 1);
  signal.bell().disarm();
  EXPECT_EQ(::poll(&p, 1, 0), 0);
  EXPECT_TRUE(signal.take());
}

TEST(DoorbellStorm, WaiterReceivesEveryFrameAndNeverSleepsToItsDeadline) {
  // A sender pushing bursts on a loopback link against a waiter running
  // the full cycle: take, drain, arm, poll, disarm.  The sender waits for
  // each burst to be consumed before the next, so every burst's last frame
  // is one nothing else would wake the waiter for: a notify lost anywhere
  // in the cycle leaves the waiter asleep until its 10 s deadline.  The
  // waiter yields between its drain and its arm on alternate rounds, the
  // window in which a frame can land unseen and its notify find no waiter.
  constexpr std::uint32_t kBursts = 3000;
  LinkPair pair = make_loopback_pair();
  auto signal = std::make_shared<ReadySignal>();
  pair.b->set_ready_signal(signal);
  std::atomic<std::uint32_t> consumed{0};
  std::uint32_t total = 0;
  for (std::uint32_t b = 0; b < kBursts; ++b) total += 1 + b % 7;
  std::thread sender([&] {
    std::uint32_t sent = 0;
    for (std::uint32_t b = 0; b < kBursts; ++b) {
      for (std::uint32_t k = 0; k < 1 + b % 7; ++k)
        pair.a->send(frame_for(sent++));
      while (consumed.load(std::memory_order_acquire) < sent)
        std::this_thread::yield();
    }
  });

  std::uint32_t next = 0;
  std::uint32_t sleeps = 0;
  for (std::uint32_t round = 0; next < total; ++round) {
    signal->take();
    while (auto got = pair.b->try_recv()) {
      ASSERT_EQ(index_of(*got), next) << "FIFO violated";
      ++next;
    }
    consumed.store(next, std::memory_order_release);
    if (next == total) break;
    if (round % 2 == 1) std::this_thread::yield();
    const bool pending = arm_own_bell(*signal);
    pollfd p{signal->bell().fd(), POLLIN, 0};
    const auto now = std::chrono::steady_clock::now();
    const int ready = poll_until({&p, 1}, pending ? now : now + 10s);
    signal->bell().disarm();
    if (pending) continue;
    ++sleeps;
    ASSERT_EQ(ready, 1) << "slept to the deadline with frame " << next
                        << " outstanding";
  }
  sender.join();
  EXPECT_EQ(next, total);
  EXPECT_FALSE(pair.b->try_recv().has_value());
  RecordProperty("sleeps", static_cast<int>(sleeps));
}

}  // namespace
}  // namespace pia::transport

namespace pia::dist {
namespace {

using namespace std::chrono_literals;

testing::PipelineSpec executor_spec() {
  testing::PipelineSpec spec;
  spec.count = 40;
  spec.relays = {{.think_ticks = 3, .level = runlevels::kWord},
                 {.think_ticks = 5, .level = runlevels::kTransaction},
                 {.think_ticks = 2, .level = runlevels::kWord}};
  spec.stage_host = {0, 1, 2, 3};
  spec.sink_host = 0;  // multi-hop loop-back: result crosses every channel
  return spec;
}

/// The tentpole acceptance check in miniature: the pooled executor must be
/// bit-exact with the single-threaded oracle at every worker count.
TEST(NodeExecutor, BitExactWithOracleAcrossWorkerCounts) {
  const testing::PipelineSpec spec = executor_spec();
  const testing::PipelineResult oracle =
      testing::run_single_host_pipeline(spec);
  const std::vector<ChannelMode> modes{ChannelMode::kConservative,
                                       ChannelMode::kOptimistic,
                                       ChannelMode::kConservative};
  for (const std::size_t workers : {1u, 2u, 8u}) {
    testing::FuzzCluster dut(spec, modes, Wire::kLoopback, {}, {}, {16},
                             std::nullopt, workers);
    std::map<std::string, Subsystem::RunOutcome> outcomes;
    const testing::PipelineResult got = dut.run(20'000ms, &outcomes);
    EXPECT_EQ(got, oracle) << "workers=" << workers;
    for (const auto& [name, outcome] : outcomes)
      EXPECT_EQ(outcome, Subsystem::RunOutcome::kQuiescent)
          << name << " workers=" << workers;
  }
}

TEST(NodeExecutor, CoHostedAndCrossNodeChannelsShareTheLoopbackWire) {
  // Placement does not pick the wire: a channel between two subsystems on
  // one node and a channel across nodes are both the loopback queue.
  NodeCluster cluster;
  PiaNode& node = cluster.add_node("pool");
  Subsystem& a = node.add_subsystem("a");
  Subsystem& b = node.add_subsystem("b");
  const ChannelPair chans =
      cluster.connect_checked(a, b, ChannelMode::kConservative);
  EXPECT_EQ(a.channel_set().at(chans.a).link().describe(), "loopback");
  EXPECT_EQ(b.channel_set().at(chans.b).link().describe(), "loopback");

  PiaNode& other = cluster.add_node("far");
  Subsystem& c = other.add_subsystem("c");
  const ChannelPair remote =
      cluster.connect_checked(a, c, ChannelMode::kConservative);
  EXPECT_EQ(a.channel_set().at(remote.a).link().describe(), "loopback");
  EXPECT_EQ(c.channel_set().at(remote.b).link().describe(), "loopback");
}

TEST(NodeExecutor, RunsDirectlyAndCountsSlices) {
  const testing::PipelineSpec spec = executor_spec();
  const std::vector<ChannelMode> modes(3, ChannelMode::kConservative);
  testing::FuzzCluster dut(spec, modes, Wire::kLoopback, {}, {}, {16},
                           std::nullopt, /*worker_threads=*/2);
  dut.cluster.start_all();
  NodeExecutor executor(dut.cluster.node("pool").subsystems(), 2);
  const auto outcomes =
      executor.run(Subsystem::RunConfig{.stall_timeout = 20'000ms});
  ASSERT_EQ(outcomes.size(), 4u);
  for (const auto& [name, outcome] : outcomes)
    EXPECT_EQ(outcome, Subsystem::RunOutcome::kQuiescent) << name;
  EXPECT_GT(executor.stats().slices, 0u);
  EXPECT_EQ(dut.sink->received,
            testing::run_single_host_pipeline(spec).received);
}

/// Sink that closes `far` once `count` values have arrived.
class ClosingSink final : public testing::Sink {
 public:
  ClosingSink(std::string name, std::uint64_t count, transport::Link* far)
      : Sink(std::move(name)), count_(count), far_(far) {}
  void on_receive(PortIndex port, const Value& value) override {
    Sink::on_receive(port, value);
    if (received.size() == count_ && far_ != nullptr) far_->close();
  }

 private:
  std::uint64_t count_;
  transport::Link* far_;
};

struct PoolRun {
  std::uint64_t slices = 0;
  std::chrono::steady_clock::duration elapsed{};
  std::map<std::string, Subsystem::RunOutcome> outcomes;
};

/// A one-worker pool over a busy subsystem (a producer and a sink on one
/// local net: progress on every slice until its 2 × 100 000 events are
/// dispatched), and, when `quiet_wire` is set, a quiet one whose only
/// channel leads to a raw link nobody drives.  The busy sink closes that
/// link when it is done, so the quiet subsystem lives exactly as long.
PoolRun run_busy_beside_quiet(std::optional<Wire> quiet_wire) {
  constexpr std::uint64_t kCount = 100'000;
  NodeCluster cluster;
  PiaNode& node = cluster.add_node("pool");
  transport::LinkPair far;
  if (quiet_wire) far = make_wire_pair(*quiet_wire);
  Scheduler& sched = node.add_subsystem("busy").scheduler();
  auto& producer = sched.emplace<testing::Producer>("p", kCount, ticks(1));
  auto& sink = sched.emplace<ClosingSink>("s", kCount, far.b.get());
  const NetId net = sched.make_net("n");
  sched.attach(net, producer.id(), "out");
  sched.attach(net, sink.id(), "in");
  if (quiet_wire)
    node.add_subsystem("quiet").add_channel(
        "dangling", ChannelMode::kConservative, std::move(far.a));
  cluster.start_all();
  NodeExecutor executor(node.subsystems(), 1);
  PoolRun run;
  const auto start = std::chrono::steady_clock::now();
  run.outcomes = executor.run(Subsystem::RunConfig{.stall_timeout = 20'000ms});
  run.elapsed = std::chrono::steady_clock::now() - start;
  run.slices = executor.stats().slices;
  return run;
}

TEST(NodeExecutor, QuietLoopbackSubsystemIsParkedWhileItsNeighbourWorks) {
  // The quiet subsystem's slices make no progress, so it parks and is
  // sliced again only at its 10 ms idle hint, plus once for the close:
  // the pool's slice count stays near the busy subsystem's own, however
  // slow the host.  Slicing both every pass would double it.
  const std::uint64_t busy = run_busy_beside_quiet(std::nullopt).slices;
  ASSERT_GT(busy, 100u);
  const PoolRun run = run_busy_beside_quiet(Wire::kLoopback);
  EXPECT_EQ(run.outcomes.at("busy"), Subsystem::RunOutcome::kQuiescent);
  EXPECT_EQ(run.outcomes.at("quiet"), Subsystem::RunOutcome::kDisconnected);
  ASSERT_GE(run.slices, busy);
  const auto hints = static_cast<std::uint64_t>(run.elapsed / 10ms);
  EXPECT_LE(run.slices - busy, hints + 4)
      << "busy alone: " << busy << ", run took " << hints * 10 << " ms";
}

TEST(NodeExecutor, QuietTcpSubsystemIsSlicedEveryPass) {
  // A socket never notifies the signal, so a TCP-linked subsystem must not
  // park: every pass slices it, as many times as the busy one at least.
  const std::uint64_t busy = run_busy_beside_quiet(std::nullopt).slices;
  const PoolRun run = run_busy_beside_quiet(Wire::kTcp);
  EXPECT_EQ(run.outcomes.at("busy"), Subsystem::RunOutcome::kQuiescent);
  EXPECT_EQ(run.outcomes.at("quiet"), Subsystem::RunOutcome::kDisconnected);
  EXPECT_GE(run.slices, 2 * busy) << "busy alone: " << busy;
}

TEST(NodeExecutor, ParkedSubsystemWithoutInputStillStalls) {
  // Parking must not hide a subsystem from the stall clock: it is sliced
  // again at every idle hint, and the slice after the stall timeout ends it.
  NodeCluster cluster;
  PiaNode& node = cluster.add_node("pool");
  transport::LinkPair far = make_wire_pair(Wire::kLoopback);
  node.add_subsystem("quiet").add_channel(
      "dangling", ChannelMode::kConservative, std::move(far.a));
  cluster.start_all();
  NodeExecutor executor(node.subsystems(), 1);
  const auto start = std::chrono::steady_clock::now();
  const auto outcomes =
      executor.run(Subsystem::RunConfig{.stall_timeout = 200ms});
  EXPECT_GE(std::chrono::steady_clock::now() - start, 200ms);
  EXPECT_EQ(outcomes.at("quiet"), Subsystem::RunOutcome::kStalled);
  EXPECT_GE(executor.stats().slices, 2u);
}

/// Producer that stamps the wall clock as it emits each value.
class WallProducer final : public testing::Producer {
 public:
  using Producer::Producer;
  void on_wake() override {
    sent_at.push_back(std::chrono::steady_clock::now());
    Producer::on_wake();
  }
  std::vector<std::chrono::steady_clock::time_point> sent_at;
};

/// Sink that stamps the wall clock as each value arrives.
class WallSink final : public testing::Sink {
 public:
  using Sink::Sink;
  void on_receive(PortIndex port, const Value& value) override {
    received_at.push_back(std::chrono::steady_clock::now());
    Sink::on_receive(port, value);
  }
  std::vector<std::chrono::steady_clock::time_point> received_at;
};

TEST(NodeExecutor, ParkedReceiverGetsDelayedFramesAfterTheirStamp) {
  // The receiver parks on frames the fault decorator holds for 200 us: its
  // wake time is the release stamp, so it is sliced when the frame matures,
  // never before (lower bounds only: each frame left after its value was
  // emitted).
  NodeCluster cluster;
  PiaNode& node = cluster.add_node("pool");
  Subsystem& a = node.add_subsystem("a");
  Subsystem& b = node.add_subsystem("b");
  constexpr std::uint64_t kCount = 20;
  auto& producer = a.scheduler().emplace<WallProducer>("p", kCount);
  auto& sink = b.scheduler().emplace<WallSink>("s");
  const NetId net_a = a.scheduler().make_net("wire");
  a.scheduler().attach(net_a, producer.id(), "out");
  const NetId net_b = b.scheduler().make_net("wire");
  b.scheduler().attach(net_b, sink.id(), "in");
  const ChannelPair chans = cluster.connect_checked(
      a, b, ChannelMode::kConservative, Wire::kLoopback,
      transport::LatencyModel{.base = std::chrono::microseconds(200)});
  split_net(a, chans.a, net_a, b, chans.b, net_b);
  cluster.start_all();

  NodeExecutor executor(node.subsystems(), 1);
  const auto outcomes =
      executor.run(Subsystem::RunConfig{.stall_timeout = 20'000ms});
  for (const auto& [name, outcome] : outcomes)
    EXPECT_EQ(outcome, Subsystem::RunOutcome::kQuiescent) << name;
  ASSERT_EQ(sink.received.size(), kCount);
  ASSERT_EQ(producer.sent_at.size(), kCount);
  ASSERT_EQ(sink.received_at.size(), kCount);
  for (std::uint64_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(sink.received[i], i);
    EXPECT_GE(sink.received_at[i] - producer.sent_at[i],
              std::chrono::microseconds(200))
        << "frame " << i << " delivered before its stamp";
  }
}

// --- Doorbell routing: many channel sets, one doorbell per waiter ---------

/// `n` channel sets of one loopback channel each, as a pool worker's batch
/// sees them, with the far ends kept for notifier threads.
struct SetFarm {
  static constexpr auto kDeadline = 5s;

  std::vector<std::unique_ptr<ChannelSet>> sets;
  std::vector<transport::LinkPtr> far;
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> consumed{0};
  std::atomic<bool> stop{false};
  std::atomic<int> deadline_sleeps{0};

  explicit SetFarm(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      auto pair = transport::make_loopback_pair();
      auto endpoint = std::make_unique<ChannelEndpoint>(
          "c" + std::to_string(i), ChannelMode::kConservative,
          std::move(pair.a), 1);
      sets.push_back(std::make_unique<ChannelSet>());
      sets.back()->add(std::move(endpoint));
      far.push_back(std::move(pair.b));
    }
  }

  /// The pool's per-entry check: take the pulse, and only then drain.
  void drain(std::size_t i) {
    if (!sets[i]->take_signal()) return;
    while (sets[i]->at(ChannelId{0}).link().try_recv())
      consumed.fetch_add(1, std::memory_order_acq_rel);
  }

  /// One pool wait over `owned` on `bell`: arm, route and read each set's
  /// mark (prepare_wait), poll, disarm.  Counts a sleep to the deadline
  /// while the farm runs: a lost wake, since a notifier is always waiting
  /// for its frame to be consumed.
  void wait(const std::vector<std::size_t>& owned, transport::Doorbell& bell,
            std::vector<pollfd>& fds) {
    fds.assign(1, pollfd{.fd = bell.fd(), .events = POLLIN, .revents = 0});
    bell.arm();
    bool pending = false;
    for (const std::size_t i : owned)
      pending |= sets[i]->prepare_wait(bell, fds);
    const auto now = std::chrono::steady_clock::now();
    const int ready =
        transport::poll_until(fds, pending ? now : now + kDeadline);
    bell.disarm();
    if (ready == 0 && !pending && !stop.load()) deadline_sleeps.fetch_add(1);
  }

  /// Runs `rounds` lockstep rounds of `notifiers` threads: in round r (from
  /// 1) the first 1 + (r - 1) % notifiers of them each send one frame to a
  /// random set, and the next round starts once every frame is consumed.
  /// In a round with one sender nothing else can wake a waiter whose notify
  /// was lost, so it sleeps to its deadline; the storm ends at the first
  /// such sleep.  Then stops the waiters.
  void storm(std::uint32_t rounds, std::uint32_t notifiers) {
    std::atomic<std::uint32_t> round{0};
    std::vector<std::thread> threads;
    for (std::uint32_t n = 0; n < notifiers; ++n) {
      threads.emplace_back([&, n] {
        Rng rng(0x5eed + n);
        for (std::uint32_t seen = 0;;) {
          std::uint32_t r = round.load(std::memory_order_acquire);
          while (r == seen) {
            std::this_thread::yield();
            r = round.load(std::memory_order_acquire);
          }
          seen = r;
          if (r > rounds) return;
          if (n < 1 + (r - 1) % notifiers) {
            far[rng.below(far.size())]->send(transport::frame_for(0));
            sent.fetch_add(1, std::memory_order_acq_rel);
          }
        }
      });
    }
    std::uint64_t expected = 0;
    Rng jitter(0x71773);
    for (std::uint32_t r = 1; r <= rounds && deadline_sleeps.load() == 0;
         ++r) {
      expected += 1 + (r - 1) % notifiers;
      // Start rounds at random points of the waiters' cycles.
      for (auto spin = jitter.below(64); spin > 0; --spin)
        std::this_thread::yield();
      round.store(r, std::memory_order_release);
      while (sent.load() < expected || consumed.load() < expected)
        std::this_thread::yield();
    }
    round.store(rounds + 1, std::memory_order_release);
    for (auto& t : threads) t.join();
    stop.store(true);
    // Wake every waiter so it sees `stop`.
    for (auto& link : far) link->send(transport::frame_for(0));
    sent.fetch_add(far.size());
  }

  /// Drains whatever the waiters left and checks every frame was consumed.
  void expect_all_consumed() {
    for (std::size_t i = 0; i < sets.size(); ++i) drain(i);
    EXPECT_EQ(consumed.load(), sent.load());
    EXPECT_EQ(deadline_sleeps.load(), 0) << "a wait slept to its deadline";
  }
};

TEST(DoorbellRouting, HundredSetsOnOneBellLoseNoWake) {
  // One waiter owns 100 sets and sleeps on one doorbell, running the full
  // pool cycle every round: take and drain each set, then arm the bell,
  // route and read each set's mark, poll, disarm.  It yields between the
  // drain and the arm on alternate rounds, the window in which a frame can
  // land unseen and its notify find the bell unarmed.
  SetFarm farm(100);
  std::vector<std::size_t> all(farm.sets.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  std::thread waiter([&] {
    const transport::DoorbellLease bell;
    std::vector<pollfd> fds;
    for (std::uint64_t round = 0; !farm.stop.load(); ++round) {
      for (const std::size_t i : all) farm.drain(i);
      if (round % 2 == 1) std::this_thread::yield();
      farm.wait(all, *bell, fds);
    }
  });
  farm.storm(4000, 4);
  waiter.join();
  farm.expect_all_consumed();
}

TEST(DoorbellRouting, StealReroutesASetWithoutLosingAWake) {
  // Two waiters, each with its own doorbell, pass sets between them the
  // way pool workers steal: a worker takes its whole queue as a batch (a
  // batch in flight cannot be stolen), and every round it first takes half
  // of the other's queue.  A stolen set stays routed to its old owner's bell until the
  // thief's next wait routes it, so a notify in between rings the old
  // bell; the thief's own take-then-route-then-read order must still see
  // every frame.
  SetFarm farm(100);
  std::mutex mutex;
  std::vector<std::size_t> queues[2];
  for (std::size_t i = 0; i < farm.sets.size(); ++i) queues[i % 2].push_back(i);
  std::atomic<std::uint64_t> steals{0};
  auto worker = [&](std::size_t self) {
    const transport::DoorbellLease bell;
    std::vector<std::size_t> batch;
    std::vector<pollfd> fds;
    for (std::uint64_t round = 0; !farm.stop.load(); ++round) {
      {
        const std::lock_guard<std::mutex> lock(mutex);
        auto& victim = queues[1 - self];
        if (!victim.empty()) {
          const std::size_t take = (victim.size() + 1) / 2;
          queues[self].insert(queues[self].end(), victim.end() - take,
                              victim.end());
          victim.resize(victim.size() - take);
          steals.fetch_add(1);
        }
        batch.swap(queues[self]);
        queues[self].clear();
      }
      if (!batch.empty()) {
        for (const std::size_t i : batch) farm.drain(i);
        if (round % 2 == 1) std::this_thread::yield();
        farm.wait(batch, *bell, fds);
        const std::lock_guard<std::mutex> lock(mutex);
        queues[self].insert(queues[self].end(), batch.begin(), batch.end());
        batch.clear();
      }
      std::this_thread::yield();  // let the other worker steal
    }
  };
  std::thread a(worker, 0);
  std::thread b(worker, 1);
  farm.storm(4000, 4);
  a.join();
  b.join();
  farm.expect_all_consumed();
  EXPECT_GT(steals.load(), 0u);
}

/// Open file descriptors of this process, or -1 where /proc is missing.
int open_fd_count() {
  std::error_code error;
  std::filesystem::directory_iterator it("/proc/self/fd", error);
  if (error) return -1;
  return static_cast<int>(std::distance(it, std::filesystem::directory_iterator{}));
}

/// One pooled run of a subsystem whose only channel leads to a link nobody
/// drives: it parks, its signal routed to the worker's doorbell, until the
/// stall timeout ends it.  Then, with the pool and its worker gone, the
/// peer sends a frame.
Subsystem::RunOutcome run_parked_pool_then_send() {
  NodeCluster cluster;
  PiaNode& node = cluster.add_node("pool");
  transport::LinkPair far = make_wire_pair(Wire::kLoopback);
  node.add_subsystem("quiet").add_channel(
      "dangling", ChannelMode::kConservative, std::move(far.a));
  cluster.start_all();
  Subsystem::RunOutcome outcome{};
  {
    NodeExecutor executor(node.subsystems(), 1);
    outcome =
        executor.run(Subsystem::RunConfig{.stall_timeout = 1ms}).at("quiet");
  }
  far.b->send(transport::frame_for(0));
  return outcome;
}

TEST(NodeExecutor, NotifyAfterRunReturnedIsSafeAndRunsLeakNoFds) {
  // A peer may send after the pool that owned the receiver returned: the
  // notify then rings the doorbell the receiver's signal was last routed
  // to, a worker's bell.  That bell must still exist (ASan checks it), and
  // because workers lease bells from a shelf and return them, repeated
  // runs must not grow the process's open fds.
  ASSERT_EQ(run_parked_pool_then_send(), Subsystem::RunOutcome::kStalled);
  const int before = open_fd_count();
  for (int i = 0; i < 200; ++i)
    ASSERT_EQ(run_parked_pool_then_send(), Subsystem::RunOutcome::kStalled);
  if (before < 0) GTEST_SKIP() << "no /proc/self/fd to count";
  EXPECT_EQ(open_fd_count(), before);
}

// --- Deferred rings: one doorbell write per held release -----------------

/// How many rings `bell` holds, read without consuming them through the
/// bell (an eventfd counter; a pipe carries one byte per ring).
std::uint64_t rings_on(const transport::Doorbell& bell) {
#ifdef __linux__
  std::uint64_t count = 0;
  return ::read(bell.fd(), &count, sizeof(count)) == sizeof(count) ? count
                                                                   : 0;
#else
  char sink[64];
  const ssize_t n = ::read(bell.fd(), sink, sizeof(sink));
  return n > 0 ? static_cast<std::uint64_t>(n) : 0;
#endif
}

/// Re-arms `bell` after every frame it forwards, as a waiter woken by that
/// frame's ring would before the sender's next flush.
class RearmingLink final : public transport::Link {
 public:
  RearmingLink(transport::LinkPtr inner, transport::Doorbell& bell)
      : inner_(std::move(inner)), bell_(bell) {}

  void send(BytesView frame, std::uint32_t message_count) override {
    inner_->send(frame, message_count);
    bell_.arm();
  }
  std::optional<Bytes> try_recv() override { return inner_->try_recv(); }
  std::optional<Bytes> recv_for(std::chrono::milliseconds timeout) override {
    return inner_->recv_for(timeout);
  }
  void close() override { inner_->close(); }
  [[nodiscard]] bool closed() const override { return inner_->closed(); }
  [[nodiscard]] transport::LinkStats stats() const override {
    return inner_->stats();
  }
  [[nodiscard]] std::string describe() const override { return "rearming"; }
  void set_ready_signal(transport::ReadySignalPtr signal) override {
    inner_->set_ready_signal(std::move(signal));
  }

 private:
  transport::LinkPtr inner_;
  transport::Doorbell& bell_;
};

std::unique_ptr<ChannelEndpoint> endpoint_over(transport::LinkPtr link,
                                               std::size_t index) {
  auto endpoint = std::make_unique<ChannelEndpoint>(
      "c" + std::to_string(index), ChannelMode::kConservative,
      std::move(link), 1);
  endpoint->index = static_cast<std::uint32_t>(index);
  return endpoint;
}

TEST(DeferredRings, HeldReleaseToThreeChannelsWritesOneArmedBellOnce) {
  // Three receiving sets, like three subsystems of one pool worker, wait on
  // the worker's one bell.  A sender's held release flushes a frame to
  // each.  Rung per flush, the woken worker would re-arm between flushes
  // and take three writes; the release rings the bell once, at its end.
  transport::Doorbell bell;
  ChannelSet sender;
  std::vector<std::unique_ptr<ChannelSet>> receivers;
  for (std::size_t k = 0; k < 3; ++k) {
    auto pair = transport::make_loopback_pair();
    sender.add(endpoint_over(
        std::make_unique<RearmingLink>(std::move(pair.a), bell), k));
    receivers.push_back(std::make_unique<ChannelSet>());
    receivers.back()->add(endpoint_over(std::move(pair.b), 0));
  }
  std::vector<pollfd> fds;
  bell.arm();
  for (auto& receiver : receivers)
    ASSERT_FALSE(receiver->prepare_wait(bell, fds));
  {
    const FlushHold hold(sender);
    for (std::size_t k = 0; k < 3; ++k)
      sender[k].send_message(StatusMsg{.now = {}, .msgs_sent = k});
    pollfd p{bell.fd(), POLLIN, 0};
    EXPECT_EQ(::poll(&p, 1, 0), 0) << "rang before the release";
  }
  EXPECT_EQ(rings_on(bell), 1u);
  for (auto& receiver : receivers) {
    EXPECT_TRUE(receiver->take_signal());
    EXPECT_TRUE((*receiver)[0].poll().has_value());
  }
}

TEST(DeferredRings, HeldReleasesToASleepingWaiterLoseNoWake) {
  // A sender thread runs held releases that flush to 1-4 of four channels
  // while the receiving thread sleeps on one bell, running the full cycle:
  // take, drain the marked channels, arm, route and read the mark, poll,
  // disarm.  The sender waits for each release to be consumed before the
  // next, so a ring lost at a release's end leaves the waiter asleep until
  // its 10 s deadline.
  constexpr std::size_t kChannels = 4;
  constexpr std::uint32_t kReleases = 3000;
  ChannelSet sender;
  ChannelSet receiver;
  for (std::size_t k = 0; k < kChannels; ++k) {
    auto pair = transport::make_loopback_pair();
    sender.add(endpoint_over(std::move(pair.a), k));
    receiver.add(endpoint_over(std::move(pair.b), k));
  }
  std::uint64_t total = 0;
  for (std::uint32_t r = 0; r < kReleases; ++r) total += 1 + r % kChannels;
  std::atomic<std::uint64_t> consumed{0};
  std::thread tx([&] {
    std::uint64_t sent = 0;
    for (std::uint32_t r = 0; r < kReleases; ++r) {
      {
        const FlushHold hold(sender);
        for (std::uint32_t k = 0; k <= r % kChannels; ++k, ++sent)
          sender[(r + k) % kChannels].send_message(
              StatusMsg{.now = {}, .idle = true});
      }
      while (consumed.load(std::memory_order_acquire) < sent)
        std::this_thread::yield();
    }
  });

  transport::Doorbell bell;
  std::vector<pollfd> fds;
  std::uint64_t next = 0;
  for (std::uint32_t round = 0;; ++round) {
    receiver.take_signal();
    receiver.for_each_ready([&](std::uint32_t i) {
      while (receiver[i].poll()) ++next;
    });
    consumed.store(next, std::memory_order_release);
    if (next == total) break;
    if (round % 2 == 1) std::this_thread::yield();
    fds.assign(1, pollfd{.fd = bell.fd(), .events = POLLIN, .revents = 0});
    bell.arm();
    const bool pending = receiver.prepare_wait(bell, fds);
    const auto now = std::chrono::steady_clock::now();
    const int ready = transport::poll_until(fds, pending ? now : now + 10s);
    bell.disarm();
    ASSERT_TRUE(pending || ready == 1)
        << "slept to the deadline with message " << next << " outstanding";
  }
  tx.join();
  EXPECT_EQ(next, total);
}

TEST(SchedulerConfinement, ForeignThreadStepRaisesConsistency) {
  // The executor's safety net: while one thread holds a slice (the
  // ConfinementGuard), step()/inject() from any other thread must fail
  // loudly instead of corrupting the event queue.
  Scheduler sched;
  const Scheduler::ConfinementGuard guard(sched);
  sched.step();  // owner thread: fine

  std::optional<ErrorKind> kind;
  std::thread intruder([&] {
    try {
      sched.step();
    } catch (const Error& e) {
      kind = e.kind();
    }
  });
  intruder.join();
  ASSERT_TRUE(kind.has_value());
  EXPECT_EQ(*kind, ErrorKind::kConsistency);
}

TEST(SchedulerConfinement, GuardsNestAndRelease) {
  Scheduler sched;
  {
    const Scheduler::ConfinementGuard outer(sched);
    {
      const Scheduler::ConfinementGuard inner(sched);  // same thread: fine
      sched.step();
    }
    sched.step();
  }
  // Fully released: another thread may now take a slice.
  std::optional<ErrorKind> kind;
  std::thread successor([&] {
    try {
      const Scheduler::ConfinementGuard guard(sched);
      sched.step();
    } catch (const Error& e) {
      kind = e.kind();
    }
  });
  successor.join();
  EXPECT_FALSE(kind.has_value());
}

}  // namespace
}  // namespace pia::dist
