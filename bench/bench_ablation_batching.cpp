// Ablation: batched channel frames vs one frame per message.
//
// Word-level co-simulation exchanges thousands of tiny messages (the reason
// tcp.cpp disables Nagle); protocol v2 lets a subsystem pack every message a
// scheduler slice emits into one batch frame.  This bench runs the same
// word-level producer -> relay -> sink pipeline with batching disabled
// (batch limit 1, the pre-v2 wire behaviour) and enabled (the default limit
// of 64) and reports the frame counts from LinkStats — the syscall-per-
// message cost the batch frame removes.
//
// It also counts the serialize side's heap allocations: a global
// operator-new counter around a warmed-up ChannelEndpoint batch burst shows
// the FrameArena path at O(1) — in steady state zero — allocations per
// batch, where a per-message scratch buffer would pay one per message plus
// a frame assembly copy.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>

#include "bench_util.hpp"
#include "dist/channel.hpp"
#include "dist/node.hpp"
#include "../tests/helpers.hpp"

using namespace pia;
using namespace pia::bench;
using namespace pia::dist;
using namespace std::chrono_literals;

// --- operator-new counter ---------------------------------------------------

// GCC's inliner pairs the replaced operator new with the std::free inside
// the replaced operator delete and warns about the mismatch; that pairing
// is exactly what a counting allocator does.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

/// Heap allocations per 64-message batch once the arena is warm.
double allocs_per_batch(std::uint64_t batches) {
  transport::LinkPair pair = transport::make_loopback_pair();
  ChannelEndpoint sender("bench", ChannelMode::kOptimistic,
                         std::move(pair.a), 1);
  const auto burst = [&] {
    sender.hold_flush();
    for (std::uint64_t i = 0; i < 64; ++i)
      sender.send_message(SafeTimeGrant{.request_id = i + 1,
                                        .safe_time = ticks(10),
                                        .events_seen = i,
                                        .lookahead = ticks(0)});
    sender.release_flush();
    while (pair.b->try_recv()) {
    }
  };
  for (int i = 0; i < 16; ++i) burst();  // warm the arena + receive queue

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < batches; ++i) burst();
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  return static_cast<double>(after - before) / static_cast<double>(batches);
}

struct Outcome {
  double ms = 0;
  std::uint64_t messages = 0;  // protocol messages sent (both directions)
  std::uint64_t frames = 0;    // link frames those messages travelled in
  bool complete = false;
};

Outcome run_case(Wire wire, std::uint32_t batch_limit, std::uint64_t count) {
  NodeCluster cluster;
  Subsystem& a = cluster.add_node("na").add_subsystem("a");
  Subsystem& b = cluster.add_node("nb").add_subsystem("b");
  a.set_checkpoint_interval(64);
  b.set_checkpoint_interval(64);
  a.set_channel_batch_limit(batch_limit);
  b.set_channel_batch_limit(batch_limit);

  auto& producer =
      a.scheduler().emplace<pia::testing::Producer>("p", count, ticks(20));
  auto& sink = a.scheduler().emplace<pia::testing::Sink>("s");
  auto& relay = b.scheduler().emplace<pia::testing::Relay>("r");

  const NetId fwd_a = a.scheduler().make_net("fwd");
  a.scheduler().attach(fwd_a, producer.id(), "out");
  const NetId back_a = a.scheduler().make_net("back");
  a.scheduler().attach(back_a, sink.id(), "in");
  const NetId fwd_b = b.scheduler().make_net("fwd");
  b.scheduler().attach(fwd_b, relay.id(), "in");
  const NetId back_b = b.scheduler().make_net("back");
  b.scheduler().attach(back_b, relay.id(), "out");

  const ChannelPair ch =
      cluster.connect_checked(a, b, ChannelMode::kOptimistic, wire);
  split_net(a, ch.a, fwd_a, b, ch.b, fwd_b);
  split_net(a, ch.a, back_a, b, ch.b, back_b);
  cluster.start_all();

  Outcome outcome;
  outcome.ms = timed([&] {
                 const auto results = cluster.run_all(
                     Subsystem::RunConfig{.stall_timeout = 30'000ms});
                 outcome.complete = true;
                 for (const auto& [n, r] : results)
                   outcome.complete &=
                       (r == Subsystem::RunOutcome::kQuiescent);
               }) *
               1e3;
  outcome.complete &= (sink.received.size() == count);
  const transport::LinkStats side_a = a.channel(ch.a).link().stats();
  const transport::LinkStats side_b = b.channel(ch.b).link().stats();
  outcome.messages = side_a.messages_sent + side_b.messages_sent;
  outcome.frames = side_a.frames_sent + side_b.frames_sent;
  return outcome;
}

}  // namespace

int main() {
  header("Ablation: batched channel frames (protocol v2) vs frame-per-message");
  JsonReport report("ablation_batching");

  const std::uint64_t kCount = 800;
  std::printf("\n%llu word messages A -> relay on B -> back to A "
              "(optimistic channels):\n",
              static_cast<unsigned long long>(kCount));
  std::printf("%-10s %8s %12s %12s %12s %12s\n", "wire", "batch", "time [ms]",
              "messages", "frames", "msgs/frame");
  for (const auto [wire, wire_name] :
       {std::pair{Wire::kLoopback, "loopback"}, std::pair{Wire::kTcp, "tcp"}}) {
    std::uint64_t frames_unbatched = 0;
    for (const std::uint32_t batch : {1u, 64u}) {
      const Outcome outcome = run_case(wire, batch, kCount);
      const double per_frame =
          outcome.frames == 0
              ? 0.0
              : static_cast<double>(outcome.messages) /
                    static_cast<double>(outcome.frames);
      std::printf("%-10s %8u %12.2f %12llu %12llu %12.1f %s\n", wire_name,
                  batch, outcome.ms,
                  static_cast<unsigned long long>(outcome.messages),
                  static_cast<unsigned long long>(outcome.frames), per_frame,
                  outcome.complete ? "" : "!! INCOMPLETE");
      const std::string prefix =
          std::string(wire_name) + "_batch" + std::to_string(batch) + "_";
      report.metric(prefix + "ms", outcome.ms);
      report.metric(prefix + "messages", outcome.messages);
      report.metric(prefix + "frames", outcome.frames);
      if (batch == 1)
        frames_unbatched = outcome.frames;
      else if (outcome.frames > 0) {
        const double reduction = static_cast<double>(frames_unbatched) /
                                 static_cast<double>(outcome.frames);
        std::printf("%-10s %8s %12s frame reduction: %.1fx\n", wire_name, "",
                    "", reduction);
        report.metric(std::string(wire_name) + "_frame_reduction", reduction);
      }
    }
  }

  // Serialize-side allocations per 64-message batch, arena warm.
  const double per_batch = allocs_per_batch(1000);
  std::printf("\nserialize side, warm arena: %.3f heap allocations per "
              "64-message batch\n",
              per_batch);
  report.metric("arena_allocs_per_batch", per_batch);

  note("\nwith batching disabled every protocol message pays its own frame\n"
       "(and, over TCP, its own send syscall); the v2 batch frame packs a\n"
       "whole optimistic run-ahead slice into one transmission, and the\n"
       "arena keeps that batch in one recycled buffer, so a steady-state\n"
       "batch allocates nothing.");
  return 0;
}
