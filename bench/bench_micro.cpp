// Microbenchmarks of the kernel primitives (google-benchmark).
//
// These are the constants everything else is built from: event dispatch,
// the event queue under a word-passage burst, serialization, checkpoint
// capture/restore, delta encoding, protocol rendering, the frame codec, how
// late the library's one idle sleep wakes, the readiness doorbell, one pool
// worker's wait round over 100 channel sets, and an empty loopback poll.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.hpp"
#include "core/checkpoint.hpp"
#include "core/event_queue.hpp"
#include "core/protocols.hpp"
#include "core/scheduler.hpp"
#include "dist/channel_set.hpp"
#include "transport/frame.hpp"
#include "transport/link.hpp"
#include "transport/ready.hpp"
#include "../tests/helpers.hpp"
#include "bench_util.hpp"

using namespace pia;

namespace {

void BM_EventDispatch(benchmark::State& state) {
  Scheduler sched("bench");
  auto& producer = sched.emplace<pia::testing::Producer>(
      "p", UINT64_MAX / 2, ticks(1));
  auto& sink = sched.emplace<pia::testing::Sink>("s");
  sched.connect(producer.id(), "out", sink.id(), "in");
  sched.init();
  for (auto _ : state) {
    sched.step();
    if (sink.received.size() > 1'000'000) {
      sink.received.clear();  // keep memory flat
      sink.times.clear();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventDispatch);

// The word-passage shape: one handler schedules a page as N word sends at
// rising stamps, a few events land out of order among them, and the
// scheduler drains the lot.  Items are events pushed and popped.
void BM_EventQueueBurst(benchmark::State& state) {
  constexpr std::uint64_t kOutOfOrder = 8;
  const auto n = static_cast<std::uint64_t>(state.range(0));
  EventQueue queue;
  Event event;
  event.target = ComponentId{1};
  event.port = 0;
  std::uint64_t seq = 0;
  VirtualTime::rep base = 0;
  for (auto _ : state) {
    for (std::uint64_t k = 0; k < n; ++k) {
      event.time = ticks(base + static_cast<VirtualTime::rep>(10 * k));
      event.seq = seq++;
      event.value = Value{k};
      queue.push(event);
    }
    for (std::uint64_t k = 0; k < kOutOfOrder; ++k) {
      event.time = ticks(base + static_cast<VirtualTime::rep>(
                                    10 * n * k / kOutOfOrder + 5));
      event.seq = seq++;
      queue.push(event);
    }
    while (!queue.empty()) benchmark::DoNotOptimize(queue.pop());
    base += static_cast<VirtualTime::rep>(10 * n);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n + kOutOfOrder));
}
BENCHMARK(BM_EventQueueBurst)->Arg(1024)->Arg(16384);

void BM_ValueSerialize(benchmark::State& state) {
  const Value value{Bytes(static_cast<std::size_t>(state.range(0)))};
  for (auto _ : state) {
    serial::OutArchive ar;
    value.save(ar);
    benchmark::DoNotOptimize(ar.bytes().data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ValueSerialize)->Arg(64)->Arg(1024)->Arg(65536);

void BM_CheckpointRequest(benchmark::State& state) {
  Scheduler sched("bench");
  for (int i = 0; i < state.range(0); ++i)
    sched.emplace<pia::testing::Sink>("s" + std::to_string(i));
  CheckpointManager mgr(sched);
  sched.init();
  for (auto _ : state) {
    const SnapshotId snap = mgr.request();
    benchmark::DoNotOptimize(snap);
    mgr.discard_all();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CheckpointRequest)->Arg(4)->Arg(32)->Arg(128);

void BM_DeltaEncode(benchmark::State& state) {
  Rng rng(1);
  Bytes base(static_cast<std::size_t>(state.range(0)));
  for (auto& b : base) b = static_cast<std::byte>(rng.below(256));
  Bytes target = base;
  for (std::size_t i = 0; i < target.size(); i += 97)
    target[i] = static_cast<std::byte>(rng.below(256));
  for (auto _ : state) {
    Bytes d = delta::encode(base, target);
    benchmark::DoNotOptimize(d.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DeltaEncode)->Arg(1024)->Arg(65536);

void BM_ProtocolEncode(benchmark::State& state) {
  TransferEncoder encoder;
  const Bytes payload(1024);
  const RunLevel& level = state.range(0) == 0   ? runlevels::kTransaction
                          : state.range(0) == 1 ? runlevels::kPacket
                          : state.range(0) == 2 ? runlevels::kWord
                                                : runlevels::kHardware;
  for (auto _ : state) {
    auto emissions = encoder.encode(payload, level);
    benchmark::DoNotOptimize(emissions.data());
  }
  state.SetLabel(level.name);
}
BENCHMARK(BM_ProtocolEncode)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_FrameCodec(benchmark::State& state) {
  const Bytes payload(static_cast<std::size_t>(state.range(0)));
  transport::FrameDecoder decoder;
  for (auto _ : state) {
    const Bytes frame = transport::encode_frame(payload);
    decoder.feed(frame);
    auto out = decoder.next();
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FrameCodec)->Arg(64)->Arg(4096);

// How late poll_until wakes after a 100 µs deadline: the modelled WAN hop
// of Table 1's remote rows.  Every decorator release wait ends this way.
void BM_PollUntilOversleep(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  std::vector<double> late_us;
  late_us.reserve(1 << 16);
  for (auto _ : state) {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::microseconds(100);
    benchmark::DoNotOptimize(transport::poll_until({}, deadline));
    late_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - deadline)
            .count());
  }
  if (late_us.empty()) return;
  std::sort(late_us.begin(), late_us.end());
  const auto at = [&](double q) {
    return late_us[static_cast<std::size_t>(
        q * static_cast<double>(late_us.size() - 1))];
  };
  state.counters["oversleep_p50_us"] = at(0.50);
  state.counters["oversleep_p99_us"] = at(0.99);
}
BENCHMARK(BM_PollUntilOversleep)->UseRealTime();

// The doorbell a sender pays per frame on an in-process link.  Arg 0: no
// waiter is armed (the common case: an atomic store and two loads, no
// syscall).
// Arg 1: a waiter arms before every notify, so each one rings the fd and
// the waiter's disarm reads it back (two syscalls per item).
void BM_ReadySignalNotify(benchmark::State& state) {
  transport::ReadySignal signal;
  const bool armed = state.range(0) != 0;
  for (auto _ : state) {
    if (armed) signal.bell().arm();
    signal.notify();
    if (armed) signal.bell().disarm();
    benchmark::DoNotOptimize(signal.take());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReadySignalNotify)->Arg(0)->Arg(1);

// One idle wait round of a pool worker that owns 100 subsystems of one
// quiet loopback channel each: arm the worker's doorbell, route and read
// every set (ChannelSet::prepare_wait), poll the one fd with a zero budget,
// disarm, then the next pass's 100 take_signal checks.  The worker pays
// this per wait whatever its subsystem count; no fd per subsystem is armed,
// polled or read.
void BM_PoolWaitRound(benchmark::State& state) {
  constexpr int kSets = 100;
  std::vector<std::unique_ptr<dist::ChannelSet>> sets;
  std::vector<transport::LinkPtr> far;
  for (int i = 0; i < kSets; ++i) {
    transport::LinkPair pair = transport::make_loopback_pair();
    sets.push_back(std::make_unique<dist::ChannelSet>());
    sets.back()->add(std::make_unique<dist::ChannelEndpoint>(
        "c" + std::to_string(i), dist::ChannelMode::kConservative,
        std::move(pair.a), 1));
    far.push_back(std::move(pair.b));
  }
  const transport::DoorbellLease bell;
  std::vector<pollfd> fds;
  for (auto _ : state) {
    fds.assign(1, pollfd{.fd = bell->fd(), .events = POLLIN, .revents = 0});
    bell->arm();
    bool pending = false;
    for (auto& set : sets) pending |= set->prepare_wait(*bell, fds);
    benchmark::DoNotOptimize(pending);
    benchmark::DoNotOptimize(
        transport::poll_until(fds, std::chrono::steady_clock::now()));
    bell->disarm();
    for (auto& set : sets) benchmark::DoNotOptimize(set->take_signal());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolWaitRound);

// What a slice's drain pays per quiet in-process channel: an empty borrowed
// receive plus the closed() check that follows it.
void BM_LoopbackEmptyPoll(benchmark::State& state) {
  transport::LinkPair pair = transport::make_loopback_pair();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pair.b->try_recv_view());
    benchmark::DoNotOptimize(pair.b->closed());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LoopbackEmptyPoll);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // The stamps every other BENCH record carries; google-benchmark's own
  // "library_build_type" describes the benchmark library, not this build.
  benchmark::AddCustomContext("host_build_type", PIA_BENCH_BUILD_TYPE);
  benchmark::AddCustomContext("host_git_sha", bench::host_git_sha());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
