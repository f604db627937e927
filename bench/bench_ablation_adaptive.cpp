// Ablation: adaptive per-channel renegotiation vs both fixed modes over a
// workload whose synchronization regime changes mid-run.
//
// Phase A (dense one-way stream, t <= ~150k): B streams events into A
// while also running dense local work.  A has nothing scheduled before the
// phase-B requester, so its safe-time promise to B covers the whole phase
// in one grant and B runs stream + local work far ahead of A's
// consumption: a conservative channel pipelines the stream with almost no
// blocking and zero checkpoints, while an optimistic one checkpoints B's
// growing sink state every few dispatches.
//
// Phase B (round-trip request/reply, t > ~150k): A's requests need B's
// relayed replies before A's clock may pass them, so a conservative
// channel degenerates to one safe-time round trip per message (cf.
// bench_ablation_channels); an optimistic one runs ahead and absorbs the
// replies as rollbacks.
//
// No fixed mode wins both phases.  The adaptive controller starts the
// channel conservative, sees the stall-dominated windows once the regime
// shifts, and renegotiates the channel optimistic over a snapshot cut —
// the sink contents stay bit-identical across all three configs; only the
// synchronization cost moves.
//
// Per-phase wall times come from a marker the stream sink stores when the
// last stream event lands (under rollbacks: when it lands for good).  For
// the conservative and adaptive runs the marker is exact — the channel is
// conservative throughout phase A, so nothing of phase B starts earlier.
// The fixed-optimistic run overlaps the regimes by design (speculation
// races into phase B while stragglers still drain); its split is the
// honest wall time at which the stream stabilized.
#include <atomic>
#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "dist/node.hpp"
#include "../tests/helpers.hpp"

using namespace pia;
using namespace pia::bench;
using namespace pia::dist;
using namespace std::chrono_literals;

namespace {

// Phase A: 3000 stream events, t = 10 .. 150'010, alongside 20000 local
// events on B (the state that makes optimistic checkpoints expensive).
constexpr std::uint64_t kStreamCount = 3000;
constexpr std::uint64_t kStreamPeriodT = 50;
constexpr std::uint64_t kLocalCount = 20'000;
constexpr std::uint64_t kLocalPeriodT = 7;
// Phase B: 4000 round trips, t = 150'100 .. 550'100.
constexpr std::uint64_t kReqCount = 4000;
constexpr std::uint64_t kReqPeriodT = 100;
constexpr std::uint64_t kReqStartT = 150'100;

enum class Config { kFixedConservative, kFixedOptimistic, kAdaptive };

const char* label(Config config) {
  switch (config) {
    case Config::kFixedConservative: return "fixed-conservative";
    case Config::kFixedOptimistic: return "fixed-optimistic";
    case Config::kAdaptive: return "adaptive";
  }
  return "?";
}

/// A Sink that records the wall-clock instant the `threshold`-th value
/// lands.  Overwritten if a rollback re-delivers, so the final value is
/// the time the count stabilized.
class MarkedSink : public pia::testing::Sink {
 public:
  MarkedSink(std::string name, std::size_t threshold,
             std::chrono::steady_clock::time_point epoch,
             std::atomic<std::int64_t>& marker_us)
      : Sink(std::move(name)), threshold_(threshold), epoch_(epoch),
        marker_us_(marker_us) {}

  void on_receive(PortIndex port, const Value& value) override {
    Sink::on_receive(port, value);
    if (received.size() == threshold_)
      marker_us_.store(std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - epoch_)
                           .count(),
                       std::memory_order_relaxed);
  }

 private:
  std::size_t threshold_;
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::int64_t>& marker_us_;
};

struct Outcome {
  double phase_a_ms = 0;
  double phase_b_ms = 0;
  double total_ms = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t stalls = 0;
  std::uint64_t flips = 0;
  bool complete = false;
};

Outcome run_config(Config config) {
  NodeCluster cluster;
  Subsystem& a = cluster.add_node("na").add_subsystem("a");
  Subsystem& b = cluster.add_node("nb").add_subsystem("b");
  a.set_checkpoint_interval(16);
  b.set_checkpoint_interval(16);

  const auto epoch = std::chrono::steady_clock::now();
  std::atomic<std::int64_t> stream_done_us{0};

  // A: pure channel endpoints — nothing locally scheduled before the
  // phase-B requester, so A's phase-A promise to B is one big grant.
  auto& stream_sink = a.scheduler().emplace<MarkedSink>(
      "ss", kStreamCount, epoch, stream_done_us);
  auto& requester = a.scheduler().emplace<pia::testing::Producer>(
      "rp", kReqCount, ticks(kReqPeriodT), ticks(kReqStartT));
  auto& reply_sink = a.scheduler().emplace<pia::testing::Sink>("rs");

  // B: the phase-A stream source, the dense local work whose accumulating
  // sink state prices optimistic checkpoints, and the phase-B reply relay.
  auto& stream = b.scheduler().emplace<pia::testing::Producer>(
      "sp", kStreamCount, ticks(kStreamPeriodT));
  auto& local = b.scheduler().emplace<pia::testing::Producer>(
      "lp", kLocalCount, ticks(kLocalPeriodT));
  auto& local_sink = b.scheduler().emplace<pia::testing::Sink>("ls");
  b.scheduler().connect(local.id(), "out", local_sink.id(), "in");
  auto& relay = b.scheduler().emplace<pia::testing::Relay>("rl");

  const NetId stream_a = a.scheduler().make_net("stream");
  a.scheduler().attach(stream_a, stream_sink.id(), "in");
  const NetId req_a = a.scheduler().make_net("req");
  a.scheduler().attach(req_a, requester.id(), "out");
  const NetId back_a = a.scheduler().make_net("back");
  a.scheduler().attach(back_a, reply_sink.id(), "in");
  const NetId stream_b = b.scheduler().make_net("stream");
  b.scheduler().attach(stream_b, stream.id(), "out");
  const NetId req_b = b.scheduler().make_net("req");
  b.scheduler().attach(req_b, relay.id(), "in");
  const NetId back_b = b.scheduler().make_net("back");
  b.scheduler().attach(back_b, relay.id(), "out");

  // Adaptive starts from the phase-A-appropriate mode and must discover
  // the shift; the fixed configs pin that mode for the whole run.
  const ChannelMode initial = config == Config::kFixedOptimistic
                                  ? ChannelMode::kOptimistic
                                  : ChannelMode::kConservative;
  const transport::LatencyModel latency{.base = 50us};
  const ChannelPair ch =
      cluster.connect_checked(a, b, initial, Wire::kLoopback, latency);
  split_net(a, ch.a, stream_a, b, ch.b, stream_b);
  split_net(a, ch.a, req_a, b, ch.b, req_b);
  split_net(a, ch.a, back_a, b, ch.b, back_b);
  // Nothing A sends is provoked by what it receives (the requester is
  // purely time-driven); B's relay reacts within the relay's think time.
  a.set_reaction_lookahead(ch.a, VirtualTime::infinity());
  b.set_reaction_lookahead(ch.b, ticks(5));

  if (config == Config::kAdaptive) {
    sync::AdaptivePolicy policy;
    policy.window_slices = 8;   // short windows: react within a few round trips
    policy.hysteresis = 2;      // but demand two consecutive leaning windows
    policy.min_events = 1;
    policy.cooldown_windows = 4;
    a.set_adaptive_sync(policy);
    b.set_adaptive_sync(policy);
  }

  cluster.start_all();

  Outcome outcome;
  bool ok = true;
  outcome.total_ms =
      timed([&] {
        const auto results = cluster.run_all(
            Subsystem::RunConfig{.stall_timeout = 60'000ms});
        for (const auto& [name, r] : results)
          ok &= (r == Subsystem::RunOutcome::kQuiescent);
      }) *
      1e3;
  outcome.phase_a_ms =
      static_cast<double>(stream_done_us.load(std::memory_order_relaxed)) /
      1e3;
  outcome.phase_b_ms = outcome.total_ms - outcome.phase_a_ms;
  ok &= (stream_sink.received.size() == kStreamCount);
  ok &= (reply_sink.received.size() == kReqCount);
  ok &= (local_sink.received.size() == kLocalCount);
  outcome.complete = ok;
  outcome.rollbacks = a.stats().rollbacks + b.stats().rollbacks;
  outcome.stalls = a.stats().stalls + b.stats().stalls;
  outcome.flips =
      a.stats().mode_changes + b.stats().mode_changes;
  return outcome;
}

}  // namespace

int main() {
  header("Ablation: adaptive renegotiation vs fixed channel modes");
  JsonReport report("adaptive");

  std::printf("\nphase A: %llu-event stream into busy A; "
              "phase B: %llu round trips\n",
              static_cast<unsigned long long>(kStreamCount),
              static_cast<unsigned long long>(kReqCount));
  std::printf("%-20s %12s %12s %12s %10s %8s %6s\n", "config", "phase A [ms]",
              "phase B [ms]", "total [ms]", "rollbacks", "stalls", "flips");

  Outcome results[3];
  const Config configs[3] = {Config::kFixedConservative,
                             Config::kFixedOptimistic, Config::kAdaptive};
  for (int i = 0; i < 3; ++i) {
    results[i] = run_config(configs[i]);
    const Outcome& r = results[i];
    std::printf("%-20s %12.2f %12.2f %12.2f %10llu %8llu %6llu %s\n",
                label(configs[i]), r.phase_a_ms, r.phase_b_ms, r.total_ms,
                static_cast<unsigned long long>(r.rollbacks),
                static_cast<unsigned long long>(r.stalls),
                static_cast<unsigned long long>(r.flips),
                r.complete ? "" : "!! INCOMPLETE");
    std::string prefix = label(configs[i]);
    for (char& c : prefix)
      if (c == '-') c = '_';
    report.metric(prefix + "_phase_a_ms", r.phase_a_ms);
    report.metric(prefix + "_phase_b_ms", r.phase_b_ms);
    report.metric(prefix + "_total_ms", r.total_ms);
    report.metric(prefix + "_rollbacks", r.rollbacks);
    report.metric(prefix + "_flips", r.flips);
    report.metric(prefix + "_complete",
                  static_cast<std::uint64_t>(r.complete ? 1 : 0));
  }

  // Acceptance: adaptive tracks the better fixed mode per phase (within
  // 5%) and beats both end to end.
  const Outcome& cons = results[0];
  const Outcome& opti = results[1];
  const Outcome& adpt = results[2];
  const double best_a = std::min(cons.phase_a_ms, opti.phase_a_ms);
  const double best_b = std::min(cons.phase_b_ms, opti.phase_b_ms);
  const bool a_ok = adpt.phase_a_ms <= best_a * 1.05;
  const bool b_ok = adpt.phase_b_ms <= best_b * 1.05;
  const bool total_ok =
      adpt.total_ms < cons.total_ms && adpt.total_ms < opti.total_ms;
  std::printf("\nadaptive vs best fixed: phase A %.2f/%.2f ms (%s), "
              "phase B %.2f/%.2f ms (%s), total %.2f vs %.2f/%.2f ms (%s)\n",
              adpt.phase_a_ms, best_a, a_ok ? "ok" : "MISS", adpt.phase_b_ms,
              best_b, b_ok ? "ok" : "MISS", adpt.total_ms, cons.total_ms,
              opti.total_ms, total_ok ? "ok" : "MISS");
  report.metric("adaptive_within_5pct_phase_a",
                static_cast<std::uint64_t>(a_ok ? 1 : 0));
  report.metric("adaptive_within_5pct_phase_b",
                static_cast<std::uint64_t>(b_ok ? 1 : 0));
  report.metric("adaptive_best_total",
                static_cast<std::uint64_t>(total_ok ? 1 : 0));

  note("\nthe conservative channel follows the phase-A stream on "
       "piggybacked\ngrants but degenerates to a safe-time round trip per "
       "phase-B message;\nthe optimistic channel absorbs phase B but pays "
       "checkpoints + straggler\nrollbacks against phase A's growing state. "
       " The adaptive controller\nstarts conservative and flips the channel "
       "at the regime shift, so each\nphase runs under the protocol that "
       "suits it.");
  return 0;
}
