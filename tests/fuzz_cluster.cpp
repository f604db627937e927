// Randomized cluster fuzzer with a single-host equivalence oracle.
//
// Pia's core guarantee (paper, DAC '98) is that distributing a simulation
// across nodes never changes simulated behaviour.  This fuzzer turns that
// guarantee into a continuously checked property: each seed deterministically
// generates a pipeline topology (stage count, placement across 2..4
// subsystems, optional loop-back result net), a workload (event count,
// period, per-relay think times and runlevels), per-subsystem checkpoint
// intervals, a transport (loopback or TCP, optional latency) and a
// FaultPlan — then runs it under conservative, optimistic and (when the
// topology allows) mixed channel modes, each with and without the faults,
// and requires EXACT equivalence (values and virtual times) against the
// single-host kernel reference.
//
// Usage:
//   fuzz_cluster                 # checked-in deterministic seed list (CI)
//   fuzz_cluster --seed=42       # reproduce one seed, verbosely
//   fuzz_cluster --seeds=1,7,13  # explicit list
//   fuzz_cluster --runs=50 --start-seed=1000   # a range (nightly CI)
//   fuzz_cluster --recovery [...]  # crash-recovery arm: kill one endpoint
//                                  # mid-run, restart from durable snapshots
//   fuzz_cluster --adaptive [...]  # arm runtime mode renegotiation: an
//                                  # aggressive cost watcher everywhere plus
//                                  # one seed-derived forced flip
//   fuzz_cluster --wubbleu [...]   # the paper's WubbleU split across a
//                                  # channel: browse sessions vs build_local
//
// The --recovery arm checks the crash-recovery guarantee instead: each seed
// additionally derives a crash point (channel, frame budget, endpoint) and
// a snapshot cadence, fells that endpoint mid-run, restarts the cluster
// from the newest common on-disk snapshot (falling back to older cuts, then
// a cold start) and requires the final result to STILL match the
// uninterrupted single-host oracle bit-exactly.
//
// --adaptive composes with the plain, --recovery, --threads and --replicas
// arms: channels renegotiate conservative<->optimistic mid-run
// over snapshot cuts, and the result must STILL be bit-exact — protocol
// choice may move cost, never events.  Under --recovery the forced flip is
// re-requested on the restarted cluster, so it has to defer through the
// rejoin handshake; under --replicas only plain subsystems arm (proposals
// into a ReplicaSet are refused "unsupported" and pin the channel fixed).
//
// The --wubbleu arm checks the paper's own system: each seed draws a browse
// session (stroke period, page count, URL, page size, downlink runlevel and
// whether the channel lookaheads are declared) and requires
// build_distributed over loopback and over TCP to record exactly the page
// loads build_local records.  Its Ui, HandheldCpu and CellularAsic declare
// output horizons, so this is the oracle for the grants built from them;
// short stroke periods type the next URL ahead of the network.
//
// Any failure prints the seed and the exact repro command, and exits 1.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "base/error.hpp"

#include "base/rng.hpp"
#include "dist_helpers.hpp"
#include "wubbleu/scaleout.hpp"
#include "wubbleu/system.hpp"

namespace pia::dist {
namespace {

using namespace std::chrono_literals;
using testing::FuzzCluster;
using testing::PipelineResult;
using testing::PipelineSpec;
using testing::run_single_host_pipeline;

const RunLevel kLevels[] = {runlevels::kTransaction, runlevels::kPacket,
                           runlevels::kWord, runlevels::kHardware};
const std::uint64_t kCheckpointIntervals[] = {1, 2, 4, 8, 16, 64};

struct FuzzCase {
  PipelineSpec spec;
  Wire wire = Wire::kLoopback;
  transport::LatencyModel latency;
  transport::FaultPlan fault;
  std::vector<std::uint64_t> checkpoint_intervals;
};

FuzzCase generate(std::uint64_t seed) {
  Rng rng(seed);
  FuzzCase c;

  // Workload.
  const std::size_t relays = 1 + rng.below(4);
  c.spec.count = 4 + rng.below(20);
  c.spec.period = ticks(static_cast<VirtualTime::rep>(2 + rng.below(12)));
  c.spec.start = ticks(static_cast<VirtualTime::rep>(1 + rng.below(10)));
  for (std::size_t i = 0; i < relays; ++i)
    c.spec.relays.push_back(
        {.think_ticks = 1 + rng.below(6), .level = kLevels[rng.below(4)]});

  // Placement: cut the relay chain into 2..min(4, stages) non-empty
  // contiguous groups (each subsystem hosts at least one stage).
  const std::size_t stages = relays + 1;
  const std::size_t hosts =
      2 + rng.below(std::min<std::uint64_t>(3, stages - 1));
  std::vector<bool> cut(stages, false);  // cut[i]: host boundary before i
  std::size_t cuts_placed = 0;
  while (cuts_placed < hosts - 1) {
    const std::size_t at = 1 + rng.below(stages - 1);
    if (!cut[at]) {
      cut[at] = true;
      ++cuts_placed;
    }
  }
  std::size_t host = 0;
  for (std::size_t s = 0; s < stages; ++s) {
    if (cut[s]) ++host;
    c.spec.stage_host.push_back(host);
  }
  // 1-in-3 pipelines route the result net all the way back to subsystem 0,
  // hopping every channel (multi-hop SplitLoop).
  c.spec.sink_host = rng.chance(0.35) ? 0 : hosts - 1;

  for (std::size_t g = 0; g < hosts; ++g)
    c.checkpoint_intervals.push_back(kCheckpointIntervals[rng.below(6)]);

  // Transport.
  c.wire = rng.chance(0.25) ? Wire::kTcp : Wire::kLoopback;
  if (rng.chance(0.3))
    c.latency.base = std::chrono::microseconds(50 + rng.below(300));
  // Channel batching: distribution must be bit-equivalent at any batch
  // size, including fully disabled.
  const std::uint32_t kBatchLimits[] = {1, 8, 64};
  c.spec.batch_limit = kBatchLimits[rng.below(3)];

  // Fault plan (applied only in the "faulty" arm of each run).
  switch (rng.below(5)) {
    case 0:
      c.fault = transport::FaultPlan::jitter(
          seed, std::chrono::microseconds(100 + rng.below(600)));
      break;
    case 1:
      c.fault = transport::FaultPlan::duplication(
          seed, 0.1 + 0.5 * rng.uniform());
      break;
    case 2:
      c.fault = transport::FaultPlan::drops(
          seed, 0.05 + 0.3 * rng.uniform(),
          std::chrono::microseconds(500 + rng.below(2000)));
      break;
    case 3:
      c.fault = transport::FaultPlan::partition(
          seed, std::chrono::milliseconds(5 + rng.below(30)),
          std::chrono::milliseconds(10 + rng.below(60)));
      break;
    case 4:
      c.fault = transport::FaultPlan::chaos(seed);
      break;
  }
  return c;
}

std::vector<ChannelMode> uniform_modes(std::size_t channels,
                                       ChannelMode mode) {
  return std::vector<ChannelMode>(channels, mode);
}

std::string describe_modes(const std::vector<ChannelMode>& modes) {
  std::string out;
  for (const ChannelMode m : modes)
    out += (m == ChannelMode::kConservative ? 'C' : 'O');
  return out;
}

std::string describe_case(const FuzzCase& c) {
  std::ostringstream os;
  os << "stages=" << c.spec.stage_host.size() << " hosts="
     << c.spec.subsystem_count() << " count=" << c.spec.count
     << " period=" << c.spec.period.str() << " sink_host=" << c.spec.sink_host
     << " wire="
     << (c.wire == Wire::kTcp ? "tcp" : "loopback")
     << " latency_us=" << c.latency.base.count()
     << " batch=" << c.spec.batch_limit << " placement=";
  for (const std::size_t h : c.spec.stage_host) os << h;
  return os.str();
}

std::string dump(const PipelineResult& result) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < result.received.size(); ++i) {
    if (i) os << " ";
    os << result.received[i] << "@" << result.times[i].str();
  }
  os << "]";
  return os.str();
}

// At clean quiescence every EventMsg sent by some subsystem was received by
// its peer (events only: grants, statuses and retracts are not conserved
// this way, and faults affect wall-clock timing, never delivery).
bool events_conserved(const std::vector<Subsystem*>& subsystems,
                      std::uint64_t* sent, std::uint64_t* received) {
  *sent = 0;
  *received = 0;
  for (const Subsystem* s : subsystems) {
    *sent += s->stats().events_sent;
    *received += s->stats().events_received;
  }
  return *sent == *received;
}

bool run_one_config(std::uint64_t seed, const FuzzCase& c,
                    const std::vector<ChannelMode>& modes, bool with_faults,
                    const PipelineResult& reference, bool verbose,
                    std::size_t threads, bool adaptive) {
  const transport::FaultPlan plan =
      with_faults ? c.fault : transport::FaultPlan::none();
  FuzzCluster dut(c.spec, modes, c.wire, c.latency, plan,
                  c.checkpoint_intervals, std::nullopt, threads);
  if (adaptive) dut.arm_adaptive(seed);
  std::map<std::string, Subsystem::RunOutcome> outcomes;
  const PipelineResult result = dut.run(20'000ms, &outcomes);

  bool ok = result == reference;
  for (const auto& [name, outcome] : outcomes)
    ok &= (outcome == Subsystem::RunOutcome::kQuiescent);

  std::uint64_t total_sent = 0;
  std::uint64_t total_received = 0;
  if (ok && !events_conserved(dut.subsystems, &total_sent, &total_received)) {
    std::printf(
        "FAIL seed=%llu: event conservation at quiescence: sent=%llu "
        "received=%llu\n",
        static_cast<unsigned long long>(seed),
        static_cast<unsigned long long>(total_sent),
        static_cast<unsigned long long>(total_received));
    ok = false;
  }

  if (ok) {
    if (verbose) {
      std::uint64_t flips = 0;
      for (const Subsystem* s : dut.subsystems)
        flips += s->stats().mode_changes;
      std::printf(
          "  modes=%s faults=%d threads=%zu ... ok (%zu events, %llu "
          "flips)\n",
          describe_modes(modes).c_str(), with_faults ? 1 : 0, threads,
          result.received.size(), static_cast<unsigned long long>(flips));
    }
    return true;
  }

  std::printf("FAIL seed=%llu modes=%s faults=%d threads=%zu adaptive=%d\n",
              static_cast<unsigned long long>(seed),
              describe_modes(modes).c_str(), with_faults ? 1 : 0, threads,
              adaptive ? 1 : 0);
  std::printf("  case: %s\n", describe_case(c).c_str());
  for (const auto& [name, outcome] : outcomes)
    if (outcome != Subsystem::RunOutcome::kQuiescent)
      std::printf("  outcome[%s] = %s\n", name.c_str(),
                  outcome == Subsystem::RunOutcome::kStalled ? "STALLED"
                  : outcome == Subsystem::RunOutcome::kDisconnected
                      ? "DISCONNECTED"
                  : outcome == Subsystem::RunOutcome::kPeerDown
                      ? "PEER_DOWN"
                      : "HORIZON");
  std::printf("  expected %s\n  got      %s\n",
              dump(reference).c_str(), dump(result).c_str());
  std::printf("  reproduce: fuzz_cluster --seed=%llu%s%s\n",
              static_cast<unsigned long long>(seed),
              threads > 0
                  ? (" --threads=" + std::to_string(threads)).c_str()
                  : "",
              adaptive ? " --adaptive" : "");
  return false;
}

// ---------------------------------------------------------------------------
// Crash-recovery arm
// ---------------------------------------------------------------------------

bool run_recovery_config(std::uint64_t seed, const FuzzCase& c,
                         const std::vector<ChannelMode>& modes,
                         const PipelineResult& reference, bool verbose,
                         std::size_t threads, bool adaptive) {
  // The crash point and snapshot cadence derive from the seed too, so every
  // failure reproduces from `--recovery --seed=S` alone.
  Rng crash_rng(seed ^ 0xC4A5ED1AD15EA5EDULL);
  const std::size_t channels = c.spec.subsystem_count() - 1;
  const FuzzCluster::CrashSpec crash{
      .channel = static_cast<std::size_t>(crash_rng.below(channels)),
      .frames = 15 + crash_rng.below(50),
      .endpoint = 1 + crash_rng.below(2)};
  testing::RecoveryOptions options;
  // The store root includes the worker-thread count: the --threads ctest
  // arms run the same seeds as the single-threaded arm, and under a
  // parallel ctest both would otherwise remove_all/commit into the same
  // directory at once.
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() /
      ("pia_fuzz_recovery_" + std::to_string(seed) + "_" +
       describe_modes(modes) + "_t" + std::to_string(threads) +
       (adaptive ? "_adpt" : ""));
  std::filesystem::remove_all(root);
  options.store_root = root.string();
  options.auto_snapshot_every = 4 + crash_rng.below(12);
  options.heartbeat_interval = std::chrono::milliseconds(10);
  options.heartbeat_timeout = std::chrono::milliseconds(800);
  options.adaptive = adaptive;
  options.adaptive_seed = seed;

  try {
    const testing::RecoveryReport report = testing::run_with_crash_and_recover(
        c.spec, modes, c.wire, c.latency, transport::FaultPlan::none(),
        c.checkpoint_intervals, crash, options, 20'000ms, threads);
    if (report.result == reference) {
      std::filesystem::remove_all(root);
      if (verbose)
        std::printf(
            "  modes=%s crash(ch=%zu frames=%llu ep=%llu) ... ok "
            "(crashed=%d disk=%d attempts=%zu)\n",
            describe_modes(modes).c_str(), crash.channel,
            static_cast<unsigned long long>(crash.frames),
            static_cast<unsigned long long>(crash.endpoint),
            report.crash_triggered ? 1 : 0, report.restored_from_disk ? 1 : 0,
            report.restart_attempts);
      return true;
    }
    std::printf("FAIL seed=%llu modes=%s (recovery mismatch)\n",
                static_cast<unsigned long long>(seed),
                describe_modes(modes).c_str());
    std::printf("  expected %s\n  got      %s\n", dump(reference).c_str(),
                dump(report.result).c_str());
  } catch (const std::exception& e) {
    std::printf("FAIL seed=%llu modes=%s (recovery threw)\n  %s\n",
                static_cast<unsigned long long>(seed),
                describe_modes(modes).c_str(), e.what());
  }
  std::printf("  case: %s\n", describe_case(c).c_str());
  std::printf("  stores left in %s\n", root.string().c_str());
  std::printf("  reproduce: fuzz_cluster --recovery --seed=%llu%s\n",
              static_cast<unsigned long long>(seed),
              adaptive ? " --adaptive" : "");
  return false;
}

bool run_recovery_seed(std::uint64_t seed, bool verbose, std::size_t threads,
                       bool adaptive) {
  const FuzzCase c = generate(seed);
  if (verbose)
    std::printf("seed=%llu %s (recovery, threads=%zu)\n",
                static_cast<unsigned long long>(seed),
                describe_case(c).c_str(), threads);
  const PipelineResult reference = run_single_host_pipeline(c.spec);

  const std::size_t channels = c.spec.subsystem_count() - 1;
  std::vector<std::vector<ChannelMode>> mode_sets = {
      uniform_modes(channels, ChannelMode::kConservative),
      uniform_modes(channels, ChannelMode::kOptimistic),
  };
  if (channels >= 2) {
    std::vector<ChannelMode> mixed;
    for (std::size_t i = 0; i < channels; ++i)
      mixed.push_back((i + seed) % 2 == 0 ? ChannelMode::kConservative
                                          : ChannelMode::kOptimistic);
    mode_sets.push_back(std::move(mixed));
  }

  bool ok = true;
  for (const auto& modes : mode_sets)
    ok &= run_recovery_config(seed, c, modes, reference, verbose, threads,
                              adaptive);
  return ok;
}

// ---------------------------------------------------------------------------
// Scale-out arm
// ---------------------------------------------------------------------------
//
// Each seed derives a small shard farm (2..16 handhelds, 1..4 shards,
// random station fan-in, catalog shape and Zipf exponent) and requires the
// distributed cluster to match the single-host oracle bit-exactly under
// conservative, optimistic and mixed channel modes, in both the aggregated
// (station fan-in) and per-client channel layouts.

wubbleu::ScaleoutSpec generate_scaleout(std::uint64_t seed) {
  Rng rng(seed ^ 0x5CA1E0C7FA23B00CULL);
  wubbleu::ScaleoutSpec spec;
  spec.seed = seed;
  spec.clients = 2 + rng.below(15);
  spec.shards = 1 + static_cast<std::uint32_t>(rng.below(4));
  spec.clients_per_station = 1 + static_cast<std::size_t>(rng.below(6));
  spec.requests_per_client = 1 + rng.below(4);
  spec.catalog.pages = 8 + static_cast<std::uint32_t>(rng.below(56));
  spec.catalog.page_bytes =
      256 + static_cast<std::uint32_t>(rng.below(1792));
  spec.zipf_exponent = 0.7 + 0.7 * rng.uniform();
  const std::uint32_t kBatchLimits[] = {1, 8, 64};
  spec.batch_limit = kBatchLimits[rng.below(3)];
  return spec;
}

std::string describe_scaleout(const wubbleu::ScaleoutSpec& spec) {
  std::ostringstream os;
  os << "clients=" << spec.clients << " shards=" << spec.shards
     << " cps=" << spec.clients_per_station
     << " reqs=" << spec.requests_per_client
     << " pages=" << spec.catalog.pages << " zipf=" << spec.zipf_exponent
     << " batch=" << spec.batch_limit;
  return os.str();
}

// Runs one scale-out configuration and prints what diverged (or, verbose,
// that it passed).  Lets whatever the cluster throws escape.
bool check_scaleout_config(std::uint64_t seed,
                           const wubbleu::ScaleoutSpec& spec,
                           const wubbleu::ScaleoutResult& reference,
                           bool verbose) {
  wubbleu::ScaleoutCluster dut(spec);
  const auto outcomes = dut.run();
  bool ok = true;
  for (const auto& [name, outcome] : outcomes) {
    if (outcome == Subsystem::RunOutcome::kQuiescent) continue;
    std::printf("FAIL seed=%llu (scaleout): outcome[%s] != quiescent\n",
                static_cast<unsigned long long>(seed), name.c_str());
    ok = false;
  }
  const wubbleu::ScaleoutResult result = dut.result();
  if (!(result == reference)) {
    std::printf(
        "FAIL seed=%llu (scaleout) modes=%s agg=%d threads=%zu: "
        "fetch log diverges from single-host oracle\n",
        static_cast<unsigned long long>(seed),
        describe_modes(spec.mode_cycle).c_str(), spec.aggregated ? 1 : 0,
        spec.worker_threads);
    for (std::size_t c = 0; c < reference.fetches.size(); ++c) {
      const auto& want = reference.fetches[c];
      const auto& got = result.fetches[c];
      if (want == got) continue;
      std::printf("  client %zu: %zu fetches expected, %zu got\n", c,
                  want.size(), got.size());
      for (std::size_t k = 0; k < std::max(want.size(), got.size()); ++k) {
        const auto dump = [](const wubbleu::Fetch& f) {
          return "page=" + std::to_string(f.page) + " issued=" +
                 f.issued.str() + " completed=" + f.completed.str() +
                 " bytes=" + std::to_string(f.body_bytes) + " hash=" +
                 std::to_string(f.body_hash) + " status=" +
                 std::to_string(f.status);
        };
        const std::string w =
            k < want.size() ? dump(want[k]) : std::string("<none>");
        const std::string g =
            k < got.size() ? dump(got[k]) : std::string("<none>");
        if (w != g)
          std::printf("    [%zu] expected %s\n         got      %s\n", k,
                      w.c_str(), g.c_str());
      }
    }
    for (dist::Subsystem* sub : dut.cluster().all_subsystems()) {
      const SubsystemStats& os = sub->stats();
      std::printf("  sub %-12s rollbacks=%llu retracts tx/rx=%llu/%llu\n",
                  sub->name().c_str(),
                  static_cast<unsigned long long>(os.rollbacks),
                  static_cast<unsigned long long>(os.retracts_sent),
                  static_cast<unsigned long long>(os.retracts_received));
      for (std::size_t ch = 0; ch < sub->channel_count(); ++ch) {
        const dist::ChannelEndpoint& e =
            sub->channel(ChannelId(static_cast<std::uint32_t>(ch)));
        std::size_t unconfirmed = 0;
        for (std::size_t k = e.replay_cursor; k < e.output_log.size(); ++k)
          if (!e.output_log[k].retracted) ++unconfirmed;
        std::size_t in_tomb = 0;
        for (const auto& r : e.input_log)
          if (r.retracted) ++in_tomb;
        std::printf(
            "    ch %-24s msgs tx/rx=%llu/%llu out=%zu(cursor=%zu "
            "unconf=%zu) in=%zu(tomb=%zu)\n",
            e.name().c_str(),
            static_cast<unsigned long long>(e.event_msgs_sent),
            static_cast<unsigned long long>(e.event_msgs_received),
            e.output_log.size(), e.replay_cursor, unconfirmed,
            e.input_log.size(), in_tomb);
      }
    }
    ok = false;
  }
  const SubsystemStats total = dut.total_stats();
  if (ok && total.events_sent != total.events_received) {
    std::printf(
        "FAIL seed=%llu (scaleout): event conservation at quiescence: "
        "sent=%llu received=%llu\n",
        static_cast<unsigned long long>(seed),
        static_cast<unsigned long long>(total.events_sent),
        static_cast<unsigned long long>(total.events_received));
    ok = false;
  }
  if (ok && verbose)
    std::printf("  modes=%s agg=%d threads=%zu ... ok (%llu fetches)\n",
                describe_modes(spec.mode_cycle).c_str(),
                spec.aggregated ? 1 : 0, spec.worker_threads,
                static_cast<unsigned long long>(result.total_fetches()));
  return ok;
}

bool run_scaleout_config(std::uint64_t seed, wubbleu::ScaleoutSpec spec,
                         const std::vector<ChannelMode>& cycle,
                         std::size_t phase, bool aggregated,
                         const wubbleu::ScaleoutResult& reference,
                         bool verbose, std::size_t threads) {
  spec.mode_cycle = cycle;
  spec.mode_phase = phase;
  spec.aggregated = aggregated;
  spec.worker_threads = threads;
  bool ok = false;
  try {
    ok = check_scaleout_config(seed, spec, reference, verbose);
  } catch (const std::exception& e) {
    std::printf("FAIL seed=%llu (scaleout) modes=%s agg=%d threads=%zu: "
                "threw\n  %s\n",
                static_cast<unsigned long long>(seed),
                describe_modes(cycle).c_str(), aggregated ? 1 : 0, threads,
                e.what());
  }
  if (!ok) {
    std::printf("  case: %s\n", describe_scaleout(spec).c_str());
    std::printf("  reproduce: fuzz_cluster --scaleout --seed=%llu%s\n",
                static_cast<unsigned long long>(seed),
                threads > 0
                    ? (" --threads=" + std::to_string(threads)).c_str()
                    : "");
  }
  return ok;
}

bool run_scaleout_seed(std::uint64_t seed, bool verbose,
                       std::size_t threads) {
  const wubbleu::ScaleoutSpec spec = generate_scaleout(seed);
  if (verbose)
    std::printf("seed=%llu %s (scaleout, threads=%zu)\n",
                static_cast<unsigned long long>(seed),
                describe_scaleout(spec).c_str(), threads);
  // One oracle serves every configuration: channel modes, worker counts
  // and the station fan-in must never change simulated behaviour.
  const wubbleu::ScaleoutResult reference = wubbleu::run_single_host(spec);

  const std::vector<std::vector<ChannelMode>> cycles = {
      {ChannelMode::kConservative},
      {ChannelMode::kOptimistic},
      {ChannelMode::kConservative, ChannelMode::kOptimistic},
  };
  bool ok = true;
  for (const auto& cycle : cycles)
    for (const bool aggregated : {true, false})
      ok &= run_scaleout_config(seed, spec, cycle,
                                cycle.size() > 1 ? seed % 2 : 0, aggregated,
                                reference, verbose, threads);
  return ok;
}

// ---------------------------------------------------------------------------
// WubbleU arm
// ---------------------------------------------------------------------------

struct WubbleUCase {
  wubbleu::WubbleUConfig config;
  bool declared_lookahead = false;
};

WubbleUCase generate_wubbleu(std::uint64_t seed) {
  Rng rng(seed ^ 0x3B0BB1E0C0FFEE11ULL);
  WubbleUCase c;
  wubbleu::WubbleUConfig& config = c.config;
  config.page.seed = seed;
  config.page.url = "http://pia/" + std::to_string(rng.below(1000)) + ".html";
  config.page.target_bytes = 512 + rng.below(6 * 1024);
  config.page.image_count = 1 + static_cast<std::uint32_t>(rng.below(3));
  config.page.image_width = config.page.image_height = 32;
  config.urls.assign(1 + rng.below(3), config.page.url);
  // From strokes faster than the recognizer classifies them (~100 k ticks
  // each; it queues them) and typing the next URL while the page still
  // loads, to one character per page load.
  const std::int64_t kPeriods[] = {20'000, 200'000, 500'000, 1'000'000,
                                   7'000'000};
  config.stroke_period = ticks(kPeriods[rng.below(5)]);
  const RunLevel kDownlink[] = {runlevels::kTransaction, runlevels::kPacket,
                                runlevels::kWord};
  config.downlink_level = kDownlink[rng.below(3)];
  c.declared_lookahead = rng.below(2) == 1;
  return c;
}

std::string describe_wubbleu(const WubbleUCase& c) {
  std::ostringstream os;
  os << "pages=" << c.config.urls.size() << " url=" << c.config.page.url
     << " bytes=" << c.config.page.target_bytes
     << " images=" << c.config.page.image_count
     << " stroke=" << c.config.stroke_period.ticks()
     << " level=" << c.config.downlink_level.name
     << " lookahead=" << (c.declared_lookahead ? "bench" : "none");
  return os.str();
}

bool same_loads(const std::vector<wubbleu::Ui::PageLoad>& a,
                const std::vector<wubbleu::Ui::PageLoad>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].url != b[i].url || a[i].requested_at != b[i].requested_at ||
        a[i].completed_at != b[i].completed_at ||
        a[i].body_bytes != b[i].body_bytes || a[i].images != b[i].images)
      return false;
  return true;
}

bool run_wubbleu_config(std::uint64_t seed, const WubbleUCase& c, Wire wire,
                        const std::vector<wubbleu::Ui::PageLoad>& reference,
                        bool verbose) {
  const char* wire_name = wire == Wire::kTcp ? "tcp" : "loopback";
  std::string failure;
  try {
    NodeCluster cluster;
    Subsystem& handheld =
        cluster.add_node("handheld-node").add_subsystem("handheld");
    Subsystem& chip = cluster.add_node("chip-node").add_subsystem("chip");
    const ChannelPair channels = cluster.connect_checked(
        handheld, chip, ChannelMode::kConservative, wire);
    const wubbleu::WubbleUHandles h =
        wubbleu::build_distributed(handheld, chip, channels, c.config);
    if (c.declared_lookahead) {
      // bench_table1_wubbleu's declarations.
      handheld.set_lookahead(channels.a, ticks(30'000));
      handheld.set_reaction_lookahead(channels.a, ticks(30'000));
      chip.set_lookahead(channels.b, ticks(100'000));
      chip.set_reaction_lookahead(channels.b, ticks(100'000));
    }
    cluster.start_all();
    for (const auto& [name, outcome] :
         cluster.run_all(Subsystem::RunConfig{.stall_timeout = 20'000ms}))
      if (outcome != Subsystem::RunOutcome::kQuiescent)
        failure = "outcome[" + name + "] != quiescent";
    if (failure.empty() && !same_loads(h.ui->loads(), reference))
      failure = "page loads differ from build_local";
    if (failure.empty() && h.cpu->image_pixel_errors() != 0)
      failure = "image decode errors";
  } catch (const std::exception& e) {
    failure = std::string("threw: ") + e.what();
  }
  if (failure.empty()) {
    if (verbose)
      std::printf("  ok (wubbleu) wire=%s loads=%zu\n", wire_name,
                  reference.size());
    return true;
  }
  std::printf("FAIL seed=%llu (wubbleu) wire=%s: %s\n  case: %s\n"
              "  reproduce: fuzz_cluster --wubbleu --seed=%llu\n",
              static_cast<unsigned long long>(seed), wire_name,
              failure.c_str(), describe_wubbleu(c).c_str(),
              static_cast<unsigned long long>(seed));
  return false;
}

bool run_wubbleu_seed(std::uint64_t seed, bool verbose) {
  const WubbleUCase c = generate_wubbleu(seed);
  if (verbose)
    std::printf("seed=%llu %s (wubbleu)\n",
                static_cast<unsigned long long>(seed),
                describe_wubbleu(c).c_str());
  Scheduler local("wubbleu");
  const wubbleu::WubbleUHandles ref = wubbleu::build_local(local, c.config);
  local.init();
  local.run();
  const std::vector<wubbleu::Ui::PageLoad> reference = ref.ui->loads();
  if (reference.size() != c.config.urls.size() ||
      ref.ui->completed() != reference.size()) {
    std::printf("FAIL seed=%llu (wubbleu): the single-host oracle completed "
                "%zu of %zu loads\n  case: %s\n",
                static_cast<unsigned long long>(seed), ref.ui->completed(),
                c.config.urls.size(), describe_wubbleu(c).c_str());
    return false;
  }
  bool ok = true;
  for (const Wire wire : {Wire::kLoopback, Wire::kTcp})
    ok &= run_wubbleu_config(seed, c, wire, reference, verbose);
  return ok;
}

// ---------------------------------------------------------------------------
// Replication arm
// ---------------------------------------------------------------------------
//
// Each seed reuses the scale-out farm generator, replicates every gateway
// shard K-ways (K in {2,3}, seed-salted) and — in the kill configuration —
// slams one member's wire shut after a frame budget.  The acceptance bar is
// the zero-rollback failover contract: fetch logs bit-exact against the
// UNREPLICATED single-host oracle, every subsystem quiescent, and when the
// kill fired the group must have promoted a survivor in place (one member
// dropped, one promotion, no snapshot restore anywhere).

// Arms runtime mode renegotiation on the farm's plain subsystems (clients,
// stations, frontend).  Replica members stay UNARMED on purpose: a member
// must never propose (its clones would have to flip in lockstep), so the
// frontend's measurement-driven proposals into a ReplicaSet are answered
// "unsupported" and the proposer pins the channel fixed — exercising the
// rejection path while a failover runs elsewhere.  The forced flip rides a
// seed-chosen client uplink, whose endpoints are both plain subsystems.
void arm_adaptive_scaleout(wubbleu::ScaleoutCluster& dut,
                           std::uint64_t seed) {
  std::vector<dist::Subsystem*> clients;
  for (dist::Subsystem* s : dut.cluster().all_subsystems()) {
    if (s->name().rfind("shard", 0) == 0) continue;
    s->set_adaptive_sync();  // default measurement policy
    if (s->name().rfind("client", 0) == 0) clients.push_back(s);
  }
  if (clients.empty()) return;
  Rng pick(seed ^ 0xADA9717EF11A9B5DULL);
  dist::Subsystem& proposer = *clients[pick.below(clients.size())];
  const ChannelMode target =
      proposer.channel(ChannelId{0}).mode() == ChannelMode::kConservative
          ? ChannelMode::kOptimistic
          : ChannelMode::kConservative;
  proposer.request_mode_change(ChannelId{0}, target);
}

// Runs one replicated configuration and prints what broke the failover
// contract (or, verbose, that it held).  A kill-free run also reports the
// frames the kill's target member handled (sends plus receives), the scale
// its kill point is drawn on.  Lets whatever the cluster throws escape.
bool check_replicas_config(std::uint64_t seed,
                           const wubbleu::ScaleoutSpec& spec, bool kill,
                           const wubbleu::ScaleoutResult& reference,
                           bool verbose, bool adaptive,
                           std::uint64_t& member_frames) {
  wubbleu::ScaleoutCluster dut(spec);
  if (adaptive) arm_adaptive_scaleout(dut, seed);
  const auto outcomes = dut.run();
  if (!kill) {
    const transport::LinkStats stats =
        dut.replica_set(spec.replica_kill.shard)
            .member(spec.replica_kill.member)
            .channel(ChannelId{0})
            .link()
            .stats();
    member_frames = stats.frames_sent + stats.frames_received;
  }
  // The felled clone's wire dies under it: kDisconnected is its correct
  // exit.  Everyone else must reach clean quiescence.
  const std::string killed =
      kill ? "shard" + std::to_string(spec.replica_kill.shard) + "r" +
                 std::to_string(spec.replica_kill.member)
           : "";
  bool ok = true;
  for (const auto& [name, outcome] : outcomes) {
    const Subsystem::RunOutcome want =
        name == killed ? Subsystem::RunOutcome::kDisconnected
                       : Subsystem::RunOutcome::kQuiescent;
    if (outcome == want) continue;
    std::printf("FAIL seed=%llu (replicas): outcome[%s] unexpected (%d)\n",
                static_cast<unsigned long long>(seed), name.c_str(),
                static_cast<int>(outcome));
    ok = false;
  }

  const wubbleu::ScaleoutResult result = dut.result();
  if (!(result == reference)) {
    std::printf(
        "FAIL seed=%llu (replicas) K=%zu agg=%d kill=%d threads=%zu: fetch "
        "log diverges from unreplicated single-host oracle\n",
        static_cast<unsigned long long>(seed), spec.shard_replicas,
        spec.aggregated ? 1 : 0, kill ? 1 : 0, spec.worker_threads);
    ok = false;
  }

  std::uint64_t dropped = 0;
  std::uint64_t promotions = 0;
  for (std::size_t m = 0; m < dut.replica_set_count(); ++m) {
    const dist::ReplicaGroupStats& stats =
        dut.replica_set(m).group().group_stats();
    dropped += stats.members_dropped;
    promotions += stats.promotions;
  }
  if (kill && (dropped != 1 || promotions != 1)) {
    std::printf(
        "FAIL seed=%llu (replicas): kill fired dropped=%llu promotions=%llu "
        "(want 1/1 — survivor promotion, not a restore)\n",
        static_cast<unsigned long long>(seed),
        static_cast<unsigned long long>(dropped),
        static_cast<unsigned long long>(promotions));
    ok = false;
  }
  if (!kill && dropped != 0) {
    std::printf("FAIL seed=%llu (replicas): spurious member drop (%llu)\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(dropped));
    ok = false;
  }
  // Zero rollback: a promotion must never route through the snapshot
  // ladder.  Any recovery on any subsystem means the failover rolled state
  // back instead of resuming on the survivor.
  const SubsystemStats total = dut.total_stats();
  if (total.recoveries != 0) {
    std::printf("FAIL seed=%llu (replicas): %llu snapshot recoveries during "
                "a replica failover (zero-rollback contract)\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(total.recoveries));
    ok = false;
  }

  if (ok && verbose)
    std::printf(
        "  K=%zu agg=%d kill=%d threads=%zu ... ok (%llu fetches, "
        "failover=%lluus)\n",
        spec.shard_replicas, spec.aggregated ? 1 : 0, kill ? 1 : 0,
        spec.worker_threads,
        static_cast<unsigned long long>(result.total_fetches()),
        static_cast<unsigned long long>(
            kill ? dut.replica_set(spec.replica_kill.shard)
                       .group()
                       .group_stats()
                       .last_failover_micros
                 : 0));
  return ok;
}

// The kill configuration takes `member_frames` from the kill-free run of
// the same case, and the kill point lands in its first sixteenth.  A fixed
// budget could exceed the traffic of a member with few requests, and the
// kill never fired.  The margin is wide because a member's frame count
// varies between runs of one case: grants, statuses and renegotiation
// depend on timing (--adaptive spread 713..5183 frames over eight runs).
bool run_replicas_config(std::uint64_t seed, wubbleu::ScaleoutSpec spec,
                         bool aggregated, bool kill,
                         const wubbleu::ScaleoutResult& reference,
                         bool verbose, std::size_t threads, bool adaptive,
                         std::uint64_t& member_frames) {
  Rng salt(seed ^ 0x2E111CA7EDF00DULL);
  spec.aggregated = aggregated;
  spec.worker_threads = threads;
  spec.shard_replicas = 2 + salt.below(2);
  spec.replica_kill.shard =
      static_cast<std::uint32_t>(salt.below(spec.shards));
  spec.replica_kill.member = salt.below(spec.shard_replicas);
  if (kill) {
    spec.replica_kill.frames =
        1 + salt.below(std::max<std::uint64_t>(1, member_frames / 16));
    spec.replica_kill.seed = seed;
  }

  bool ok = false;
  try {
    ok = check_replicas_config(seed, spec, kill, reference, verbose,
                               adaptive, member_frames);
  } catch (const std::exception& e) {
    std::printf("FAIL seed=%llu (replicas) K=%zu agg=%d kill=%d threads=%zu: "
                "threw\n  %s\n",
                static_cast<unsigned long long>(seed), spec.shard_replicas,
                aggregated ? 1 : 0, kill ? 1 : 0, threads, e.what());
  }
  if (!ok) {
    std::printf("  case: %s K=%zu\n", describe_scaleout(spec).c_str(),
                spec.shard_replicas);
    std::printf("  reproduce: fuzz_cluster --replicas --seed=%llu%s%s\n",
                static_cast<unsigned long long>(seed),
                threads > 0
                    ? (" --threads=" + std::to_string(threads)).c_str()
                    : "",
                adaptive ? " --adaptive" : "");
  }
  return ok;
}

bool run_replicas_seed(std::uint64_t seed, bool verbose, std::size_t threads,
                       bool adaptive) {
  const wubbleu::ScaleoutSpec spec = generate_scaleout(seed);
  if (verbose)
    std::printf("seed=%llu %s (replicas, threads=%zu)\n",
                static_cast<unsigned long long>(seed),
                describe_scaleout(spec).c_str(), threads);
  const wubbleu::ScaleoutResult reference = wubbleu::run_single_host(spec);

  bool ok = true;
  for (const bool aggregated : {true, false}) {
    std::uint64_t member_frames = 0;
    for (const bool kill : {false, true})
      ok &= run_replicas_config(seed, spec, aggregated, kill, reference,
                                verbose, threads, adaptive, member_frames);
  }
  return ok;
}

bool run_seed(std::uint64_t seed, bool verbose, std::size_t threads,
              bool adaptive) {
  const FuzzCase c = generate(seed);
  if (verbose)
    std::printf("seed=%llu %s\n", static_cast<unsigned long long>(seed),
                describe_case(c).c_str());
  const PipelineResult reference = run_single_host_pipeline(c.spec);

  const std::size_t channels = c.spec.subsystem_count() - 1;
  std::vector<std::vector<ChannelMode>> mode_sets = {
      uniform_modes(channels, ChannelMode::kConservative),
      uniform_modes(channels, ChannelMode::kOptimistic),
  };
  if (channels >= 2) {
    // Mixed: alternate modes per channel, phase chosen by the seed.
    std::vector<ChannelMode> mixed;
    for (std::size_t i = 0; i < channels; ++i)
      mixed.push_back((i + seed) % 2 == 0 ? ChannelMode::kConservative
                                          : ChannelMode::kOptimistic);
    mode_sets.push_back(std::move(mixed));
  }

  bool ok = true;
  for (const auto& modes : mode_sets)
    for (const bool with_faults : {false, true})
      ok &= run_one_config(seed, c, modes, with_faults, reference, verbose,
                           threads, adaptive);
  return ok;
}

}  // namespace
}  // namespace pia::dist

int main(int argc, char** argv) {
  std::vector<std::uint64_t> seeds;
  std::uint64_t runs = 0;
  std::uint64_t start_seed = 1;
  bool verbose = false;
  bool recovery = false;
  bool scaleout = false;
  bool replicas = false;
  bool adaptive = false;
  bool wubbleu = false;
  std::size_t threads = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      seeds.push_back(std::stoull(arg.substr(7)));
      verbose = true;
    } else if (arg.rfind("--seeds=", 0) == 0) {
      std::stringstream ss(arg.substr(8));
      std::string item;
      while (std::getline(ss, item, ',')) seeds.push_back(std::stoull(item));
    } else if (arg.rfind("--runs=", 0) == 0) {
      runs = std::stoull(arg.substr(7));
    } else if (arg.rfind("--start-seed=", 0) == 0) {
      start_seed = std::stoull(arg.substr(13));
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = std::stoull(arg.substr(10));
    } else if (arg == "--recovery") {
      recovery = true;
    } else if (arg == "--scaleout") {
      scaleout = true;
    } else if (arg == "--replicas") {
      replicas = true;
    } else if (arg == "--adaptive") {
      adaptive = true;
    } else if (arg == "--wubbleu") {
      wubbleu = true;
    } else if (arg == "--verbose" || arg == "-v") {
      verbose = true;
    } else {
      std::fprintf(stderr,
                   "usage: fuzz_cluster [--recovery | --scaleout | "
                   "--replicas | --wubbleu] [--seed=S | "
                   "--seeds=S1,S2,... | --runs=N [--start-seed=K]] "
                   "[--adaptive] [--threads=N] [--verbose]\n");
      return 2;
    }
  }
  if (runs > 0)
    for (std::uint64_t s = 0; s < runs; ++s) seeds.push_back(start_seed + s);
  if (seeds.empty()) {
    // The PR-gating lists: deterministic, fast; the equivalence list is
    // curated to cover every fault kind, both wires and the multi-hop
    // loop-back topology, the recovery list to cover both wires and 2..4
    // subsystems with mid-run crash points.
    // Recovery gating trio: seed 9 restores from disk over TCP in both
    // modes, seed 11 drives the optimistic fallback ladder (multiple
    // restart attempts), seed 2 crashes a mixed-mode 4-host TCP pipeline.
    // Scale-out gating trio: seed 1 draws a 14-client 3-shard farm, seed 5
    // a 9-client 2-shard farm (the one that exposed the termination-probe
    // revival race under threads), seed 12 a 9-client 4-shard farm; between
    // them they cover both frontend layouts, mixed channel modes and
    // station fan-in > 1.
    // Replica gating trio: seed 1 replicates a 14-client 3-shard farm
    // 2-ways, seed 2 draws K=3 (a kill leaves TWO live clones deduping),
    // seed 7 kills under station fan-in > 1; each seed runs both layouts
    // with and without the kill.
    // WubbleU gating list: seeds 1-8 draw all three downlink runlevels,
    // both lookahead settings, and (seed 5) a URL typed ahead while the
    // previous page still loads.
    seeds = recovery   ? std::vector<std::uint64_t>{2, 9, 11}
            : scaleout ? std::vector<std::uint64_t>{1, 5, 12}
            : replicas ? std::vector<std::uint64_t>{1, 2, 7}
            : wubbleu  ? std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6, 7, 8}
                       : std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6,
                                                    7, 8, 11, 13, 17, 23};
  }

  std::uint64_t failures = 0;
  for (const std::uint64_t seed : seeds) {
    const bool ok =
        recovery   ? pia::dist::run_recovery_seed(seed, verbose, threads,
                                                  adaptive)
        : scaleout ? pia::dist::run_scaleout_seed(seed, verbose, threads)
        : replicas ? pia::dist::run_replicas_seed(seed, verbose, threads,
                                                  adaptive)
        : wubbleu  ? pia::dist::run_wubbleu_seed(seed, verbose)
                   : pia::dist::run_seed(seed, verbose, threads, adaptive);
    if (!ok) ++failures;
    if (!verbose) {
      std::printf(".");
      std::fflush(stdout);
    }
  }
  if (!verbose) std::printf("\n");
  if (failures > 0) {
    std::printf("%llu of %zu seeds FAILED\n",
                static_cast<unsigned long long>(failures), seeds.size());
    return 1;
  }
  if (recovery)
    std::printf("all %zu seeds passed (kill + restart from durable "
                "snapshots == single-host)\n",
                seeds.size());
  else if (scaleout)
    std::printf("all %zu seeds passed (sharded farm == single-host, "
                "aggregated and per-client, every mode)\n",
                seeds.size());
  else if (replicas)
    std::printf("all %zu seeds passed (K-replicated shards with seeded "
                "member kills == unreplicated single-host, zero rollback)\n",
                seeds.size());
  else if (wubbleu)
    std::printf("all %zu seeds passed (WubbleU over loopback and TCP == "
                "build_local, bit-exact page loads)\n",
                seeds.size());
  else
    std::printf("all %zu seeds passed (conservative == optimistic == "
                "single-host, faulty and clean links)\n",
                seeds.size());
  return 0;
}
