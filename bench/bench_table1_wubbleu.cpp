// Table 1 reproduction: "Time and simulation overhead on several
// configurations of the WubbleU example".
//
// The paper loads its ~66 KB homepage and reports wall-clock time for:
//
//   Location   Detail level      paper (1998, Java on PPro-200 + Ethernet)
//   N/A        HotJava           0.54 s
//   local      word passage      175.6 s
//   local      packet passage    43.1 s
//   remote     word passage      604 s
//   remote     packet passage    80.3 s
//
// This harness regenerates the same five rows on this machine: the
// reference loader is a native (un-simulated) fetch+decode, "local" is the
// whole system in one subsystem, "remote" places the cellular chip + server
// side in a second subsystem over a TCP socket with an injected wide-area
// latency.  Absolute numbers are a different substrate (C++ vs Java 1.1,
// 2020s CPU vs Pentium Pro); the claims under test are the SHAPE:
//   * simulation costs orders of magnitude over native,
//   * word passage costs far more than packet passage,
//   * remote word is the worst configuration by a wide margin,
//   * remote packet remains usable ("fast enough to allow the designer to
//     play with the simulated hardware").
#include <chrono>

#include "bench_util.hpp"
#include "wubbleu/system.hpp"

using namespace pia;
using namespace pia::bench;
using namespace pia::wubbleu;
using namespace std::chrono_literals;

namespace {

WubbleUConfig page_config(const RunLevel& level) {
  WubbleUConfig config;
  config.page.target_bytes = 66 * 1024;  // the paper's page size
  config.downlink_level = level;
  return config;
}

struct Row {
  std::string location;
  std::string detail;
  double seconds = 0;
  std::uint64_t events = 0;
  std::uint64_t channel_msgs = 0;
};

Row run_local(const RunLevel& level) {
  Scheduler sched("wubbleu");
  const WubbleUHandles h = build_local(sched, page_config(level));
  sched.init();
  Row row{.location = "local", .detail = level.name};
  row.seconds = timed([&] { sched.run(); });
  if (h.ui->completed() != 1) note("!! local run did not complete");
  row.events = sched.stats().events_dispatched;
  return row;
}

Row run_remote(const RunLevel& level) {
  dist::NodeCluster cluster;
  dist::Subsystem& handheld =
      cluster.add_node("handheld-node").add_subsystem("handheld");
  dist::Subsystem& chip = cluster.add_node("chip-node").add_subsystem("chip");
  // The "Internet" of Fig. 1: TCP sockets plus 100 us one-way latency
  // (scaled-down wide area so the bench finishes; the RATIO between rows is
  // what the latency shapes).
  const dist::ChannelPair channels = cluster.connect_checked(
      handheld, chip, dist::ChannelMode::kConservative, dist::Wire::kTcp,
      transport::LatencyModel{.base = 100us});
  const WubbleUHandles h =
      build_distributed(handheld, chip, channels, page_config(level));
  // Declared reaction slack (see SafeTimeGrant::lookahead): the handheld
  // cannot respond to a chip event in less than ~30 us of virtual time
  // (DMA burst + interrupt entry + request build), the chip side not in
  // less than ~100 us (airtime + base station + gateway turnaround).
  handheld.set_lookahead(channels.a, ticks(30'000));
  handheld.set_reaction_lookahead(channels.a, ticks(30'000));
  chip.set_lookahead(channels.b, ticks(100'000));
  chip.set_reaction_lookahead(channels.b, ticks(100'000));
  cluster.start_all();

  Row row{.location = "remote", .detail = level.name};
  row.seconds = timed([&] {
    cluster.run_all(dist::Subsystem::RunConfig{.stall_timeout = 60'000ms});
  });
  if (h.ui->completed() != 1) note("!! remote run did not complete");
  row.events = handheld.scheduler().stats().events_dispatched +
               chip.scheduler().stats().events_dispatched;
  row.channel_msgs = chip.stats().events_sent + handheld.stats().events_sent;
  return row;
}

}  // namespace

int main() {
  header("Table 1: WubbleU page load (66 KB), five configurations");
  JsonReport report("table1_wubbleu");

  // Reference: native load, no simulation ("HotJava" row).  The page is
  // built outside the timed region, just as the simulated gateway builds
  // its PageStore before the simulation clock starts.
  const HttpResponse prebuilt = make_page(PageSpec{});
  Row reference{.location = "n/a", .detail = "native (HotJava ref)"};
  reference.seconds = timed([&] {
    const NativeLoadResult r = native_page_load(prebuilt);
    if (r.images_decoded != 4) note("!! native load incomplete");
  });

  const Row local_word = run_local(runlevels::kWord);
  const Row local_packet = run_local(runlevels::kPacket);
  const Row remote_word = run_remote(runlevels::kWord);
  const Row remote_packet = run_remote(runlevels::kPacket);

  std::printf("\n%-8s %-22s %12s %12s %12s\n", "Location", "Detail level",
              "time [s]", "events", "chan msgs");
  for (const Row& row : {reference, local_word, local_packet, remote_word,
                         remote_packet}) {
    std::printf("%-8s %-22s %12.4f %12llu %12llu\n", row.location.c_str(),
                row.detail.c_str(), row.seconds,
                static_cast<unsigned long long>(row.events),
                static_cast<unsigned long long>(row.channel_msgs));
  }
  report.metric("native_seconds", reference.seconds);
  report.metric("local_word_seconds", local_word.seconds);
  report.metric("local_packet_seconds", local_packet.seconds);
  report.metric("remote_word_seconds", remote_word.seconds);
  report.metric("remote_packet_seconds", remote_packet.seconds);
  report.metric("local_word_events", local_word.events);
  report.metric("local_packet_events", local_packet.events);
  report.metric("remote_word_events", remote_word.events);
  report.metric("remote_word_channel_msgs", remote_word.channel_msgs);
  report.metric("remote_packet_events", remote_packet.events);
  report.metric("remote_packet_channel_msgs", remote_packet.channel_msgs);

  std::printf("\nshape checks (paper ratios in parentheses):\n");
  std::printf("  local  word / packet  : %6.1fx  (paper 4.1x)\n",
              local_word.seconds / local_packet.seconds);
  std::printf("  remote word / packet  : %6.1fx  (paper 7.5x)\n",
              remote_word.seconds / remote_packet.seconds);
  std::printf("  remote word / local word   : %6.1fx  (paper 3.4x)\n",
              remote_word.seconds / local_word.seconds);
  std::printf("  remote packet / local packet: %5.1fx  (paper 1.9x)\n",
              remote_packet.seconds / local_packet.seconds);
  std::printf("  sim (local packet) / native : %5.0fx  (paper ~80x)\n",
              local_packet.seconds / reference.seconds);
  // The paper's four qualitative claims.  (The paper's additional total
  // ordering local word > remote packet reflects its Java substrate, where
  // rendering word-level events dominated even locally; our kernel's
  // per-event cost is far smaller, so that comparison flips — see
  // EXPERIMENTS.md.)
  const bool word_worse_locally = local_word.seconds > local_packet.seconds;
  const bool word_worse_remotely = remote_word.seconds > remote_packet.seconds;
  const bool remote_worst = remote_word.seconds > local_word.seconds &&
                            remote_word.seconds > remote_packet.seconds &&
                            remote_word.seconds > local_packet.seconds;
  const bool native_fastest_or_equal =
      reference.seconds <= remote_packet.seconds;
  // A violated claim fails the run, so CI's bench-smoke job catches the
  // regression instead of printing it unread.
  bool all_hold = true;
  const auto check = [&](const char* claim, bool holds) {
    std::printf("  %s: %s\n", claim, holds ? "HOLDS" : "VIOLATED");
    all_hold &= holds;
  };
  check("word >> packet locally  ", word_worse_locally);
  check("word >> packet remotely ", word_worse_remotely);
  check("remote word is the worst", remote_worst);
  check("remote packet usable (within ~100x of native, paper 149x)",
        remote_packet.seconds < 150 * reference.seconds &&
            native_fastest_or_equal);
  return all_hold ? 0 : 1;
}
