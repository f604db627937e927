// Fig. 6 reproduction: "A possible architecture for the WubbleU system, and
// its simulation topology".
//
// The chosen architecture maps every process to the embedded processor
// except the network interface, which lives on the cellular ASIC and moves
// packets into memory by DMA.  The figure's right half is the simulation
// topology: the ASIC on a separate subsystem ("this chip is our candidate
// for remote operation").  This bench executes that mapping:
//   * detail sweep — the same page load with the chip rendering the
//     downlink at each of the four library levels, local and remote;
//   * DMA bus-width sweep — a NicDma at 1/2/4/8 bytes per cycle bursting
//     one page-sized transfer into memory in its own Scheduler: the DMA
//     transfer cost the figure's arrow stands for.
#include <chrono>

#include "bench_util.hpp"
#include "wubbleu/system.hpp"

using namespace pia;
using namespace pia::bench;
using namespace pia::wubbleu;
using namespace std::chrono_literals;

namespace {

WubbleUConfig config_for(const RunLevel& level) {
  WubbleUConfig config;
  config.page.target_bytes = 66 * 1024;
  config.downlink_level = level;
  return config;
}

struct Run {
  double virtual_load_ms = 0;  // request -> page done, virtual
  double wall_ms = 0;
  std::uint64_t events = 0;
};

/// Drives one transfer's emissions onto its output at time zero.
class TransferSource final : public Component {
 public:
  explicit TransferSource(std::vector<TransferEncoder::Emission> emissions)
      : Component("source"), emissions_(std::move(emissions)) {
    out_ = add_output("out");
  }
  void on_init() override { wake_at(VirtualTime::zero()); }
  void on_wake() override {
    for (const TransferEncoder::Emission& e : emissions_) send(out_, e.value);
  }
  void on_receive(PortIndex, const Value&) override {}

 private:
  std::vector<TransferEncoder::Emission> emissions_;
  PortIndex out_;
};

/// Records when the completion interrupt arrives.
class IrqProbe final : public Component {
 public:
  IrqProbe() : Component("probe") { add_input("irq"); }
  void on_receive(PortIndex, const Value&) override { at = local_time(); }
  VirtualTime at = VirtualTime::infinity();
};

/// Virtual time from a `bytes`-long transfer reaching a NicDma whose burst
/// engine moves `bytes_per_cycle` a cycle to its completion interrupt.
VirtualTime dma_burst(std::uint64_t bytes_per_cycle, std::size_t bytes) {
  Scheduler sched("dma");
  proc::Memory memory(bytes);
  const Bytes payload(bytes, std::byte{0x5A});
  auto& source = sched.emplace<TransferSource>(
      TransferEncoder{}.encode(payload, runlevels::kTransaction));
  auto& nic = sched.emplace<NicDma>("nic", memory, 0, bytes_per_cycle);
  auto& probe = sched.emplace<IrqProbe>();
  sched.connect(source.id(), "out", nic.id(), "net");
  sched.connect(nic.id(), "irq", probe.id(), "irq");
  sched.init();
  sched.run();
  return probe.at;
}

Run run_local(const RunLevel& level) {
  Scheduler sched("wubbleu");
  const WubbleUHandles h = build_local(sched, config_for(level));
  sched.init();
  Run run;
  run.wall_ms = timed([&] { sched.run(); }) * 1e3;
  run.events = sched.stats().events_dispatched;
  if (h.ui->completed() == 1) {
    const auto& load = h.ui->loads()[0];
    run.virtual_load_ms =
        static_cast<double>((load.completed_at - load.requested_at).ticks()) /
        1e6;
  }
  return run;
}

Run run_remote(const RunLevel& level) {
  dist::NodeCluster cluster;
  dist::Subsystem& handheld = cluster.add_node("hh").add_subsystem("handheld");
  dist::Subsystem& chip = cluster.add_node("ch").add_subsystem("chip");
  const dist::ChannelPair channels = cluster.connect_checked(
      handheld, chip, dist::ChannelMode::kConservative);
  const WubbleUHandles h =
      build_distributed(handheld, chip, channels, config_for(level));
  handheld.set_lookahead(channels.a, ticks(30'000));
  handheld.set_reaction_lookahead(channels.a, ticks(30'000));
  chip.set_lookahead(channels.b, ticks(100'000));
  chip.set_reaction_lookahead(channels.b, ticks(100'000));
  cluster.start_all();
  Run run;
  run.wall_ms = timed([&] {
                  cluster.run_all(
                      dist::Subsystem::RunConfig{.stall_timeout = 60'000ms});
                }) *
                1e3;
  run.events = handheld.scheduler().stats().events_dispatched +
               chip.scheduler().stats().events_dispatched;
  if (h.ui->completed() == 1) {
    const auto& load = h.ui->loads()[0];
    run.virtual_load_ms =
        static_cast<double>((load.completed_at - load.requested_at).ticks()) /
        1e6;
  }
  return run;
}

}  // namespace

int main() {
  header("Fig. 6: the chosen architecture, executed (chip local vs remote)");
  JsonReport report("fig6_architecture");

  std::printf("\n%-18s %14s %14s %12s %14s %14s %12s\n", "detail level",
              "local virt[ms]", "local wall[ms]", "local evts",
              "remote virt[ms]", "remote wall[ms]", "remote evts");
  for (const RunLevel& level :
       {runlevels::kTransaction, runlevels::kPacket, runlevels::kWord}) {
    const Run local = run_local(level);
    const Run remote = run_remote(level);
    std::printf("%-18s %14.2f %14.2f %12llu %14.2f %14.2f %12llu\n",
                level.name.c_str(), local.virtual_load_ms, local.wall_ms,
                static_cast<unsigned long long>(local.events),
                remote.virtual_load_ms, remote.wall_ms,
                static_cast<unsigned long long>(remote.events));
    const std::string prefix = level.name + "_";
    report.metric(prefix + "local_wall_ms", local.wall_ms);
    report.metric(prefix + "remote_wall_ms", remote.wall_ms);
    report.metric(prefix + "local_virtual_ms", local.virtual_load_ms);
    report.metric(prefix + "remote_virtual_ms", remote.virtual_load_ms);
    report.metric(prefix + "local_events", local.events);
    report.metric(prefix + "remote_events", remote.events);
  }
  note("\nvirtual page-load time is identical local vs remote at every level\n"
       "(distribution never changes simulated behaviour); wall time is what\n"
       "the designer pays for remote operation.");

  // --- the DMA arrow -------------------------------------------------------
  constexpr std::size_t kBurstBytes = 66 * 1024;  // the page above
  std::printf("\nDMA burst engine, 66 KiB transfer, bus width sweep:\n");
  std::printf("%12s %18s\n", "bytes/cycle", "burst time [ms virt]");
  for (const std::uint64_t width : {1u, 2u, 4u, 8u}) {
    const VirtualTime burst = dma_burst(width, kBurstBytes);
    const double ms = static_cast<double>(burst.ticks()) / 1e6;
    std::printf("%12llu %18.3f\n", static_cast<unsigned long long>(width),
                ms);
    report.metric("dma_burst_virtual_ms_" + std::to_string(width) + "bpc",
                  ms);
  }
  return 0;
}
