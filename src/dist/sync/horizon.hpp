// Output horizons: each channel's earliest possible crossing, from what the
// model state proves (DESIGN.md "Output horizons").
//
// A component that declares horizons (Component::declare_horizons) tells
// the distributed layer two things about its current state: quiet_until(o),
// before which nothing leaves output o absent new input, and
// min_latency(i, o), the least time between an input on i and a value on o
// (infinity when i cannot cause o).  HorizonGraph freezes the port graph of
// a subsystem at start() and, for one channel at a time, computes the
// shortest path latency from every input port to a crossing on that
// channel, that is, a delivery to one of the channel proxy's hidden ports.
//
// A component that declares nothing is a hop of unknown length.  A path
// through one is bounded only by the channel's declared lookahead (or, from
// the channel's own deliveries, its reaction lookahead): the user's claim
// about every path in the subsystem.  So each node carries two labels, the
// shortest path through declaring components only and the shortest through
// at least one that declares nothing, and a query reads
// min(declared, max(floor, undeclared)).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/scheduler.hpp"
#include "dist/channel_set.hpp"

namespace pia::dist::sync {

class HorizonGraph {
 public:
  /// Freezes the port graph of `scheduler` and the channels' split nets.
  /// The graph is active only when some component declares horizons; an
  /// inactive graph holds nothing and costs nothing.
  void build(const Scheduler& scheduler, const ChannelSet& channels);
  [[nodiscard]] bool active() const { return active_; }

  /// Solves the path latencies to `channel` in the components' current
  /// state, with `floor` (the channel's lookahead) on paths through
  /// components that declare nothing.  The queries below answer for the
  /// last channel solved.
  void solve(std::uint32_t channel, VirtualTime floor);

  /// The earliest crossing that declaring components' quiet_until allows.
  [[nodiscard]] VirtualTime quiet(VirtualTime floor) const;
  /// Least latency from a delivery injected by `channel`'s proxy to a
  /// crossing (infinity when no path exists).
  [[nodiscard]] VirtualTime rx_latency(std::uint32_t channel,
                                       VirtualTime floor) const;
  /// Least latency from pending event `e` to a crossing, under the floor
  /// solve() was given.  A crossing already queued costs zero; a wake of a
  /// declaring component costs infinity, because its quiet_until covers it.
  [[nodiscard]] VirtualTime event_latency(const Event& e) const {
    return e.kind == EventKind::kWake
               ? wake_cost_[e.target.value()]
               : delivery_cost_[port_base_[e.target.value()] + e.port];
  }

 private:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  /// Shortest path latencies through declaring components only, and
  /// through at least one component that declares nothing.
  struct Label {
    VirtualTime declared = VirtualTime::infinity();
    VirtualTime undeclared = VirtualTime::infinity();
  };
  [[nodiscard]] static VirtualTime read(const Label& label,
                                        VirtualTime floor) {
    return min(label.declared, max(floor, label.undeclared));
  }

  struct Unit {  // one component
    const Component* component = nullptr;
    std::uint32_t proxy_channel = kNone;  // a channel proxy: its channel
    std::vector<std::uint32_t> inputs;
    std::vector<std::uint32_t> outputs;
  };
  struct Hop {
    std::uint32_t node;
    VirtualTime delay;
  };
  struct Input {
    std::uint32_t unit;
    PortIndex port;
    std::vector<Hop> feeders;  // outputs driving the net this input reads
  };
  struct Output {
    std::uint32_t unit;
    PortIndex port;
    std::vector<Hop> crossings;  // channel index, net delay
  };

  bool active_ = false;
  std::vector<Unit> units_;  // by component id value
  std::vector<Input> inputs_;
  std::vector<Output> outputs_;
  /// Input node per (component, port): port_input_[port_base_[id] + port].
  std::vector<std::uint32_t> port_base_;
  std::vector<std::uint32_t> port_input_;
  std::vector<std::uint32_t> rx_input_;  // per channel: its proxy's rx
  std::vector<std::uint32_t> declared_outputs_;

  // solve() state.
  std::vector<Label> in_label_;
  std::vector<Label> out_label_;
  std::vector<std::pair<VirtualTime::rep, std::uint32_t>> heap_;
  /// event_latency() per (component, port) slot and per component: the
  /// pricing walk visits every pending event, so each costs one load.
  std::vector<VirtualTime> delivery_cost_;
  std::vector<VirtualTime> wake_cost_;
};

}  // namespace pia::dist::sync
