#include "dist/sync/horizon.hpp"

#include <algorithm>
#include <functional>
#include <utility>

namespace pia::dist::sync {
namespace {

// A solve() vertex: an input or output node in one of the two layers.
constexpr std::uint32_t kOutBit = 2;
constexpr std::uint32_t kUndeclaredBit = 1;
constexpr std::uint32_t vertex(std::uint32_t node, bool out, bool undeclared) {
  return node << 2 | (out ? kOutBit : 0) | (undeclared ? kUndeclaredBit : 0);
}

using Entry = std::pair<VirtualTime::rep, std::uint32_t>;

}  // namespace

void HorizonGraph::build(const Scheduler& scheduler,
                         const ChannelSet& channels) {
  *this = HorizonGraph{};
  const std::size_t n = scheduler.component_count();
  for (std::uint32_t id = 0; id < n; ++id)
    active_ |= scheduler.component(ComponentId{id}).declares_horizons();
  if (!active_) return;

  units_.resize(n);
  port_base_.resize(n);
  for (std::uint32_t id = 0; id < n; ++id) {
    units_[id].component = &scheduler.component(ComponentId{id});
    port_base_[id] = static_cast<std::uint32_t>(port_input_.size());
    port_input_.resize(port_input_.size() +
                       units_[id].component->ports().size(), kNone);
  }
  rx_input_.assign(channels.size(), kNone);
  for (std::uint32_t i = 0; i < channels.size(); ++i) {
    const ComponentId proxy = channels[i].channel_component;
    if (proxy.valid()) units_[proxy.value()].proxy_channel = i;
  }

  const auto add_input = [&](std::uint32_t id, PortIndex port) {
    const auto node = static_cast<std::uint32_t>(inputs_.size());
    inputs_.push_back(Input{.unit = id, .port = port, .feeders = {}});
    units_[id].inputs.push_back(node);
    port_input_[port_base_[id] + port] = node;
    return node;
  };
  // Nodes first: every input port, and every wired output port.  A proxy's
  // only input is its rx port: a delivery on a hidden port is a crossing,
  // not local work.
  for (std::uint32_t id = 0; id < n; ++id) {
    Unit& unit = units_[id];
    const auto& ports = unit.component->ports();
    if (unit.proxy_channel != kNone) {
      const auto& proxy = static_cast<const ChannelComponent&>(*unit.component);
      rx_input_[unit.proxy_channel] = add_input(id, proxy.rx_port());
    }
    for (PortIndex p = 0; p < ports.size(); ++p) {
      const bool in = ports[p].dir != PortDir::kOut;
      const bool out = ports[p].dir != PortDir::kIn && ports[p].net.valid();
      if (in && unit.proxy_channel == kNone) add_input(id, p);
      if (out) {
        unit.outputs.push_back(static_cast<std::uint32_t>(outputs_.size()));
        outputs_.push_back(Output{.unit = id, .port = p, .crossings = {}});
        if (unit.component->declares_horizons() && unit.proxy_channel == kNone)
          declared_outputs_.push_back(unit.outputs.back());
      }
    }
  }
  // Edges: an output feeds every other endpoint on its net.  A proxy
  // re-drives a remote value at its original stamp (send_at), so its hops
  // carry no net delay; a hidden port on the far end of a hop is a crossing
  // on that proxy's channel.
  for (std::uint32_t o = 0; o < outputs_.size(); ++o) {
    Output& output = outputs_[o];
    const Unit& unit = units_[output.unit];
    const Net& net = scheduler.net(unit.component->port(output.port).net);
    const VirtualTime delay =
        unit.proxy_channel == kNone ? net.delay : VirtualTime::zero();
    for (const Endpoint& sink : net.sinks) {
      if (sink.component.value() == output.unit && sink.port == output.port)
        continue;  // a driver does not hear itself
      const std::uint32_t channel =
          units_[sink.component.value()].proxy_channel;
      if (channel != kNone) {
        output.crossings.push_back(Hop{.node = channel, .delay = delay});
        continue;
      }
      const std::uint32_t input =
          port_input_[port_base_[sink.component.value()] + sink.port];
      inputs_[input].feeders.push_back(Hop{.node = o, .delay = delay});
    }
  }
  in_label_.resize(inputs_.size());
  out_label_.resize(outputs_.size());
  delivery_cost_.resize(port_input_.size());
  wake_cost_.resize(n);
}

void HorizonGraph::solve(std::uint32_t channel, VirtualTime floor) {
  std::fill(in_label_.begin(), in_label_.end(), Label{});
  std::fill(out_label_.begin(), out_label_.end(), Label{});
  std::vector<Entry>& heap = heap_;
  const auto relax = [&](std::uint32_t v, VirtualTime t) {
    if (t.is_infinite()) return;
    Label& label = (v & kOutBit) ? out_label_[v >> 2] : in_label_[v >> 2];
    VirtualTime& slot =
        (v & kUndeclaredBit) ? label.undeclared : label.declared;
    if (t >= slot) return;
    slot = t;
    heap.emplace_back(t.ticks(), v);
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
  };
  for (std::uint32_t o = 0; o < outputs_.size(); ++o)
    for (const Hop& crossing : outputs_[o].crossings)
      if (crossing.node == channel)
        relax(vertex(o, true, false), crossing.delay);

  // Dijkstra backwards from the crossings: latencies are never negative.
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const auto [ticks, v] = heap.back();
    heap.pop_back();
    const VirtualTime t{ticks};
    const bool undeclared = (v & kUndeclaredBit) != 0;
    const std::uint32_t node = v >> 2;
    if (!(v & kOutBit)) {
      if (t > (undeclared ? in_label_[node].undeclared
                          : in_label_[node].declared))
        continue;  // stale entry
      for (const Hop& feeder : inputs_[node].feeders)
        relax(vertex(feeder.node, true, undeclared), t + feeder.delay);
      continue;
    }
    if (t > (undeclared ? out_label_[node].undeclared
                        : out_label_[node].declared))
      continue;
    const Output& output = outputs_[node];
    const Unit& unit = units_[output.unit];
    for (const std::uint32_t input : unit.inputs) {
      if (unit.proxy_channel != kNone) {
        relax(vertex(input, false, undeclared), t);  // re-drive at the stamp
      } else if (unit.component->declares_horizons()) {
        relax(vertex(input, false, undeclared),
              t + unit.component->min_latency(inputs_[input].port,
                                              output.port));
      } else {
        relax(vertex(input, false, true), t);
      }
    }
  }

  for (std::uint32_t id = 0; id < units_.size(); ++id) {
    const Unit& unit = units_[id];
    const std::uint32_t base = port_base_[id];
    const std::size_t ports = unit.component->ports().size();
    wake_cost_[id] = VirtualTime::infinity();
    if (unit.proxy_channel != kNone) {
      // Hidden ports: a crossing on the solved channel, else no local work.
      const VirtualTime hidden = unit.proxy_channel == channel
                                     ? VirtualTime::zero()
                                     : VirtualTime::infinity();
      std::fill_n(delivery_cost_.begin() + base, ports, hidden);
      const std::uint32_t rx = unit.inputs.front();
      delivery_cost_[base + inputs_[rx].port] = read(in_label_[rx], floor);
      continue;
    }
    for (PortIndex p = 0; p < ports; ++p) {
      const std::uint32_t input = port_input_[base + p];
      delivery_cost_[base + p] = input == kNone
                                     ? VirtualTime::infinity()
                                     : read(in_label_[input], floor);
    }
    if (unit.component->declares_horizons()) continue;
    VirtualTime best = VirtualTime::infinity();
    for (const std::uint32_t o : unit.outputs)
      best = min(best, min(out_label_[o].declared, out_label_[o].undeclared));
    wake_cost_[id] = max(floor, best);
  }
}

VirtualTime HorizonGraph::quiet(VirtualTime floor) const {
  VirtualTime earliest = VirtualTime::infinity();
  for (const std::uint32_t o : declared_outputs_) {
    const VirtualTime path = read(out_label_[o], floor);
    if (path.is_infinite()) continue;
    const Output& output = outputs_[o];
    earliest = min(earliest,
                   units_[output.unit].component->quiet_until(output.port) +
                       path);
  }
  return earliest;
}

VirtualTime HorizonGraph::rx_latency(std::uint32_t channel,
                                     VirtualTime floor) const {
  const std::uint32_t rx = rx_input_[channel];
  return rx == kNone ? VirtualTime::infinity() : read(in_label_[rx], floor);
}

}  // namespace pia::dist::sync
