// Ports and nets.
//
// From the designer's point of view (paper §2.1) a Pia system consists of
// components, interfaces, ports and nets: interfaces connect components to
// ports, and ports are interconnected through nets.  A net fans a written
// value out to every attached input port.  Nets are the only user object
// that may be split across subsystems; the split machinery (hidden ports and
// channel components, Fig. 2) lives in pia_dist and uses the `hidden` flag
// declared here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/ids.hpp"
#include "base/time.hpp"
#include "core/event.hpp"

namespace pia {

enum class PortDir : std::uint8_t { kIn, kOut, kInOut };

/// Synchronization contract of an input port (paper §2.1.1).
///
/// kSynchronous: the component has a distinct receive mode; a delivery whose
///   timestamp is earlier than the component's local time is a consistency
///   violation (the component already computed past that instant).
/// kAsynchronous: the port behaves like a polled latch / interrupt line; the
///   value is accepted at the component's current local time, never moving
///   it backwards.  (The paper's optimistic rewind of §2.1.1 is not
///   reproduced; see DESIGN.md §6.)
enum class PortSync : std::uint8_t { kSynchronous, kAsynchronous };

struct Port {
  std::string name;
  PortDir dir = PortDir::kIn;
  PortSync sync = PortSync::kSynchronous;
  NetId net;             // invalid until wired
  bool hidden = false;   // true for channel-component proxy ports (Fig. 2)
};

/// One endpoint of a net: (component, port index).
struct Endpoint {
  ComponentId component;
  PortIndex port = kNoPort;

  friend bool operator==(const Endpoint&, const Endpoint&) = default;
};

struct Net {
  NetId id;
  std::string name;
  VirtualTime delay = VirtualTime::zero();  // propagation delay
  std::vector<Endpoint> drivers;            // attached output ports
  std::vector<Endpoint> sinks;              // attached input ports
  Value last_value;                         // most recent value driven
  VirtualTime last_change = VirtualTime::zero();
};

}  // namespace pia
