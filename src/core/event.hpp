// Simulation events.
//
// An Event is a timestamped value delivery to one component port (or a
// self-wakeup).  The subsystem scheduler dispatches events in (time, seq)
// order; seq is a per-subsystem monotone counter that makes simultaneous
// events deterministic — two runs of the same model always dispatch in the
// same order, which checkpoint/rollback correctness depends on.
#pragma once

#include <compare>
#include <cstdint>

#include "base/ids.hpp"
#include "base/time.hpp"
#include "core/value.hpp"

namespace pia {

/// Index of a port within its owning component (not globally unique).
using PortIndex = std::uint32_t;
inline constexpr PortIndex kNoPort = 0xFFFFFFFFu;

enum class EventKind : std::uint8_t {
  kDeliver,   // value arriving on an input port
  kWake,      // self-scheduled timer
};

struct Event {
  VirtualTime time;
  std::uint64_t seq = 0;          // dispatch tie-breaker, assigned by scheduler
  ComponentId target;
  PortIndex port = kNoPort;       // valid for kDeliver
  EventKind kind = EventKind::kDeliver;
  Value value;
  ComponentId source;             // sender, invalid for external/wake events

  /// Queue ordering: earliest time first, then insertion order.
  [[nodiscard]] friend bool operator<(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  void save(serial::OutArchive& ar) const {
    serial::write(ar, time);
    ar.put_varint(seq);
    serial::write(ar, target);
    // kNoPort (0xFFFFFFFF) would cost a 5-byte varint on every kWake event;
    // encode port shifted by one so the sentinel is a single zero byte.
    ar.put_varint(port == kNoPort ? 0 : static_cast<std::uint64_t>(port) + 1);
    ar.put_varint(static_cast<std::uint64_t>(kind));
    value.save(ar);
    serial::write(ar, source);
  }

  static Event load(serial::InArchive& ar) {
    Event e;
    e.time = serial::read<VirtualTime>(ar);
    e.seq = ar.get_varint();
    e.target = serial::read_id<ComponentTag>(ar);
    const std::uint64_t port = ar.get_varint();
    e.port = port == 0 ? kNoPort : static_cast<PortIndex>(port - 1);
    e.kind = static_cast<EventKind>(ar.get_varint());
    e.value = Value::load(ar);
    e.source = serial::read_id<ComponentTag>(ar);
    return e;
  }
};

}  // namespace pia
