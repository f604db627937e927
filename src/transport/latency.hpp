// Wide-area latency model.
//
// The paper's evaluation ran both Pia nodes on one subnet and still saw the
// Internet-scale effect of per-message cost dominating word-level transfer
// (Table 1: 604 s word vs 80.3 s packet remote).  To reproduce that shape on
// one machine a channel carries an explicit LatencyModel: every message is
// held until `base + size * per_byte (+ jitter)` of real wall-clock time has
// elapsed since it was sent.  The delay is applied by the one release-delay
// decorator, FaultLink (transport/fault.hpp), as FaultPlan::latency; its
// monotone release floor keeps FIFO order under jitter.
#pragma once

#include <chrono>

#include "transport/link.hpp"

namespace pia::transport {

struct LatencyModel {
  std::chrono::microseconds base{0};       // propagation delay per message
  std::chrono::nanoseconds per_byte{0};    // serialization delay
  std::chrono::microseconds jitter_max{0}; // uniform random extra delay

  [[nodiscard]] bool enabled() const {
    return base.count() > 0 || per_byte.count() > 0 || jitter_max.count() > 0;
  }

  [[nodiscard]] static LatencyModel none() { return {}; }

  /// A round-trip-in-the-tens-of-ms profile, scaled down so benches finish:
  /// the *ratios* match a late-90s coast-to-coast path.
  [[nodiscard]] static LatencyModel internet(
      std::chrono::microseconds base_latency,
      std::chrono::nanoseconds per_byte_cost) {
    return {.base = base_latency, .per_byte = per_byte_cost};
  }
};

/// Wraps `inner` so that each message becomes visible to the receiver only
/// after the modeled delay: a FaultLink whose plan carries only `model`.
/// The sending side stamps a release deadline into a small header and the
/// receiving side waits it out — so BOTH endpoints of a channel must be
/// wrapped.
LinkPtr make_latency_link(LinkPtr inner, LatencyModel model);

}  // namespace pia::transport
