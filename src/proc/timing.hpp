// Basic-block timing estimation (paper §2.1).
//
// "Currently in Pia, processors running software are represented by a
// component which has as its behavior the actual software ... Specific
// processors are characterized by their timing characteristics (in the form
// of a basic block timing estimator) ...  the timing estimates are embedded
// in the source code, and when the simulator encounters one of these, it
// updates a version of virtual time."
//
// Here the "actual software" is C++ code running inside a
// SoftwareComponent; the embedded estimates are cycles() calls converted to
// virtual time through a ProcessorProfile.
#pragma once

#include <cstdint>
#include <string>

#include "base/time.hpp"

namespace pia::proc {

struct ProcessorProfile {
  std::string name = "generic";
  std::uint64_t clock_hz = 100'000'000;  // 100 MHz default
  // Cycles per instruction, per class a basic-block estimator
  // distinguishes.
  std::uint32_t alu_cycles = 1;
  std::uint32_t load_cycles = 2;
  std::uint32_t store_cycles = 2;
  std::uint32_t branch_cycles = 2;
  std::uint32_t mul_cycles = 4;
  std::uint32_t div_cycles = 20;

  /// Converts a cycle count to virtual time (ticks are nanoseconds).
  [[nodiscard]] VirtualTime time_for_cycles(std::uint64_t cycles) const;

  /// A late-90s embedded core (the paper's era: i960/StrongARM class).
  static ProcessorProfile embedded_33mhz();
  /// The Pentium Pro 200 the paper's workstations used.
  static ProcessorProfile pentium_pro_200();
};

/// Accumulates basic-block costs and converts them to time on demand.
class BasicBlockTimer {
 public:
  explicit BasicBlockTimer(ProcessorProfile profile)
      : profile_(std::move(profile)) {}

  [[nodiscard]] const ProcessorProfile& profile() const { return profile_; }

  /// Record a block as an instruction-class mix.
  void block(std::uint64_t alu, std::uint64_t loads, std::uint64_t stores,
             std::uint64_t branches = 0, std::uint64_t muls = 0,
             std::uint64_t divs = 0);
  /// Record a block by raw cycle count.
  void cycles(std::uint64_t n) { pending_cycles_ += n; }

  /// Drains the accumulated cost as virtual time.
  [[nodiscard]] VirtualTime take();

  [[nodiscard]] std::uint64_t total_cycles() const { return total_cycles_; }

 private:
  ProcessorProfile profile_;
  std::uint64_t pending_cycles_ = 0;
  std::uint64_t total_cycles_ = 0;
};

}  // namespace pia::proc
