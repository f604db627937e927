#include "proc/timing.hpp"

namespace pia::proc {

VirtualTime ProcessorProfile::time_for_cycles(std::uint64_t cycles) const {
  // ticks are nanoseconds: t = cycles * 1e9 / clock_hz, rounded up so a
  // nonzero block always consumes time.
  const std::uint64_t numerator = cycles * 1'000'000'000ULL;
  return VirtualTime{
      static_cast<VirtualTime::rep>((numerator + clock_hz - 1) / clock_hz)};
}

ProcessorProfile ProcessorProfile::embedded_33mhz() {
  return ProcessorProfile{.name = "embedded-33MHz",
                          .clock_hz = 33'000'000,
                          .alu_cycles = 1,
                          .load_cycles = 3,
                          .store_cycles = 3,
                          .branch_cycles = 3,
                          .mul_cycles = 6,
                          .div_cycles = 35};
}

ProcessorProfile ProcessorProfile::pentium_pro_200() {
  return ProcessorProfile{.name = "pentium-pro-200",
                          .clock_hz = 200'000'000,
                          .alu_cycles = 1,
                          .load_cycles = 2,
                          .store_cycles = 2,
                          .branch_cycles = 1,
                          .mul_cycles = 4,
                          .div_cycles = 18};
}

void BasicBlockTimer::block(std::uint64_t alu, std::uint64_t loads,
                            std::uint64_t stores, std::uint64_t branches,
                            std::uint64_t muls, std::uint64_t divs) {
  pending_cycles_ += alu * profile_.alu_cycles + loads * profile_.load_cycles +
                     stores * profile_.store_cycles +
                     branches * profile_.branch_cycles +
                     muls * profile_.mul_cycles + divs * profile_.div_cycles;
}

VirtualTime BasicBlockTimer::take() {
  total_cycles_ += pending_cycles_;
  const VirtualTime t = profile_.time_for_cycles(pending_cycles_);
  pending_cycles_ = 0;
  return t;
}

}  // namespace pia::proc
