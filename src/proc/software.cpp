#include "proc/software.hpp"

namespace pia::proc {

SoftwareComponent::SoftwareComponent(std::string name,
                                     ProcessorProfile profile)
    : Component(std::move(name)), timer_(std::move(profile)) {}

PortIndex SoftwareComponent::add_irq_input(std::string port_name,
                                           IrqHandler handler) {
  const PortIndex port =
      add_input(std::move(port_name), PortSync::kAsynchronous);
  irq_handlers_.emplace_back(port, std::move(handler));
  return port;
}

void SoftwareComponent::on_receive(PortIndex port, const Value& value) {
  for (const auto& [irq_port, handler] : irq_handlers_) {
    if (irq_port == port) {
      handler(value, delivery_time());
      return;
    }
  }
  on_data(port, value);
}

void SoftwareComponent::exec(std::uint64_t alu, std::uint64_t loads,
                             std::uint64_t stores, std::uint64_t branches,
                             std::uint64_t muls, std::uint64_t divs) {
  timer_.block(alu, loads, stores, branches, muls, divs);
  advance(timer_.take());
}

void SoftwareComponent::exec_cycles(std::uint64_t cycles) {
  timer_.cycles(cycles);
  advance(timer_.take());
}

}  // namespace pia::proc
