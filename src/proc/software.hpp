// SoftwareComponent: an embedded processor running actual software
// (paper §2.1).
//
// The behaviour IS the program — C++ code in the subclass's handlers, with
// basic-block timing estimates embedded at the points a compiler-assisted
// estimator would place them.  The component owns its processor profile and
// basic-block timer; interrupt inputs are asynchronous ports whose handlers
// run at the interrupt's logical instant (delivery_time()).  A subclass
// that a DMA engine writes into owns its proc::Memory itself.
#pragma once

#include <functional>

#include "core/component.hpp"
#include "proc/timing.hpp"

namespace pia::proc {

class SoftwareComponent : public Component {
 public:
  SoftwareComponent(std::string name, ProcessorProfile profile);

  [[nodiscard]] BasicBlockTimer& timer() { return timer_; }
  [[nodiscard]] const ProcessorProfile& profile() const {
    return timer_.profile();
  }

  // --- interrupt plumbing ----------------------------------------------------

  /// An interrupt handler: value + the interrupt's logical time.
  using IrqHandler = std::function<void(const Value&, VirtualTime at)>;

  /// Declares an interrupt input; arriving values invoke `handler` instead
  /// of on_receive.
  PortIndex add_irq_input(std::string port_name, IrqHandler handler);

  /// Base dispatch: routes interrupt ports to their handlers, everything
  /// else to on_data.  Subclasses implement on_data (and may still override
  /// on_receive entirely if they want raw behaviour).
  void on_receive(PortIndex port, const Value& value) override;
  virtual void on_data(PortIndex port, const Value& value) = 0;

 protected:
  // --- basic-block timing estimates (embedded in the "source code") ----------

  /// Commit a block given an instruction mix.
  void exec(std::uint64_t alu, std::uint64_t loads, std::uint64_t stores,
            std::uint64_t branches = 0, std::uint64_t muls = 0,
            std::uint64_t divs = 0);
  /// Commit a block given a raw cycle count.
  void exec_cycles(std::uint64_t cycles);

 private:
  BasicBlockTimer timer_;
  std::vector<std::pair<PortIndex, IrqHandler>> irq_handlers_;
};

}  // namespace pia::proc
