#include "core/simulation.hpp"

namespace pia {

Simulation::Simulation(std::string name, CheckpointPolicy policy)
    : scheduler_(std::move(name)),
      checkpoints_(std::make_unique<CheckpointManager>(scheduler_, policy)) {}

Component& Simulation::create(const std::string& type_name,
                              const std::string& instance,
                              const ComponentRegistry& registry) {
  auto component = registry.create(type_name, instance);
  Component& ref = *component;
  scheduler_.add(std::move(component));
  return ref;
}

NetId Simulation::connect(Component& from, std::string_view out_port,
                          Component& to, std::string_view in_port,
                          VirtualTime delay) {
  return scheduler_.connect(from.id(), out_port, to.id(), in_port, delay);
}

void Simulation::load_run_control(const std::string& script) {
  for (Switchpoint& sp : parser_.parse(script))
    scheduler_.add_switchpoint(std::move(sp));
}

}  // namespace pia
