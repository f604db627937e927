// Simulation: Pia on a single host (paper §2.1).
//
// The facade most users start from: one subsystem scheduler, a checkpoint
// manager and the run-control loader, assembled and wired together.  A Pia
// node with a single subsystem "behaves very much like the single host
// version of Pia" — pia_dist builds exactly on the pieces exposed here.
//
// The paper's §2.1.1 optimistic interrupt handling (rewind to a checkpoint
// when an interrupt lands in the past, re-execute with the address marked
// synchronous) is not reproduced: an interrupt input is an asynchronous
// port, accepted at the component's local time, and a late delivery to a
// synchronous port raises kConsistency.
#pragma once

#include <memory>
#include <string>

#include "core/checkpoint.hpp"
#include "core/registry.hpp"
#include "core/runcontrol.hpp"
#include "core/scheduler.hpp"

namespace pia {

class Simulation {
 public:
  explicit Simulation(std::string name = "pia",
                      CheckpointPolicy policy = CheckpointPolicy::kImmediate);

  [[nodiscard]] Scheduler& scheduler() { return scheduler_; }
  [[nodiscard]] const Scheduler& scheduler() const { return scheduler_; }
  [[nodiscard]] CheckpointManager& checkpoints() { return *checkpoints_; }
  [[nodiscard]] RunControlParser& run_control_parser() { return parser_; }

  // --- convenience pass-throughs -------------------------------------------

  template <typename T, typename... Args>
  T& emplace(Args&&... args) {
    return scheduler_.emplace<T>(std::forward<Args>(args)...);
  }

  /// Instantiate a registered component type by name (class-loader style).
  Component& create(const std::string& type_name, const std::string& instance,
                    const ComponentRegistry& registry);

  NetId connect(Component& from, std::string_view out_port, Component& to,
                std::string_view in_port,
                VirtualTime delay = VirtualTime::zero());

  void init() { scheduler_.init(); }
  bool step() { return scheduler_.step(); }
  std::uint64_t run(std::uint64_t max_events = UINT64_MAX) {
    return scheduler_.run(max_events);
  }
  std::uint64_t run_until(VirtualTime t) { return scheduler_.run_until(t); }
  [[nodiscard]] VirtualTime now() const { return scheduler_.now(); }

  /// Parses a run-control script and installs its switchpoints.
  void load_run_control(const std::string& script);

 private:
  Scheduler scheduler_;
  std::unique_ptr<CheckpointManager> checkpoints_;
  RunControlParser parser_;
};

}  // namespace pia
