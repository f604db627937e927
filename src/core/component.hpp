// Component: the unit of behaviour in a Pia simulation (paper §2.1).
//
// A component is a container for some basic functionality — an embedded
// processor running a program, an ASIC, an FPGA, a sensor, a web server.
// Each component keeps its own *local* virtual time; the subsystem scheduler
// guarantees that subsystem time never exceeds any component's local time,
// so when a component is (re)activated its view of the world is up to date.
//
// Execution model: handlers run to completion.  on_receive is invoked when a
// value arrives on an input port; on_wake when a self-scheduled timer fires.
// Inside a handler the component may
//   * advance(dt)        — model computation time (basic-block estimates),
//   * send(port, value)  — drive an output net at its current local time,
//   * wake_after(dt)     — schedule a future activation.
// Between handlers every component is at a *safe point*, which is where
// checkpoints are taken and runlevels switched.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/ids.hpp"
#include "base/time.hpp"
#include "core/event.hpp"
#include "core/port.hpp"
#include "core/runlevel.hpp"
#include "serial/archive.hpp"

namespace pia {

class Component;

/// Services the kernel provides to a component while one of its handlers is
/// running.  Implemented by the Scheduler.
class ComponentContext {
 public:
  virtual ~ComponentContext() = default;

  /// Drive `value` onto the net wired to output `port` of `component`,
  /// timestamped at the component's local time plus the net delay plus
  /// `extra_delay`.
  virtual void context_send(Component& component, PortIndex port, Value value,
                            VirtualTime extra_delay) = 0;

  /// Schedule an on_wake for `component` at absolute time `when`.
  virtual void context_wake(Component& component, VirtualTime when) = 0;

  /// Drive `value` onto the net at an explicit absolute timestamp (must not
  /// precede subsystem time).  Used by channel proxies that relay remote
  /// events carrying their original timestamps.
  virtual void context_send_at(Component& component, PortIndex port,
                               Value value, VirtualTime when) = 0;

  /// Imperative runlevel switch from inside component code (trigger (c) of
  /// paper §2.1.3).  Applied at the next safe point.
  virtual void context_request_runlevel(Component& component,
                                        const RunLevel& level) = 0;
};

class Component {
 public:
  explicit Component(std::string name);
  virtual ~Component() = default;

  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] ComponentId id() const { return id_; }
  [[nodiscard]] VirtualTime local_time() const { return local_time_; }
  [[nodiscard]] const RunLevel& runlevel() const { return runlevel_; }
  /// Timestamp of the event currently being handled.  For asynchronous
  /// (interrupt-style) ports this may be earlier than local_time() — it is
  /// the interrupt's logical instant.
  [[nodiscard]] VirtualTime delivery_time() const { return delivery_time_; }

  [[nodiscard]] const std::vector<Port>& ports() const { return ports_; }
  [[nodiscard]] const Port& port(PortIndex i) const;
  /// Throws Error{kNotFound} if no port has that name.
  [[nodiscard]] PortIndex find_port(std::string_view port_name) const;

  // --- behaviour hooks ----------------------------------------------------

  /// Called once when the simulation starts, at local time zero.
  virtual void on_init() {}

  /// Value arrived on input `port`.  Local time has already been advanced to
  /// the delivery time (for synchronous ports) before this is called.
  virtual void on_receive(PortIndex port, const Value& value) = 0;

  /// Self-scheduled timer fired.
  virtual void on_wake() {}

  /// Runlevel changed (at a safe point).  Override to reconfigure the
  /// component's communication methods.
  virtual void on_runlevel(const RunLevel& previous) { (void)previous; }

  /// True when the component's interfaces are stable and consistent, i.e. a
  /// runlevel switch or checkpoint may happen now.  The kernel only asks
  /// between handlers; components mid-transfer (e.g. a bus protocol between
  /// strobe and ack) should return false.
  [[nodiscard]] virtual bool at_safe_point() const { return true; }

  // --- output horizons (DESIGN.md "Output horizons") -----------------------
  //
  // What the model state proves about when an output can next fire.  The
  // distributed layer builds its safe-time promises from these; a component
  // that calls declare_horizons() must keep both honest, for every handler
  // (on_receive, on_wake, on_runlevel) and every state it can reach.

  /// True once the constructor called declare_horizons().  Until then the
  /// channel lookaheads stand in for this component's latencies.
  [[nodiscard]] bool declares_horizons() const { return declares_horizons_; }

  /// Absent new input, nothing leaves output `out` before this time; the
  /// component's own pending wakes must be covered.  The default, local
  /// time, promises nothing.
  [[nodiscard]] virtual VirtualTime quiet_until(PortIndex out) const {
    (void)out;
    return local_time_;
  }

  /// In the current state, a value arriving on input `in` at t makes
  /// nothing leave output `out` before t + min_latency(in, out); infinity
  /// when `in` cannot cause `out` at all.  The default, zero, promises
  /// nothing.  A latency may depend on state that an input changes only if
  /// that input's own declared path to `out` is no slower than the path
  /// the change opens.
  [[nodiscard]] virtual VirtualTime min_latency(PortIndex in,
                                                PortIndex out) const {
    (void)in;
    (void)out;
    return VirtualTime::zero();
  }

  // --- checkpointing (paper §2.1.2) ----------------------------------------

  /// Serialize all user state.  The kernel wraps this with local time,
  /// runlevel and a schema section; override both save_state and
  /// restore_state, or neither.
  virtual void save_state(serial::OutArchive& ar) const { (void)ar; }
  virtual void restore_state(serial::InArchive& ar) { (void)ar; }

  /// Full image including kernel-owned fields.  Used by CheckpointManager.
  [[nodiscard]] Bytes save_image() const;
  void restore_image(BytesView image);

 protected:
  /// Declare an input port; returns its index for use in on_receive.
  PortIndex add_input(std::string port_name,
                      PortSync sync = PortSync::kSynchronous);
  /// Declare an output port.
  PortIndex add_output(std::string port_name);
  /// Declare a bidirectional port.
  PortIndex add_inout(std::string port_name,
                      PortSync sync = PortSync::kSynchronous);
  /// Mutable access for subclasses that tweak port metadata (e.g. channel
  /// components marking their proxy ports hidden).
  [[nodiscard]] Port& mutable_port(PortIndex i);

  // --- services (valid only while a handler is running) -------------------

  void send(PortIndex out_port, Value value,
            VirtualTime extra_delay = VirtualTime::zero());
  /// Drive a value stamped at an explicit absolute time (channel proxies).
  void send_at(PortIndex out_port, Value value, VirtualTime when);
  void wake_after(VirtualTime delay);
  void wake_at(VirtualTime when);
  /// Model computation: local time += delta (basic-block timing estimate).
  void advance(VirtualTime delta);
  /// Imperative runlevel switch request.
  void request_runlevel(const RunLevel& level);
  /// Sets the runlevel a component starts in (constructor use only — once
  /// simulation runs, switches go through request_runlevel / switchpoints).
  void set_initial_runlevel(const RunLevel& level) { runlevel_ = level; }
  /// Opts into output horizons: quiet_until() and min_latency() are then
  /// read as this component's promises (constructor use only).
  void declare_horizons() { declares_horizons_ = true; }

 private:
  friend class Scheduler;
  friend class SealedComponent;  // drives an inner model through a shim

  std::string name_;
  ComponentId id_;  // assigned by the scheduler on add()
  VirtualTime local_time_ = VirtualTime::zero();
  VirtualTime delivery_time_ = VirtualTime::zero();
  RunLevel runlevel_;
  bool declares_horizons_ = false;
  std::vector<Port> ports_;
  ComponentContext* context_ = nullptr;  // non-owning; set while scheduled
};

}  // namespace pia
