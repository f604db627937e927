// The subsystem scheduler (paper §2.1, §2.2).
//
// One Scheduler is the kernel of one *subsystem*: it owns the components,
// the nets wiring them together, and the event queue, and it is "primarily
// responsible for enforcing the local timing semantics": the subsystem time
// is always <= the local time of every component, and a component receives a
// value only once subsystem time has caught up with the value's timestamp.
//
// Events are dispatched in deterministic (time, seq) order.  Between
// dispatches every component is at a safe point; that is where runlevel
// switches are applied and checkpoints taken.
//
// The distributed layer (pia_dist) drives a Scheduler from outside: it asks
// next_event_time(), compares against the safe times granted by peer
// subsystems (conservative channels) and calls step() only when allowed, or
// runs ahead and restores a checkpoint on a straggler (optimistic channels).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/ids.hpp"
#include "base/time.hpp"
#include "core/component.hpp"
#include "core/event.hpp"
#include "core/event_queue.hpp"
#include "core/port.hpp"
#include "core/runlevel.hpp"
#include "obs/trace.hpp"

namespace pia {

struct SchedulerStats {
  std::uint64_t events_dispatched = 0;
  std::uint64_t events_scheduled = 0;
  std::uint64_t wakes_dispatched = 0;
  std::uint64_t violations = 0;
  std::uint64_t runlevel_switches = 0;
};

class Scheduler final : public ComponentContext {
 public:
  explicit Scheduler(std::string name = "subsystem");
  ~Scheduler() override = default;

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }

  // --- construction --------------------------------------------------------

  /// Adds a component; the scheduler takes ownership and assigns its id.
  ComponentId add(std::unique_ptr<Component> component);

  template <typename T, typename... Args>
  T& emplace(Args&&... args) {
    auto owned = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *owned;
    add(std::move(owned));
    return ref;
  }

  [[nodiscard]] Component& component(ComponentId id);
  [[nodiscard]] const Component& component(ComponentId id) const;
  /// nullptr if absent.
  [[nodiscard]] Component* find_component(const std::string& name);
  [[nodiscard]] ComponentId component_id(const std::string& name) const;
  [[nodiscard]] std::vector<ComponentId> component_ids() const;
  [[nodiscard]] std::size_t component_count() const { return components_.size(); }

  NetId make_net(std::string net_name,
                 VirtualTime delay = VirtualTime::zero());
  void attach(NetId net, ComponentId component, std::string_view port_name);
  /// Convenience: make a net from a's output to b's input.
  NetId connect(ComponentId a, std::string_view out_port, ComponentId b,
                std::string_view in_port,
                VirtualTime delay = VirtualTime::zero());
  [[nodiscard]] Net& net(NetId id);
  [[nodiscard]] const Net& net(NetId id) const;
  [[nodiscard]] NetId net_id(const std::string& net_name) const;

  // --- lifecycle ------------------------------------------------------------

  /// Runs on_init() on every component (once).
  void init();
  [[nodiscard]] bool initialized() const { return initialized_; }

  // --- execution -------------------------------------------------------------

  [[nodiscard]] VirtualTime now() const { return now_; }
  [[nodiscard]] VirtualTime next_event_time() const;
  [[nodiscard]] bool idle() const { return queue_.empty(); }
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  /// Calls fn(event) for every pending event with time < bound, in queue
  /// storage order (NOT dispatch order), skipping the rest unvisited.
  /// For bounded aggregate scans — e.g. the conservative engine prices
  /// queued channel-proxy crossings at their exact stamps when granting
  /// safe times.  The bound is re-read at every step, so fn may lower it.
  template <typename Fn>
  void for_each_pending_before(const VirtualTime& bound, const Fn& fn) const {
    queue_.for_each_before(bound, fn);
  }

  /// Dispatches the next event.  Returns false when the queue is empty.
  bool step();
  /// Dispatches every event with time <= t; returns the dispatch count.
  std::uint64_t run_until(VirtualTime t);
  /// Dispatches until the queue drains (or max_events); returns the count.
  std::uint64_t run(std::uint64_t max_events = UINT64_MAX);

  /// Schedules an event originating outside this subsystem (a channel
  /// delivery).  The event keeps its given time; seq is assigned here and
  /// returned so the caller can later address exactly this queue entry
  /// (retraction must not guess by payload — identical payloads are legal).
  /// Injecting into the past (time < now()) invokes the straggler handler —
  /// that is the optimistic-channel rollback trigger — or throws
  /// Error{kConsistency} if none is installed.  Returns 0 when the straggler
  /// handler consumed the event.
  std::uint64_t inject(Event event);

  // --- runlevels ---------------------------------------------------------------

  void add_switchpoint(Switchpoint switchpoint);
  /// Direct user switch (the paper's "detail level slider").
  void set_runlevel(const std::string& component_name, const RunLevel& level);
  [[nodiscard]] LocalTimeView local_time_view() const;

  // --- hooks (checkpoint manager, distributed layer) ---------------------------

  /// Called with each event immediately before it is dispatched.
  std::function<void(const Event&)> pre_dispatch_hook;
  /// Called with each event when it is scheduled (send/wake/inject).
  std::function<void(const Event&)> on_schedule_hook;
  /// Called when inject() observes a straggler (event.time < now()).
  /// Return true if handled (rollback performed and event requeued by the
  /// handler).
  std::function<bool(const Event&)> straggler_handler;
  /// Called after a runlevel switch is applied: (component, old, new).
  std::function<void(Component&, const RunLevel&, const RunLevel&)>
      on_runlevel_switch;

  [[nodiscard]] const SchedulerStats& stats() const { return stats_; }
  /// Events dispatched to one component (per-module profile, Fig. 5 bench).
  [[nodiscard]] std::uint64_t dispatches(ComponentId id) const;

  /// This subsystem's trace track.  The scheduler records event dispatches
  /// here; the distributed layer adds its protocol milestones so one buffer
  /// renders as one complete per-subsystem timeline (see obs/chrome_trace).
  [[nodiscard]] obs::TraceBuffer& trace() { return trace_; }
  [[nodiscard]] const obs::TraceBuffer& trace() const { return trace_; }

  // --- thread confinement ----------------------------------------------------------
  //
  // A scheduler is single-threaded by design; what changed with the worker
  // pool is that *which* thread drives it can move between loop slices.
  // The driving thread declares itself with a ConfinementGuard for the
  // duration of a slice; step() and inject() then verify the caller is that
  // thread.  Two workers slicing the same subsystem concurrently — the
  // executor bug class this exists to catch — dies with Error{kConsistency}
  // immediately instead of corrupting the event queue silently.  The guard
  // nests (the legacy run loop wraps slices that may re-enter).

  class ConfinementGuard {
   public:
    explicit ConfinementGuard(Scheduler& scheduler);
    ~ConfinementGuard();
    ConfinementGuard(const ConfinementGuard&) = delete;
    ConfinementGuard& operator=(const ConfinementGuard&) = delete;

   private:
    Scheduler& scheduler_;
    std::uint64_t previous_;
  };

  // --- checkpoint support --------------------------------------------------------
  // Used by CheckpointManager; see checkpoint.hpp for the semantics.

  [[nodiscard]] std::vector<Event> snapshot_queue() const;
  void replace_queue(std::vector<Event> events);
  void set_now(VirtualTime t) { now_ = t; }
  /// Raises the event sequence counter past `seq`.  replace_queue calls it
  /// for every restored event; crash recovery needs it so replayed injects
  /// keep sorting after the restored queue in a fresh process.
  void ensure_seq_above(std::uint64_t seq);
  /// Drops every queued event with time > t (used when rolling back).
  void drop_events_after(VirtualTime t);
  /// Drops queued events matching pred; returns how many were removed
  /// (used to cancel retracted optimistic messages).
  std::size_t erase_events_if(const std::function<bool(const Event&)>& pred);

  // --- ComponentContext ------------------------------------------------------------

  void context_send(Component& component, PortIndex port, Value value,
                    VirtualTime extra_delay) override;
  void context_send_at(Component& component, PortIndex port, Value value,
                       VirtualTime when) override;
  void context_wake(Component& component, VirtualTime when) override;
  void context_request_runlevel(Component& component,
                                const RunLevel& level) override;

 private:
  friend class ConfinementGuard;
  void assert_confined(const char* operation) const;
  std::uint64_t schedule(Event event);
  void dispatch(const Event& event);
  void evaluate_switchpoints();
  void apply_pending_runlevels();

  std::string name_;
  bool initialized_ = false;
  VirtualTime now_ = VirtualTime::zero();
  std::uint64_t next_seq_ = 0;

  std::vector<std::unique_ptr<Component>> components_;
  std::unordered_map<std::string, ComponentId> components_by_name_;
  std::vector<Net> nets_;
  std::unordered_map<std::string, NetId> nets_by_name_;

  EventQueue queue_;

  std::vector<Switchpoint> switchpoints_;
  std::deque<RunLevelAction> pending_runlevels_;

  SchedulerStats stats_;
  std::vector<std::uint64_t> dispatch_counts_;  // indexed by component id
  obs::TraceBuffer trace_;

  // Hash of the thread currently confining this scheduler; 0 = unconfined
  // (single-threaded callers that never enter a guard keep working).
  std::atomic<std::uint64_t> confined_to_{0};
};

}  // namespace pia
