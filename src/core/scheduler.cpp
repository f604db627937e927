#include "core/scheduler.hpp"

#include <thread>

#include "base/error.hpp"
#include "base/log.hpp"

namespace pia {
namespace {

std::uint64_t this_thread_token() {
  const std::uint64_t h =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return h == 0 ? 1 : h;  // 0 is reserved for "unconfined"
}

}  // namespace

Scheduler::ConfinementGuard::ConfinementGuard(Scheduler& scheduler)
    : scheduler_(scheduler) {
  const std::uint64_t self = this_thread_token();
  previous_ = scheduler_.confined_to_.exchange(self,
                                               std::memory_order_acq_rel);
  if (previous_ != 0 && previous_ != self)
    raise(ErrorKind::kConsistency,
          "scheduler '" + scheduler_.name_ +
              "' confined by another thread (concurrent slice?)");
}

Scheduler::ConfinementGuard::~ConfinementGuard() {
  scheduler_.confined_to_.store(previous_, std::memory_order_release);
}

void Scheduler::assert_confined(const char* operation) const {
  const std::uint64_t owner = confined_to_.load(std::memory_order_acquire);
  if (owner != 0 && owner != this_thread_token())
    raise(ErrorKind::kConsistency,
          std::string(operation) + " on scheduler '" + name_ +
              "' from a thread that does not hold its confinement");
}

Scheduler::Scheduler(std::string name)
    : name_(std::move(name)), trace_(name_, obs::default_trace_capacity()) {}

ComponentId Scheduler::add(std::unique_ptr<Component> component) {
  PIA_REQUIRE(component != nullptr, "add(nullptr) on scheduler " + name_);
  PIA_REQUIRE(!components_by_name_.contains(component->name()),
              "duplicate component name '" + component->name() + "'");
  const ComponentId id{static_cast<std::uint32_t>(components_.size())};
  component->id_ = id;
  component->context_ = this;
  components_by_name_.emplace(component->name(), id);
  components_.push_back(std::move(component));
  return id;
}

Component& Scheduler::component(ComponentId id) {
  PIA_REQUIRE(id.valid() && id.value() < components_.size(),
              "bad component id");
  return *components_[id.value()];
}

const Component& Scheduler::component(ComponentId id) const {
  PIA_REQUIRE(id.valid() && id.value() < components_.size(),
              "bad component id");
  return *components_[id.value()];
}

Component* Scheduler::find_component(const std::string& name) {
  const auto it = components_by_name_.find(name);
  return it == components_by_name_.end() ? nullptr
                                         : components_[it->second.value()].get();
}

ComponentId Scheduler::component_id(const std::string& name) const {
  const auto it = components_by_name_.find(name);
  if (it == components_by_name_.end())
    raise(ErrorKind::kNotFound, "no component named '" + name + "'");
  return it->second;
}

std::vector<ComponentId> Scheduler::component_ids() const {
  std::vector<ComponentId> out;
  out.reserve(components_.size());
  for (std::uint32_t i = 0; i < components_.size(); ++i)
    out.emplace_back(i);
  return out;
}

NetId Scheduler::make_net(std::string net_name, VirtualTime delay) {
  PIA_REQUIRE(!nets_by_name_.contains(net_name),
              "duplicate net name '" + net_name + "'");
  const NetId id{static_cast<std::uint32_t>(nets_.size())};
  nets_.push_back(Net{.id = id, .name = net_name, .delay = delay});
  nets_by_name_.emplace(std::move(net_name), id);
  return id;
}

void Scheduler::attach(NetId net_id_arg, ComponentId component_id_arg,
                       std::string_view port_name) {
  Net& n = net(net_id_arg);
  Component& c = component(component_id_arg);
  const PortIndex pi = c.find_port(port_name);
  Port& p = c.ports_[pi];
  PIA_REQUIRE(!p.net.valid(), "port '" + std::string(port_name) + "' of '" +
                                  c.name() + "' is already wired");
  p.net = n.id;
  const Endpoint ep{.component = component_id_arg, .port = pi};
  if (p.dir == PortDir::kOut || p.dir == PortDir::kInOut)
    n.drivers.push_back(ep);
  if (p.dir == PortDir::kIn || p.dir == PortDir::kInOut)
    n.sinks.push_back(ep);
}

NetId Scheduler::connect(ComponentId a, std::string_view out_port,
                         ComponentId b, std::string_view in_port,
                         VirtualTime delay) {
  const std::string net_name = component(a).name() + "." +
                               std::string(out_port) + "->" +
                               component(b).name() + "." + std::string(in_port);
  const NetId id = make_net(net_name, delay);
  attach(id, a, out_port);
  attach(id, b, in_port);
  return id;
}

Net& Scheduler::net(NetId id) {
  PIA_REQUIRE(id.valid() && id.value() < nets_.size(), "bad net id");
  return nets_[id.value()];
}

const Net& Scheduler::net(NetId id) const {
  PIA_REQUIRE(id.valid() && id.value() < nets_.size(), "bad net id");
  return nets_[id.value()];
}

NetId Scheduler::net_id(const std::string& net_name) const {
  const auto it = nets_by_name_.find(net_name);
  if (it == nets_by_name_.end())
    raise(ErrorKind::kNotFound, "no net named '" + net_name + "'");
  return it->second;
}

void Scheduler::init() {
  PIA_REQUIRE(!initialized_, "scheduler '" + name_ + "' already initialized");
  initialized_ = true;
  for (auto& c : components_) c->on_init();
}

VirtualTime Scheduler::next_event_time() const {
  return queue_.empty() ? VirtualTime::infinity() : queue_.top().time;
}

bool Scheduler::step() {
  assert_confined("step()");
  if (queue_.empty()) return false;
  const Event event = queue_.pop();

  PIA_CHECK(event.time >= now_,
            "event queue yielded an event in the past on " + name_);
  now_ = event.time;

  PIA_OBS_TRACE(trace_, obs::TraceKind::kDispatch, event.time,
                event.target.value(), static_cast<std::uint64_t>(event.kind));
  if (pre_dispatch_hook) pre_dispatch_hook(event);
  dispatch(event);

  evaluate_switchpoints();
  apply_pending_runlevels();
  return true;
}

std::uint64_t Scheduler::run_until(VirtualTime t) {
  std::uint64_t count = 0;
  while (!queue_.empty() && queue_.top().time <= t) {
    step();
    ++count;
  }
  return count;
}

std::uint64_t Scheduler::run(std::uint64_t max_events) {
  std::uint64_t count = 0;
  while (count < max_events && step()) ++count;
  return count;
}

std::uint64_t Scheduler::inject(Event event) {
  assert_confined("inject()");
  if (event.time < now_) {
    if (straggler_handler && straggler_handler(event)) return 0;
    raise(ErrorKind::kConsistency,
          "straggler event at " + event.time.str() + " injected into '" +
              name_ + "' at subsystem time " + now_.str());
  }
  return schedule(std::move(event));
}

std::uint64_t Scheduler::schedule(Event event) {
  const std::uint64_t seq = event.seq = next_seq_++;
  stats_.events_scheduled++;
  if (on_schedule_hook) on_schedule_hook(event);
  queue_.push(std::move(event));
  return seq;
}

std::uint64_t Scheduler::dispatches(ComponentId id) const {
  return id.value() < dispatch_counts_.size() ? dispatch_counts_[id.value()]
                                              : 0;
}

void Scheduler::dispatch(const Event& event) {
  Component& target = component(event.target);
  stats_.events_dispatched++;
  if (dispatch_counts_.size() <= event.target.value())
    dispatch_counts_.resize(components_.size(), 0);
  dispatch_counts_[event.target.value()]++;

  target.delivery_time_ = event.time;

  if (event.kind == EventKind::kWake) {
    stats_.wakes_dispatched++;
    target.local_time_ = max(target.local_time_, event.time);
    target.on_wake();
    return;
  }

  const Port& p = target.port(event.port);
  if (p.sync == PortSync::kSynchronous && event.time < target.local_time()) {
    // The component already computed past this instant: a consistency
    // violation (paper §2.1.1).  An input that may see such a delivery is
    // declared asynchronous instead.
    stats_.violations++;
    raise(ErrorKind::kConsistency,
          "synchronous delivery at " + event.time.str() + " to '" +
              target.name() + "' whose local time is " +
              target.local_time().str() + " [sched=" + name_ + " now=" +
              now_.str() + " port=" + std::to_string(event.port) + " seq=" +
              std::to_string(event.seq) + "]");
  }
  if (p.sync == PortSync::kSynchronous) {
    target.local_time_ = event.time;
  } else {
    // Asynchronous (interrupt-like) delivery is accepted at whichever local
    // time the component has reached, never moving it backwards.
    target.local_time_ = max(target.local_time_, event.time);
  }
  target.on_receive(event.port, event.value);
}

void Scheduler::context_send(Component& component_ref, PortIndex port,
                             Value value, VirtualTime extra_delay) {
  const Port& p = component_ref.port(port);
  PIA_REQUIRE(p.dir != PortDir::kIn,
              "send() on input port '" + p.name + "' of '" +
                  component_ref.name() + "'");
  PIA_REQUIRE(p.net.valid(), "send() on unwired port '" + p.name + "' of '" +
                                 component_ref.name() + "'");
  Net& n = net(p.net);
  const VirtualTime when =
      component_ref.local_time() + n.delay + extra_delay;
  n.last_value = value;
  n.last_change = when;

  for (const Endpoint& sink : n.sinks) {
    if (sink.component == component_ref.id() && sink.port == port)
      continue;  // a driver does not hear its own value on an inout port
    schedule(Event{.time = when,
                   .target = sink.component,
                   .port = sink.port,
                   .kind = EventKind::kDeliver,
                   .value = value,
                   .source = component_ref.id()});
  }
}

void Scheduler::context_send_at(Component& component_ref, PortIndex port,
                                Value value, VirtualTime when) {
  const Port& p = component_ref.port(port);
  PIA_REQUIRE(p.dir != PortDir::kIn,
              "send_at() on input port '" + p.name + "' of '" +
                  component_ref.name() + "'");
  PIA_REQUIRE(p.net.valid(), "send_at() on unwired port '" + p.name +
                                 "' of '" + component_ref.name() + "'");
  PIA_REQUIRE(when >= now_, "send_at() into the subsystem's past on '" +
                                component_ref.name() + "'");
  Net& n = net(p.net);
  n.last_value = value;
  n.last_change = when;
  for (const Endpoint& sink : n.sinks) {
    if (sink.component == component_ref.id() && sink.port == port) continue;
    schedule(Event{.time = when,
                   .target = sink.component,
                   .port = sink.port,
                   .kind = EventKind::kDeliver,
                   .value = value,
                   .source = component_ref.id()});
  }
}

void Scheduler::context_wake(Component& component_ref, VirtualTime when) {
  schedule(Event{.time = when,
                 .target = component_ref.id(),
                 .port = kNoPort,
                 .kind = EventKind::kWake,
                 .source = component_ref.id()});
}

void Scheduler::context_request_runlevel(Component& component_ref,
                                         const RunLevel& level) {
  pending_runlevels_.push_back(
      RunLevelAction{.component = component_ref.name(), .level = level});
}

void Scheduler::add_switchpoint(Switchpoint switchpoint) {
  // Validate component references eagerly; a typo in a run-control file
  // should fail at load time, not never-fire silently.
  for (const auto& comp : switchpoint.condition.referenced_components())
    (void)component_id(comp);
  for (const auto& action : switchpoint.actions)
    (void)component_id(action.component);
  switchpoints_.push_back(std::move(switchpoint));
}

void Scheduler::set_runlevel(const std::string& component_name,
                             const RunLevel& level) {
  (void)component_id(component_name);  // validate
  pending_runlevels_.push_back(
      RunLevelAction{.component = component_name, .level = level});
  apply_pending_runlevels();
}

LocalTimeView Scheduler::local_time_view() const {
  return [this](const std::string& component_name) {
    return component(component_id(component_name)).local_time();
  };
}

void Scheduler::evaluate_switchpoints() {
  if (switchpoints_.empty()) return;
  const LocalTimeView view = local_time_view();
  for (Switchpoint& sp : switchpoints_) {
    if (sp.fired) continue;
    if (!sp.condition.eval(view)) continue;
    sp.fired = true;
    PIA_DEBUG("switchpoint fired: " << sp.condition.str());
    for (const RunLevelAction& action : sp.actions)
      pending_runlevels_.push_back(action);
  }
}

void Scheduler::apply_pending_runlevels() {
  if (pending_runlevels_.empty()) return;  // hot path: nothing pending
  // Apply each pending switch if its component is at a safe point; otherwise
  // keep it queued and retry after the next dispatch.
  std::deque<RunLevelAction> retry;
  while (!pending_runlevels_.empty()) {
    RunLevelAction action = std::move(pending_runlevels_.front());
    pending_runlevels_.pop_front();
    Component& c = component(component_id(action.component));
    if (!c.at_safe_point()) {
      retry.push_back(std::move(action));
      continue;
    }
    if (c.runlevel() == action.level) continue;  // no-op switch
    const RunLevel previous = c.runlevel();
    c.runlevel_ = action.level;
    stats_.runlevel_switches++;
    c.on_runlevel(previous);
    if (on_runlevel_switch) on_runlevel_switch(c, previous, action.level);
  }
  pending_runlevels_ = std::move(retry);
}

std::vector<Event> Scheduler::snapshot_queue() const {
  return queue_.sorted_snapshot();
}

void Scheduler::replace_queue(std::vector<Event> events) {
  queue_.clear();
  queue_.reserve(events.size());
  // Events scheduled after this restore must sort after every restored
  // event: in a fresh process (durable-snapshot restore) next_seq_ starts at
  // zero and a collision would scramble the deterministic dispatch order.
  for (auto& e : events) {
    ensure_seq_above(e.seq);
    queue_.push(std::move(e));
  }
}

void Scheduler::ensure_seq_above(std::uint64_t seq) {
  if (next_seq_ <= seq) next_seq_ = seq + 1;
}

std::size_t Scheduler::erase_events_if(
    const std::function<bool(const Event&)>& pred) {
  return queue_.erase_if(pred);
}

void Scheduler::drop_events_after(VirtualTime t) {
  queue_.erase_if([t](const Event& e) { return e.time > t; });
}

}  // namespace pia
