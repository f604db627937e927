#include "dist/node.hpp"

#include <atomic>
#include <thread>

#include "base/error.hpp"
#include "base/log.hpp"
#include "dist/executor.hpp"
#include "obs/chrome_trace.hpp"

namespace pia::dist {

std::atomic<std::uint32_t> PiaNode::next_node_seed_{0};

PiaNode::PiaNode(std::string name)
    : name_(std::move(name)),
      // Subsystem numeric ids must be process-unique so SendIds never
      // collide across channels.
      next_subsystem_id_(next_node_seed_.fetch_add(1000) + 1000) {}

Subsystem& PiaNode::add_subsystem(const std::string& subsystem_name) {
  subsystems_.push_back(
      std::make_unique<Subsystem>(subsystem_name, next_subsystem_id_++));
  subsystems_.back()->set_host_node(this);
  return *subsystems_.back();
}

std::vector<Subsystem*> PiaNode::subsystems() {
  std::vector<Subsystem*> out;
  out.reserve(subsystems_.size());
  for (auto& s : subsystems_) out.push_back(s.get());
  return out;
}

void PiaNode::start_all() {
  for (auto& s : subsystems_)
    if (!s->started()) s->start();
}

transport::LinkPair make_wire_pair(Wire wire) {
  switch (wire) {
    case Wire::kLoopback:
      return transport::make_loopback_pair();
    case Wire::kTcp: {
      transport::TcpListener listener(0);
      return transport::connect_tcp_pair(listener);
    }
  }
  raise(ErrorKind::kState, "unknown wire kind");
}

transport::LinkPair decorate_pair(transport::LinkPair pair,
                                  const transport::LatencyModel& latency,
                                  transport::FaultPlan fault) {
  fault.latency = latency;
  if (fault.enabled()) {
    pair.a = transport::make_fault_link(std::move(pair.a),
                                        fault.for_endpoint(1));
    pair.b = transport::make_fault_link(std::move(pair.b),
                                        fault.for_endpoint(2));
  }
  return pair;
}

ChannelPair connect(Subsystem& a, Subsystem& b, ChannelMode mode, Wire wire,
                    transport::LatencyModel latency,
                    const transport::FaultPlan& fault) {
  transport::LinkPair pair =
      decorate_pair(make_wire_pair(wire), latency, fault);
  const std::string channel_name = a.name() + "<->" + b.name();
  return ChannelPair{
      .a = a.add_channel(channel_name, mode, std::move(pair.a)),
      .b = b.add_channel(channel_name, mode, std::move(pair.b)),
  };
}

void split_net(Subsystem& a, ChannelId chan_a, NetId net_a, Subsystem& b,
               ChannelId chan_b, NetId net_b) {
  const std::uint32_t index_a = a.export_net(chan_a, net_a);
  const std::uint32_t index_b = b.export_net(chan_b, net_b);
  PIA_CHECK(index_a == index_b,
            "split-net registration order differs between '" + a.name() +
                "' and '" + b.name() + "'");
}

PiaNode& NodeCluster::add_node(const std::string& node_name) {
  nodes_.push_back(std::make_unique<PiaNode>(node_name));
  return *nodes_.back();
}

PiaNode& NodeCluster::node(const std::string& node_name) {
  for (auto& n : nodes_)
    if (n->name() == node_name) return *n;
  raise(ErrorKind::kNotFound, "no node named '" + node_name + "'");
}

std::vector<Subsystem*> NodeCluster::all_subsystems() {
  std::vector<Subsystem*> out;
  for (auto& n : nodes_)
    for (Subsystem* s : n->subsystems()) out.push_back(s);
  return out;
}

ChannelPair NodeCluster::connect_checked(Subsystem& a, Subsystem& b,
                                         ChannelMode mode, Wire wire,
                                         transport::LatencyModel latency,
                                         const transport::FaultPlan& fault) {
  register_logical_channel(a.name(), b.name());
  return connect(a, b, mode, wire, latency, fault);
}

void NodeCluster::register_logical_channel(const std::string& a,
                                           const std::string& b) {
  topology_.add_channel(a, b);
  topology_.validate();  // fail fast at wiring time
}

void NodeCluster::start_all() {
  topology_.validate();
  // A channel wired with Subsystem::add_channel bypasses the validation
  // above.  One that parallels a declared edge never terminates (the probe
  // wave cannot close on a multi-edge), so a declared subsystem must own
  // exactly the channels declared for it.
  for (Subsystem* s : all_subsystems())
    if (topology_.has_subsystem(s->name()) &&
        s->channel_count() != topology_.degree(s->name()))
      raise(ErrorKind::kTopology,
            "subsystem '" + s->name() + "' has " +
                std::to_string(s->channel_count()) + " channels but " +
                std::to_string(topology_.degree(s->name())) +
                " declared to the cluster topology (parallel or "
                "unregistered channels)");
  for (auto& n : nodes_) n->start_all();
}

std::map<std::string, Subsystem::RunOutcome> NodeCluster::run_all(
    const Subsystem::RunConfig& config) {
  // Per node: a NodeExecutor pool when the node asked for one, the legacy
  // one-thread-per-subsystem layout otherwise.  Nodes always run
  // concurrently with each other either way.
  struct Runner {
    std::thread thread;
    std::map<std::string, Subsystem::RunOutcome> outcomes;
    std::exception_ptr error;
  };
  std::vector<std::unique_ptr<Runner>> runners;
  for (auto& n : nodes_) {
    if (n->worker_threads() > 0) {
      auto runner = std::make_unique<Runner>();
      Runner* r = runner.get();
      PiaNode* node = n.get();
      r->thread = std::thread([r, node, &config] {
        try {
          NodeExecutor executor(node->subsystems(), node->worker_threads());
          r->outcomes = executor.run(config);
        } catch (...) {
          r->error = std::current_exception();
        }
      });
      runners.push_back(std::move(runner));
    } else {
      for (Subsystem* s : n->subsystems()) {
        auto runner = std::make_unique<Runner>();
        Runner* r = runner.get();
        r->thread = std::thread([r, s, &config] {
          try {
            r->outcomes[s->name()] = s->run(config);
          } catch (...) {
            r->error = std::current_exception();
          }
        });
        runners.push_back(std::move(runner));
      }
    }
  }
  for (auto& r : runners) r->thread.join();
  std::map<std::string, Subsystem::RunOutcome> outcomes;
  for (auto& r : runners) {
    if (r->error) std::rethrow_exception(r->error);
    outcomes.merge(r->outcomes);
  }
  return outcomes;
}

VirtualTime NodeCluster::compute_gvt() {
  // Requires that no runner thread is active.  Drain repeatedly until one
  // full pass moves nothing — then no messages are in flight and the min
  // local floor is an exact GVT.
  std::vector<Subsystem*> subs = all_subsystems();
  bool moved = true;
  while (moved) {
    moved = false;
    for (Subsystem* s : subs)
      if (!s->retired()) moved |= s->drain();
  }
  VirtualTime gvt = VirtualTime::infinity();
  for (Subsystem* s : subs) {
    // A dead replica member's floor is frozen at its crash point; letting it
    // into the min would drag cluster GVT backwards forever.
    if (s->retired()) continue;
    gvt = min(gvt, s->local_virtual_floor());
  }
  return gvt;
}

VirtualTime NodeCluster::fossil_collect_all() {
  const VirtualTime gvt = compute_gvt();
  for (Subsystem* s : all_subsystems()) s->fossil_collect(gvt);
  return gvt;
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

void collect_metrics(Subsystem& subsystem, obs::MetricsRegistry& registry,
                     const std::string& tag) {
  const std::string& scope_tag = tag.empty() ? subsystem.name() : tag;
  const std::string sub_scope = "sub/" + scope_tag;
  // A second collection into the same scope would silently interleave two
  // subsystems' counters; scope tags must be unique per registry.
  PIA_CHECK(!registry.has_scope(sub_scope),
            "metric scope collision: '" + sub_scope +
                "' already collected; disambiguate with an explicit tag");
  // Every counter twice: flat under "sub/<tag>", and grouped by the layer
  // that counts it under "engine/<tag>/<group>".
  const SubsystemStats& stats = subsystem.stats();
  for (const SubsystemCounter& row : kSubsystemCounters) {
    registry.set(sub_scope, row.name, stats.*row.field);
    registry.set("engine/" + scope_tag + "/" + row.group, row.name,
                 stats.*row.field);
  }
  if (const SnapshotStore* store = subsystem.snapshot_store()) {
    registry.set(sub_scope, "store_commits", store->stats().commits);
    registry.set(sub_scope, "store_bytes_written",
                 store->stats().bytes_written);
    registry.set(sub_scope, "store_pruned", store->stats().pruned);
    registry.set(sub_scope, "store_load_failures",
                 store->stats().load_failures);
    registry.set(sub_scope, "store_invalidated", store->stats().invalidated);
  }

  const Scheduler& sched = subsystem.scheduler();
  registry.set(sub_scope, "sched_events_dispatched",
               sched.stats().events_dispatched);
  registry.set(sub_scope, "sched_events_scheduled",
               sched.stats().events_scheduled);
  registry.set(sub_scope, "sched_wakes_dispatched",
               sched.stats().wakes_dispatched);
  registry.set(sub_scope, "sched_violations", sched.stats().violations);
  registry.set(sub_scope, "sched_runlevel_switches",
               sched.stats().runlevel_switches);
  registry.set(sub_scope, "trace_records", sched.trace().total_recorded());
  registry.set(sub_scope, "trace_dropped", sched.trace().dropped());

  const std::string dispatch_scope = "dispatch/" + scope_tag;
  for (const ComponentId id : sched.component_ids())
    registry.set(dispatch_scope, sched.component(id).name(),
                 sched.dispatches(id));

  for (std::size_t i = 0; i < subsystem.channel_count(); ++i) {
    ChannelEndpoint& c =
        subsystem.channel(ChannelId{static_cast<std::uint32_t>(i)});
    const std::string scope = "chan/" + scope_tag + "/" +
                              std::to_string(c.index) + ":" + c.name();
    registry.set(scope, "event_msgs_sent", c.event_msgs_sent);
    registry.set(scope, "event_msgs_received", c.event_msgs_received);
    registry.set(scope, "msgs_sent", c.msgs_sent);
    registry.set(scope, "msgs_received", c.msgs_received);
    registry.set(scope, "output_log", std::uint64_t{c.output_log.size()});
    registry.set(scope, "input_log", std::uint64_t{c.input_log.size()});
    registry.set(scope, "output_trimmed", c.output_trimmed);
    registry.set(scope, "input_trimmed", c.input_trimmed);
    registry.set(scope, "granted_in_ticks", c.granted_in.ticks());
    registry.set(scope, "granted_out_ticks", c.granted_out.ticks());
    // Live sync mode (0 = conservative, 1 = optimistic) and its
    // renegotiation epoch, so dashboards can see adaptive flips land.
    registry.set(scope, "mode", static_cast<std::uint64_t>(c.mode()));
    registry.set(scope, "mode_epoch", c.mode_epoch());
    const transport::LinkStats link = c.link().stats();
    registry.set(scope, "link_messages_sent", link.messages_sent);
    registry.set(scope, "link_messages_received", link.messages_received);
    // messages_sent / frames_sent is the batching efficiency of the channel.
    registry.set(scope, "link_frames_sent", link.frames_sent);
    registry.set(scope, "link_frames_received", link.frames_received);
    registry.set(scope, "link_bytes_sent", link.bytes_sent);
    registry.set(scope, "link_bytes_received", link.bytes_received);
    registry.set(scope, "link_faults_delayed", link.faults_delayed);
    registry.set(scope, "link_faults_duplicated", link.faults_duplicated);
    registry.set(scope, "link_faults_dropped", link.faults_dropped);
    registry.set(scope, "link_faults_dup_discarded",
                 link.faults_dup_discarded);
    registry.set(scope, "link_faults_partition_held",
                 link.faults_partition_held);
    registry.set(scope, "link_faults_abrupt_closes",
                 link.faults_abrupt_closes);
    registry.set(scope, "heartbeats_received", c.heartbeats_received);
    registry.set(scope, "peer_down", std::uint64_t{c.peer_down ? 1u : 0u});
  }
}

obs::MetricsRegistry NodeCluster::metrics() {
  obs::MetricsRegistry registry;
  // Scenario generators legitimately stamp out same-named subsystems on
  // different nodes; suffix duplicates with their cluster ordinal so every
  // scope stays unique (unique names keep their plain scope — the stable
  // interface existing consumers read).
  std::map<std::string, std::size_t> name_counts;
  const std::vector<Subsystem*> subsystems = all_subsystems();
  for (Subsystem* s : subsystems) ++name_counts[s->name()];
  std::map<std::string, std::size_t> ordinals;
  for (Subsystem* s : subsystems) {
    std::string tag = s->name();
    if (name_counts[tag] > 1)
      tag += "#" + std::to_string(ordinals[s->name()]++);
    collect_metrics(*s, registry, tag);
  }
  return registry;
}

void NodeCluster::export_chrome_trace(const std::string& path) {
  std::vector<const obs::TraceBuffer*> tracks;
  for (Subsystem* s : all_subsystems())
    tracks.push_back(&s->scheduler().trace());
  const obs::MetricsRegistry registry = metrics();
  obs::write_chrome_trace_file(path, tracks, &registry);
}

}  // namespace pia::dist
