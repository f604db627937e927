#include "wubbleu/scaleout.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <mutex>
#include <utility>

#include "base/error.hpp"

namespace pia::wubbleu {

// ---------------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------------

std::string page_url(std::uint32_t rank) {
  return "http://wubbleu.example/page/" + std::to_string(rank);
}

PageSpec catalog_page_spec(const CatalogSpec& catalog, std::uint32_t rank) {
  PageSpec spec;
  spec.url = page_url(rank);
  // Sizes cycle through a small spread so every shard serves a mix and the
  // per-byte service term actually varies.
  spec.target_bytes = catalog.page_bytes + (rank % 5) * (catalog.page_bytes / 4);
  spec.image_count = catalog.images;
  spec.image_width = 24;
  spec.image_height = 24;
  spec.seed = dist::stream_seed(catalog.seed, rank);
  return spec;
}

// ---------------------------------------------------------------------------
// Wire payloads
// ---------------------------------------------------------------------------

Bytes encode_tagged_request(const TaggedRequest& tagged) {
  serial::OutArchive ar;
  ar.put_varint(tagged.client);
  ar.put_bytes(encode_request(tagged.request));
  return std::move(ar).take();
}

TaggedRequest decode_tagged_request(BytesView data) {
  serial::InArchive ar(data);
  TaggedRequest tagged;
  tagged.client = static_cast<std::uint32_t>(ar.get_varint());
  tagged.request = decode_request(ar.get_bytes());
  return tagged;
}

Bytes encode_response_summary(const ResponseSummary& summary) {
  serial::OutArchive ar;
  ar.put_varint(summary.client);
  ar.put_varint(summary.status);
  ar.put_string(summary.url);
  ar.put_varint(summary.body_bytes);
  ar.put_varint(summary.images);
  ar.put_varint(summary.body_hash);
  return std::move(ar).take();
}

ResponseSummary decode_response_summary(BytesView data) {
  serial::InArchive ar(data);
  ResponseSummary summary;
  summary.client = static_cast<std::uint32_t>(ar.get_varint());
  summary.status = static_cast<std::uint16_t>(ar.get_varint());
  summary.url = ar.get_string();
  summary.body_bytes = ar.get_varint();
  summary.images = static_cast<std::uint32_t>(ar.get_varint());
  summary.body_hash = ar.get_varint();
  return summary;
}

// ---------------------------------------------------------------------------
// ClientLoadGen
// ---------------------------------------------------------------------------

ClientLoadGen::ClientLoadGen(std::string name, Config config)
    : Component(std::move(name)),
      config_(std::move(config)),
      stream_(dist::stream_seed(config_.seed, config_.client_id)) {
  PIA_CHECK(config_.popularity != nullptr, "client needs a popularity model");
  req_ = add_output("req");
  resp_ = add_input("resp");
  fetches_.reserve(config_.requests);
}

std::uint64_t ClientLoadGen::next_u64() {
  // Counter-based SplitMix64: draw k of this stream is the same value
  // Rng(stream_) would produce, but the cursor is a plain counter, so
  // checkpoint/restore is exact.
  return dist::mix64(stream_ + (draws_++) * 0x9E3779B97F4A7C15ULL);
}

double ClientLoadGen::next_uniform() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

void ClientLoadGen::on_init() {
  if (config_.requests == 0) return;
  const std::uint64_t offset =
      config_.start_spread == 0 ? 0 : next_u64() % (config_.start_spread + 1);
  wake_at(ticks(static_cast<VirtualTime::rep>(1 + offset)));
}

void ClientLoadGen::on_wake() { issue_request(); }

void ClientLoadGen::issue_request() {
  const std::uint32_t rank = config_.popularity->sample(next_uniform());
  pending_page_ = rank;
  pending_issued_ = local_time();
  ++issued_;
  const TaggedRequest tagged{.client = config_.client_id,
                             .request = {.url = page_url(rank)}};
  send(req_, Value::packet(encode_tagged_request(tagged)));
}

void ClientLoadGen::on_receive(PortIndex, const Value& value) {
  const ResponseSummary summary = decode_response_summary(value.as_packet());
  PIA_CHECK(summary.client == config_.client_id,
            "response routed to the wrong client");
  fetches_.push_back(Fetch{.page = pending_page_,
                           .issued = pending_issued_,
                           .completed = delivery_time(),
                           .body_bytes = summary.body_bytes,
                           .body_hash = summary.body_hash,
                           .status = summary.status});
  if (issued_ < config_.requests) {
    const VirtualTime think =
        config_.think_base +
        ticks(static_cast<VirtualTime::rep>(
            config_.think_spread == 0
                ? 0
                : next_u64() % (config_.think_spread + 1)));
    wake_after(think);
  }
}

void ClientLoadGen::save_state(serial::OutArchive& ar) const {
  ar.put_varint(stream_);
  ar.put_varint(draws_);
  ar.put_varint(issued_);
  ar.put_varint(pending_page_);
  serial::write(ar, pending_issued_);
  ar.put_varint(fetches_.size());
  for (const Fetch& f : fetches_) {
    ar.put_varint(f.page);
    serial::write(ar, f.issued);
    serial::write(ar, f.completed);
    ar.put_varint(f.body_bytes);
    ar.put_varint(f.body_hash);
    ar.put_varint(f.status);
  }
}

void ClientLoadGen::restore_state(serial::InArchive& ar) {
  stream_ = ar.get_varint();
  draws_ = ar.get_varint();
  issued_ = static_cast<std::uint32_t>(ar.get_varint());
  pending_page_ = static_cast<std::uint32_t>(ar.get_varint());
  pending_issued_ = serial::read<VirtualTime>(ar);
  fetches_.clear();
  const std::uint64_t n = ar.get_varint();
  for (std::uint64_t i = 0; i < n; ++i) {
    Fetch f;
    f.page = static_cast<std::uint32_t>(ar.get_varint());
    f.issued = serial::read<VirtualTime>(ar);
    f.completed = serial::read<VirtualTime>(ar);
    f.body_bytes = ar.get_varint();
    f.body_hash = ar.get_varint();
    f.status = static_cast<std::uint16_t>(ar.get_varint());
    fetches_.push_back(f);
  }
}

// ---------------------------------------------------------------------------
// StationMux
// ---------------------------------------------------------------------------

StationMux::StationMux(std::string name, Config config)
    : Component(std::move(name)), config_(std::move(config)) {
  PIA_CHECK(!config_.clients.empty(), "station needs at least one client");
  for (std::size_t c = 0; c < config_.clients.size(); ++c) {
    up_.push_back(add_input("up" + std::to_string(c)));
    down_.push_back(add_output("down" + std::to_string(c)));
    local_index_[config_.clients[c]] = static_cast<std::uint32_t>(c);
  }
  tx_ = add_output("tx");
  rx_ = add_input("rx");
}

void StationMux::on_receive(PortIndex port, const Value& value) {
  if (port == rx_) {
    // Frontend reply: route back to the tagged client's downlink.
    const ResponseSummary summary = decode_response_summary(value.as_packet());
    const auto it = local_index_.find(summary.client);
    PIA_CHECK(it != local_index_.end(),
              "reply for a client this station does not host");
    ++relayed_down_;
    send(down_[it->second], value);
    return;
  }
  // Client uplink: fan in — forward the original packet upstream, the client
  // tag rides along untouched.
  ++relayed_up_;
  send(tx_, value);
}

void StationMux::save_state(serial::OutArchive& ar) const {
  ar.put_varint(relayed_up_);
  ar.put_varint(relayed_down_);
}

void StationMux::restore_state(serial::InArchive& ar) {
  relayed_up_ = ar.get_varint();
  relayed_down_ = ar.get_varint();
}

// ---------------------------------------------------------------------------
// ShardFrontend
// ---------------------------------------------------------------------------

ShardFrontend::ShardFrontend(std::string name, Config config)
    : Component(std::move(name)), config_(std::move(config)) {
  PIA_CHECK(config_.peers >= 1 && config_.shards >= 1 &&
                config_.clients_per_peer >= 1,
            "frontend needs at least one peer and one shard");
  for (std::uint32_t p = 0; p < config_.peers; ++p) {
    up_.push_back(add_input("up" + std::to_string(p)));
    down_.push_back(add_output("down" + std::to_string(p)));
  }
  for (std::uint32_t m = 0; m < config_.shards; ++m) {
    tx_.push_back(add_output("tx" + std::to_string(m)));
    rx_.push_back(add_input("rx" + std::to_string(m)));
  }
}

void ShardFrontend::on_receive(PortIndex port, const Value& value) {
  if (port >= rx_.front()) {
    // Shard reply: route back to the peer hosting the tagged client.
    const ResponseSummary summary = decode_response_summary(value.as_packet());
    const std::uint32_t peer = summary.client / config_.clients_per_peer;
    PIA_CHECK(peer < config_.peers, "reply for an unknown peer");
    ++routed_replies_;
    send(down_[peer], value);
    return;
  }
  // Request: route by the shard that owns the URL — the same partition
  // function the shards used to split the catalog.
  const TaggedRequest tagged = decode_tagged_request(value.as_packet());
  const std::uint32_t m = dist::shard_of_key(tagged.request.url, config_.shards);
  ++routed_requests_;
  send(tx_[m], value);
}

void ShardFrontend::save_state(serial::OutArchive& ar) const {
  ar.put_varint(routed_requests_);
  ar.put_varint(routed_replies_);
}

void ShardFrontend::restore_state(serial::InArchive& ar) {
  routed_requests_ = ar.get_varint();
  routed_replies_ = ar.get_varint();
}

// ---------------------------------------------------------------------------
// ShardGateway
// ---------------------------------------------------------------------------

ShardGateway::ShardGateway(std::string name, Config config)
    : Component(std::move(name)), config_(std::move(config)) {
  rx_ = add_input("rx");
  tx_ = add_output("tx");
  // Build the hash partition: this shard owns exactly the catalog entries
  // the shared partition function maps here.  Replies are precomputed —
  // serving is then a pure lookup, independent of request arrival order.
  for (std::uint32_t rank = 0;
       rank < static_cast<std::uint32_t>(config_.catalog.pages); ++rank) {
    const std::string url = page_url(rank);
    if (dist::shard_of_key(url, config_.shards) != config_.shard) continue;
    const HttpResponse page = make_page(catalog_page_spec(config_.catalog, rank));
    Entry entry;
    entry.summary =
        ResponseSummary{.client = 0,
                        .status = page.status,
                        .url = url,
                        .body_bytes = page.body.size(),
                        .images = static_cast<std::uint32_t>(page.images.size()),
                        .body_hash = fnv1a(page.body)};
    const auto kb = static_cast<VirtualTime::rep>((page.body.size() + 1023) / 1024);
    entry.service = config_.service_base +
                    ticks(config_.service_per_kb.ticks() * kb);
    pages_.emplace(url, std::move(entry));
  }
}

void ShardGateway::on_receive(PortIndex, const Value& value) {
  const TaggedRequest tagged = decode_tagged_request(value.as_packet());
  const auto it = pages_.find(tagged.request.url);
  PIA_CHECK(it != pages_.end(),
            "request for '" + tagged.request.url +
                "' mis-routed to shard " + std::to_string(config_.shard));
  ++served_;
  ResponseSummary summary = it->second.summary;
  summary.client = tagged.client;
  // Stamp the reply at delivery + service via extra_delay — a pure function
  // of the request, never of this component's own clock.
  send(tx_, Value::packet(encode_response_summary(summary)),
       it->second.service);
}

void ShardGateway::save_state(serial::OutArchive& ar) const {
  ar.put_varint(served_);
}

void ShardGateway::restore_state(serial::InArchive& ar) {
  served_ = ar.get_varint();
}

// ---------------------------------------------------------------------------
// Shared graph pieces
// ---------------------------------------------------------------------------

namespace {

ClientLoadGen::Config client_config(
    const ScaleoutSpec& spec,
    std::shared_ptr<const dist::ZipfSampler> popularity, std::uint32_t id) {
  return ClientLoadGen::Config{
      .client_id = id,
      .seed = spec.seed,
      .requests = spec.requests_per_client,
      .popularity = std::move(popularity),
      .think_base = spec.think_base,
      .think_spread = spec.think_spread,
      .start_spread = spec.start_spread,
  };
}

std::vector<std::uint32_t> station_clients(const ScaleoutSpec& spec,
                                           std::size_t station) {
  std::vector<std::uint32_t> ids;
  const std::size_t first = station * spec.clients_per_station;
  const std::size_t last =
      std::min(spec.clients, first + spec.clients_per_station);
  for (std::size_t i = first; i < last; ++i)
    ids.push_back(static_cast<std::uint32_t>(i));
  return ids;
}

ShardFrontend::Config frontend_config(const ScaleoutSpec& spec) {
  return ShardFrontend::Config{
      .peers = static_cast<std::uint32_t>(
          spec.aggregated ? spec.stations() : spec.clients),
      .shards = spec.shards,
      .clients_per_peer = static_cast<std::uint32_t>(
          spec.aggregated ? spec.clients_per_station : 1),
  };
}

ShardGateway::Config shard_config(const ScaleoutSpec& spec, std::uint32_t m) {
  return ShardGateway::Config{
      .shard = m,
      .shards = spec.shards,
      .catalog = spec.catalog,
      .service_base = spec.service_base,
      .service_per_kb = spec.service_per_kb,
  };
}

std::uint64_t collect(const std::vector<ClientLoadGen*>& clients,
                      ScaleoutResult& result) {
  std::uint64_t total = 0;
  result.fetches.clear();
  result.fetches.reserve(clients.size());
  for (const ClientLoadGen* c : clients) {
    result.fetches.push_back(c->fetches());
    total += c->fetches().size();
  }
  return total;
}

}  // namespace

std::uint64_t ScaleoutResult::total_fetches() const {
  std::uint64_t n = 0;
  for (const auto& per_client : fetches) n += per_client.size();
  return n;
}

// ---------------------------------------------------------------------------
// Single-host oracle
// ---------------------------------------------------------------------------

ScaleoutResult run_single_host(const ScaleoutSpec& spec, VirtualTime horizon) {
  Scheduler sched("scaleout");
  auto popularity = std::make_shared<const dist::ZipfSampler>(
      spec.catalog.pages, spec.zipf_exponent);

  std::vector<ClientLoadGen*> clients;
  for (std::size_t i = 0; i < spec.clients; ++i)
    clients.push_back(&sched.emplace<ClientLoadGen>(
        "client" + std::to_string(i),
        client_config(spec, popularity, static_cast<std::uint32_t>(i))));

  ShardFrontend& frontend =
      sched.emplace<ShardFrontend>("frontend", frontend_config(spec));

  std::vector<ShardGateway*> shards;
  for (std::uint32_t m = 0; m < spec.shards; ++m)
    shards.push_back(&sched.emplace<ShardGateway>(
        "shard" + std::to_string(m), shard_config(spec, m)));

  if (spec.aggregated) {
    std::vector<StationMux*> stations;
    for (std::size_t s = 0; s < spec.stations(); ++s)
      stations.push_back(&sched.emplace<StationMux>(
          "station" + std::to_string(s),
          StationMux::Config{.clients = station_clients(spec, s)}));
    for (std::size_t i = 0; i < spec.clients; ++i) {
      const std::size_t s = i / spec.clients_per_station;
      const std::size_t k = i % spec.clients_per_station;
      sched.connect(clients[i]->id(), "req", stations[s]->id(),
                    "up" + std::to_string(k), spec.uplink);
      sched.connect(stations[s]->id(), "down" + std::to_string(k),
                    clients[i]->id(), "resp", spec.downlink);
    }
    for (std::size_t s = 0; s < stations.size(); ++s) {
      sched.connect(stations[s]->id(), "tx", frontend.id(),
                    "up" + std::to_string(s), spec.backhaul);
      sched.connect(frontend.id(), "down" + std::to_string(s),
                    stations[s]->id(), "rx", spec.backhaul);
    }
  } else {
    // The baseline folds the station hop into its direct nets, so both
    // layouts share one end-to-end virtual timing.
    for (std::size_t i = 0; i < spec.clients; ++i) {
      sched.connect(clients[i]->id(), "req", frontend.id(),
                    "up" + std::to_string(i), spec.uplink + spec.backhaul);
      sched.connect(frontend.id(), "down" + std::to_string(i),
                    clients[i]->id(), "resp", spec.backhaul + spec.downlink);
    }
  }
  for (std::uint32_t m = 0; m < spec.shards; ++m) {
    sched.connect(frontend.id(), "tx" + std::to_string(m), shards[m]->id(),
                  "rx", spec.fanout);
    sched.connect(shards[m]->id(), "tx", frontend.id(),
                  "rx" + std::to_string(m), spec.fanout);
  }

  sched.init();
  if (horizon.is_infinite())
    sched.run();
  else
    sched.run_until(horizon);

  ScaleoutResult result;
  collect(clients, result);
  result.events_dispatched = sched.stats().events_dispatched;
  return result;
}

// ---------------------------------------------------------------------------
// Distributed deployment
// ---------------------------------------------------------------------------

void raise_fd_limit() {
  rlimit limit{};
  if (getrlimit(RLIMIT_NOFILE, &limit) == 0 &&
      limit.rlim_cur < limit.rlim_max) {
    limit.rlim_cur = limit.rlim_max;
    (void)setrlimit(RLIMIT_NOFILE, &limit);
  }
}

ScaleoutCluster::ScaleoutCluster(const ScaleoutSpec& spec) : spec_(spec) {
  static std::once_flag fd_once;
  std::call_once(fd_once, raise_fd_limit);

  auto popularity = std::make_shared<const dist::ZipfSampler>(
      spec_.catalog.pages, spec_.zipf_exponent);

  // Clients (and their stations) pool on one edge node.  The frontend sits
  // on a core node and each gateway shard gets its own node, reached over
  // cross-node loopback — exactly the tree a multi-host deployment shards
  // into.  The interconnection rule (dist/topology.hpp) keeps this a tree:
  // that is what makes conservative self-restriction removal exact, and the
  // frontend is where the per-client vs aggregated fan-in cost concentrates.
  dist::PiaNode& edge = cluster_.add_node("edge");
  edge.set_worker_threads(spec_.worker_threads);
  dist::PiaNode& core = cluster_.add_node("core");
  core.set_worker_threads(spec_.worker_threads > 0 ? 1 : 0);
  const std::size_t replicas =
      std::max<std::size_t>(std::size_t{1}, spec_.shard_replicas);
  std::vector<dist::PiaNode*> shard_nodes;  // [m * replicas + k]
  for (std::uint32_t m = 0; m < spec_.shards; ++m) {
    for (std::size_t k = 0; k < replicas; ++k) {
      // Replica members get their own nodes: ReplicaSet placement is
      // anti-affine, one clone per failure domain.
      std::string name = "shardnode" + std::to_string(m);
      if (replicas > 1) name += "r" + std::to_string(k);
      shard_nodes.push_back(&cluster_.add_node(name));
      shard_nodes.back()->set_worker_threads(spec_.worker_threads > 0 ? 1 : 0);
    }
  }

  std::vector<dist::Subsystem*> client_ss;
  for (std::size_t i = 0; i < spec_.clients; ++i) {
    dist::Subsystem& ss = edge.add_subsystem("client" + std::to_string(i));
    ss.set_channel_batch_limit(spec_.batch_limit);
    clients_.push_back(&ss.scheduler().emplace<ClientLoadGen>(
        "client" + std::to_string(i),
        client_config(spec_, popularity, static_cast<std::uint32_t>(i))));
    client_ss.push_back(&ss);
    subsystems_.push_back(&ss);
  }

  dist::Subsystem& frontend_ss = core.add_subsystem("frontend");
  frontend_ss.set_channel_batch_limit(spec_.batch_limit);
  frontend_ = &frontend_ss.scheduler().emplace<ShardFrontend>(
      "frontend", frontend_config(spec_));
  frontend_ss_ = &frontend_ss;
  subsystems_.push_back(&frontend_ss);

  std::vector<std::vector<dist::Subsystem*>> shard_ss;  // [shard][member]
  for (std::uint32_t m = 0; m < spec_.shards; ++m) {
    shard_ss.emplace_back();
    shard_members_.emplace_back();
    for (std::size_t k = 0; k < replicas; ++k) {
      // Every member of a shard runs the identical deterministic config;
      // only the instance name differs.  The logical shard name is the
      // ReplicaSet's ("shard<m>"), so members get an r<k> suffix.
      std::string name = "shard" + std::to_string(m);
      if (replicas > 1) name += "r" + std::to_string(k);
      dist::Subsystem& ss =
          shard_nodes[m * replicas + k]->add_subsystem(name);
      ss.set_channel_batch_limit(spec_.batch_limit);
      shard_members_.back().push_back(&ss.scheduler().emplace<ShardGateway>(
          name, shard_config(spec_, m)));
      shard_ss.back().push_back(&ss);
      subsystems_.push_back(&ss);
    }
    shards_.push_back(shard_members_.back().front());
  }

  Scheduler& fs = frontend_ss.scheduler();
  std::size_t chan = 0;  // creation index, drives the mode cycle

  if (spec_.aggregated) {
    std::vector<dist::Subsystem*> station_ss;
    for (std::size_t s = 0; s < spec_.stations(); ++s) {
      dist::Subsystem& ss = edge.add_subsystem("station" + std::to_string(s));
      ss.set_channel_batch_limit(spec_.batch_limit);
      stations_.push_back(&ss.scheduler().emplace<StationMux>(
          "station" + std::to_string(s),
          StationMux::Config{.clients = station_clients(spec_, s)}));
      station_ss.push_back(&ss);
      subsystems_.push_back(&ss);
    }

    for (std::size_t i = 0; i < spec_.clients; ++i) {
      const std::size_t s = i / spec_.clients_per_station;
      const std::size_t k = i % spec_.clients_per_station;
      Scheduler& cs = client_ss[i]->scheduler();
      Scheduler& st = station_ss[s]->scheduler();
      const dist::ChannelPair pair = cluster_.connect_checked(
          *client_ss[i], *station_ss[s], spec_.mode_at(chan++));

      const NetId up_c = cs.make_net("up", spec_.uplink);
      cs.attach(up_c, clients_[i]->id(), "req");
      const NetId up_s = st.make_net("up" + std::to_string(i));
      st.attach(up_s, stations_[s]->id(), "up" + std::to_string(k));
      dist::split_net(*client_ss[i], pair.a, up_c, *station_ss[s], pair.b,
                      up_s);

      const NetId down_s = st.make_net("down" + std::to_string(i),
                                       spec_.downlink);
      st.attach(down_s, stations_[s]->id(), "down" + std::to_string(k));
      const NetId down_c = cs.make_net("down");
      cs.attach(down_c, clients_[i]->id(), "resp");
      dist::split_net(*station_ss[s], pair.b, down_s, *client_ss[i], pair.a,
                      down_c);

      client_ss[i]->set_lookahead(pair.a, spec_.uplink);
      client_ss[i]->set_reaction_lookahead(pair.a, spec_.think_base);
      station_ss[s]->set_lookahead(pair.b, spec_.downlink);
      station_ss[s]->set_reaction_lookahead(
          pair.b, spec_.backhaul + spec_.fanout + spec_.service_base +
                      spec_.fanout + spec_.backhaul);
      ++channel_count_;
    }

    for (std::size_t s = 0; s < station_ss.size(); ++s) {
      Scheduler& st = station_ss[s]->scheduler();
      const dist::ChannelPair pair = cluster_.connect_checked(
          *station_ss[s], frontend_ss, spec_.mode_at(chan++));

      const NetId tx_s = st.make_net("tx", spec_.backhaul);
      st.attach(tx_s, stations_[s]->id(), "tx");
      const NetId up_f = fs.make_net("up" + std::to_string(s));
      fs.attach(up_f, frontend_->id(), "up" + std::to_string(s));
      dist::split_net(*station_ss[s], pair.a, tx_s, frontend_ss, pair.b, up_f);

      const NetId down_f = fs.make_net("down" + std::to_string(s),
                                       spec_.backhaul);
      fs.attach(down_f, frontend_->id(), "down" + std::to_string(s));
      const NetId rx_s = st.make_net("rx");
      st.attach(rx_s, stations_[s]->id(), "rx");
      dist::split_net(frontend_ss, pair.b, down_f, *station_ss[s], pair.a,
                      rx_s);

      station_ss[s]->set_lookahead(pair.a, spec_.backhaul);
      station_ss[s]->set_reaction_lookahead(
          pair.a, spec_.downlink + spec_.think_base + spec_.uplink);
      frontend_ss.set_lookahead(pair.b, spec_.backhaul);
      frontend_ss.set_reaction_lookahead(
          pair.b, spec_.fanout + spec_.service_base + spec_.fanout);
      ++channel_count_;
    }
  } else {
    for (std::size_t i = 0; i < spec_.clients; ++i) {
      Scheduler& cs = client_ss[i]->scheduler();
      const dist::ChannelPair pair = cluster_.connect_checked(
          *client_ss[i], frontend_ss, spec_.mode_at(chan++));

      const NetId up_c = cs.make_net("up", spec_.uplink + spec_.backhaul);
      cs.attach(up_c, clients_[i]->id(), "req");
      const NetId up_f = fs.make_net("up" + std::to_string(i));
      fs.attach(up_f, frontend_->id(), "up" + std::to_string(i));
      dist::split_net(*client_ss[i], pair.a, up_c, frontend_ss, pair.b, up_f);

      const NetId down_f = fs.make_net("down" + std::to_string(i),
                                       spec_.backhaul + spec_.downlink);
      fs.attach(down_f, frontend_->id(), "down" + std::to_string(i));
      const NetId down_c = cs.make_net("down");
      cs.attach(down_c, clients_[i]->id(), "resp");
      dist::split_net(frontend_ss, pair.b, down_f, *client_ss[i], pair.a,
                      down_c);

      client_ss[i]->set_lookahead(pair.a, spec_.uplink + spec_.backhaul);
      client_ss[i]->set_reaction_lookahead(pair.a, spec_.think_base);
      frontend_ss.set_lookahead(pair.b, spec_.backhaul + spec_.downlink);
      frontend_ss.set_reaction_lookahead(
          pair.b, spec_.fanout + spec_.service_base + spec_.fanout);
      ++channel_count_;
    }
  }

  for (std::uint32_t m = 0; m < spec_.shards; ++m) {
    if (replicas == 1) {
      Scheduler& sh = shard_ss[m][0]->scheduler();
      const dist::ChannelPair pair = cluster_.connect_checked(
          frontend_ss, *shard_ss[m][0], spec_.mode_at(chan++));

      const NetId tx_f = fs.make_net("tx" + std::to_string(m), spec_.fanout);
      fs.attach(tx_f, frontend_->id(), "tx" + std::to_string(m));
      const NetId rx_m = sh.make_net("rx");
      sh.attach(rx_m, shards_[m]->id(), "rx");
      dist::split_net(frontend_ss, pair.a, tx_f, *shard_ss[m][0], pair.b,
                      rx_m);

      const NetId tx_m = sh.make_net("tx", spec_.fanout);
      sh.attach(tx_m, shards_[m]->id(), "tx");
      const NetId rx_f = fs.make_net("rx" + std::to_string(m));
      fs.attach(rx_f, frontend_->id(), "rx" + std::to_string(m));
      dist::split_net(*shard_ss[m][0], pair.b, tx_m, frontend_ss, pair.a,
                      rx_f);

      frontend_ss.set_lookahead(pair.a, spec_.fanout);
      frontend_ss.set_reaction_lookahead(
          pair.a, spec_.downlink + spec_.think_base + spec_.uplink);
      shard_ss[m][0]->set_lookahead(pair.b, spec_.fanout);
      shard_ss[m][0]->set_reaction_lookahead(pair.b, spec_.service_base);
      ++channel_count_;
      continue;
    }

    // Replicated: the K clones form ONE logical channel to the frontend —
    // sends fan out to every live member, replies dedup down to a single
    // stream, and a member crash promotes a survivor with zero rollback.
    auto set = std::make_unique<dist::ReplicaSet>("shard" + std::to_string(m));
    for (std::size_t k = 0; k < replicas; ++k) set->add_member(*shard_ss[m][k]);

    std::vector<transport::FaultPlan> member_faults;
    const ScaleoutSpec::ReplicaKill& kill = spec_.replica_kill;
    if (kill.frames > 0 && kill.shard == m) {
      member_faults.resize(replicas);
      // Endpoint 2 is the member side of each sub-link: the clone's wire
      // dies and the group side survives to detect it and promote.
      member_faults.at(kill.member) =
          transport::FaultPlan::crash_at(kill.seed, kill.frames, 2);
    }

    (void)spec_.mode_at(chan++);  // keep the mode cycle aligned with K == 1
    const dist::ReplicaSet::Channel rchan = dist::connect_replicated_checked(
        cluster_, frontend_ss, *set, dist::ChannelMode::kConservative,
        dist::Wire::kLoopback, {}, std::move(member_faults));

    const NetId tx_f = fs.make_net("tx" + std::to_string(m), spec_.fanout);
    fs.attach(tx_f, frontend_->id(), "tx" + std::to_string(m));
    NetId rx_m{};
    NetId tx_m{};
    for (std::size_t k = 0; k < replicas; ++k) {
      // Clones create their nets in the same order, so the NetIds (and the
      // per-channel export indices) line up across the whole set.
      Scheduler& sh = shard_ss[m][k]->scheduler();
      rx_m = sh.make_net("rx");
      sh.attach(rx_m, shard_members_[m][k]->id(), "rx");
      tx_m = sh.make_net("tx", spec_.fanout);
      sh.attach(tx_m, shard_members_[m][k]->id(), "tx");
    }
    set->export_net(frontend_ss, rchan, tx_f, rx_m);

    const NetId rx_f = fs.make_net("rx" + std::to_string(m));
    fs.attach(rx_f, frontend_->id(), "rx" + std::to_string(m));
    set->export_net(frontend_ss, rchan, rx_f, tx_m);

    frontend_ss.set_lookahead(rchan.peer, spec_.fanout);
    frontend_ss.set_reaction_lookahead(
        rchan.peer, spec_.downlink + spec_.think_base + spec_.uplink);
    for (std::size_t k = 0; k < replicas; ++k) {
      shard_ss[m][k]->set_lookahead(rchan.members[k], spec_.fanout);
      shard_ss[m][k]->set_reaction_lookahead(rchan.members[k],
                                             spec_.service_base);
    }
    replica_sets_.push_back(std::move(set));
    ++channel_count_;
  }

  cluster_.start_all();
}

std::map<std::string, dist::Subsystem::RunOutcome> ScaleoutCluster::run(
    const dist::Subsystem::RunConfig& config) {
  return cluster_.run_all(config);
}

ScaleoutResult ScaleoutCluster::result() const {
  ScaleoutResult result;
  collect(clients_, result);
  result.events_dispatched = events_dispatched();
  return result;
}

dist::SubsystemStats ScaleoutCluster::total_stats() const {
  dist::SubsystemStats total;
  for (const dist::Subsystem* ss : subsystems_)
    for (const dist::SubsystemCounter& row : dist::kSubsystemCounters)
      total.*row.field += ss->stats().*row.field;
  return total;
}

const dist::SubsystemStats& ScaleoutCluster::frontend_stats() const {
  return frontend_ss_->stats();
}

std::uint64_t ScaleoutCluster::events_dispatched() const {
  std::uint64_t total = 0;
  for (const dist::Subsystem* ss : subsystems_)
    total += ss->scheduler().stats().events_dispatched;
  return total;
}

}  // namespace pia::wubbleu
