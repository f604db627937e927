// Scale-out workload harness: N handhelds against a sharded gateway farm.
//
// The paper's case study is one handheld fetching one page; the product it
// models shipped to millions.  This generator stamps out N handheld
// subsystems driving Zipf-distributed page fetches over the HTTP stack
// against gateway state hash-partitioned across M shard nodes
// (dist/sharding.hpp owns the partition function and the per-client seed
// streams).
//
// Topology.  The paper's interconnection rule (§2.2.3, enforced by
// dist::Topology) requires the subsystem graph to be a forest — only
// bidirectional-edge cycles — so a flat clients x shards mesh is illegal.
// The farm is therefore a tree rooted at a gateway *frontend*: the fan-in
// point that routes requests to the shard owning each URL and replies back
// by client tag.  Two client-facing layouts, selected by
// ScaleoutSpec::aggregated:
//
//   * per-client (baseline): every client holds its own channel straight to
//     the frontend.  Gateway-farm channel count is N and conservative
//     grant/request traffic at the frontend scales O(N) — the cost the
//     aggregation exists to beat.
//
//   * aggregated: clients uplink to a base-station mux co-hosted on their
//     edge node; each station fans its ~clients_per_station uplinks into
//     ONE batched channel to the frontend (the aggregation/decimation idea
//     of the scalable co-sim interface literature).  Farm-side channel
//     count drops to N/clients_per_station and frame batching packs many
//     client requests per link frame.
//
// Decimation: the shard replies with a fixed-size summary (status, byte
// count, image count, body fingerprint) instead of streaming the page body
// — the channel carries the traffic *shape*, the content stays checkable
// through the fingerprint.
//
// Determinism contract: every client draws from an RNG stream derived as
// stream_seed(seed, client_id); service and routing are pure functions of
// the request.  No component on a many-client fan-in path ever calls
// advance() — each reply is stamped relative to the request's delivery time
// — so results cannot depend on the wall-clock arrival order of same-time
// events.  Any (N, shards, workers, mode) run is therefore reproducible
// from its seed, and run_single_host() builds the identical component graph
// in one scheduler as a bit-exact oracle for the distributed runs.  The two
// layouts fold the same total delay into their net paths, so their fetch
// logs are identical too.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/component.hpp"
#include "core/scheduler.hpp"
#include "dist/node.hpp"
#include "dist/replica.hpp"
#include "dist/sharding.hpp"
#include "wubbleu/http.hpp"
#include "wubbleu/page.hpp"

namespace pia::wubbleu {

// ---------------------------------------------------------------------------
// Catalog: the page population all shards partition between them
// ---------------------------------------------------------------------------

struct CatalogSpec {
  std::size_t pages = 32;
  std::size_t page_bytes = 2048;  // base body size; varies a little by rank
  std::uint32_t images = 1;
  std::uint64_t seed = 1998;
};

/// URL of catalog rank `rank` (rank 0 is the hottest page under Zipf).
[[nodiscard]] std::string page_url(std::uint32_t rank);

/// PageSpec for one catalog entry: sizes vary by rank so shards serve a mix,
/// content seed derives from (catalog seed, rank).
[[nodiscard]] PageSpec catalog_page_spec(const CatalogSpec& catalog,
                                         std::uint32_t rank);

// ---------------------------------------------------------------------------
// Wire payloads
// ---------------------------------------------------------------------------

/// Uplink payload: the client's id rides in front of the plain HTTP request
/// so fan-in points (station mux, gateway frontend) can route replies back
/// without per-client connection state.
struct TaggedRequest {
  std::uint32_t client = 0;
  HttpRequest request;
};

[[nodiscard]] Bytes encode_tagged_request(const TaggedRequest& tagged);
[[nodiscard]] TaggedRequest decode_tagged_request(BytesView data);

/// Downlink payload: the decimated reply.  Fixed-size summary of the page
/// the gateway served; body_hash fingerprints the full body so tests can
/// check content equivalence without shipping it.
struct ResponseSummary {
  std::uint32_t client = 0;
  std::uint16_t status = 200;
  std::string url;
  std::uint64_t body_bytes = 0;
  std::uint32_t images = 0;
  std::uint64_t body_hash = 0;
};

[[nodiscard]] Bytes encode_response_summary(const ResponseSummary& summary);
[[nodiscard]] ResponseSummary decode_response_summary(BytesView data);

// ---------------------------------------------------------------------------
// Components
// ---------------------------------------------------------------------------

/// One completed page fetch as observed by a client.  The per-client fetch
/// logs are the equivalence artifact: identical (seed, topology) runs must
/// produce identical logs, bit for bit, on any worker count or node layout.
struct Fetch {
  std::uint32_t page = 0;
  VirtualTime issued = VirtualTime::zero();
  VirtualTime completed = VirtualTime::zero();
  std::uint64_t body_bytes = 0;
  std::uint64_t body_hash = 0;
  std::uint16_t status = 0;

  friend bool operator==(const Fetch&, const Fetch&) = default;
};

/// Closed-loop load generator standing in for one handheld user: think,
/// pick a page by Zipf rank, fetch, think again.  Draws come from a
/// counter-based SplitMix64 stream (trivially checkpointable), seeded as
/// stream_seed(run seed, client id).  Ports: one req/resp pair.
class ClientLoadGen : public Component {
 public:
  struct Config {
    std::uint32_t client_id = 0;
    std::uint64_t seed = 1;
    std::uint32_t requests = 4;
    std::shared_ptr<const dist::ZipfSampler> popularity;
    VirtualTime think_base = ticks(1'000);
    std::uint64_t think_spread = 2'000;
    std::uint64_t start_spread = 500;
  };

  ClientLoadGen(std::string name, Config config);

  void on_init() override;
  void on_wake() override;
  void on_receive(PortIndex port, const Value& value) override;

  void save_state(serial::OutArchive& ar) const override;
  void restore_state(serial::InArchive& ar) override;

  [[nodiscard]] const std::vector<Fetch>& fetches() const { return fetches_; }
  [[nodiscard]] std::uint32_t issued() const { return issued_; }
  [[nodiscard]] bool done() const {
    return fetches_.size() == config_.requests;
  }

 private:
  [[nodiscard]] std::uint64_t next_u64();
  [[nodiscard]] double next_uniform();
  void issue_request();

  Config config_;
  PortIndex req_ = 0;
  PortIndex resp_ = 0;
  std::uint64_t stream_;     // counter-based SplitMix64 stream seed
  std::uint64_t draws_ = 0;  // draws consumed so far
  std::uint32_t issued_ = 0;
  std::uint32_t pending_page_ = 0;
  VirtualTime pending_issued_ = VirtualTime::zero();
  std::vector<Fetch> fetches_;
};

/// Base-station mux: fans `clients` handheld uplinks into one upstream
/// channel toward the gateway frontend and routes replies back by the
/// client tag.  Pure per-event relay — no advance(), no routing state
/// beyond the static client list — so its outputs are independent of
/// same-time arrival order.
class StationMux : public Component {
 public:
  struct Config {
    std::vector<std::uint32_t> clients;  // global ids; local index = position
  };

  StationMux(std::string name, Config config);

  void on_receive(PortIndex port, const Value& value) override;

  void save_state(serial::OutArchive& ar) const override;
  void restore_state(serial::InArchive& ar) override;

  [[nodiscard]] std::uint64_t relayed_up() const { return relayed_up_; }
  [[nodiscard]] std::uint64_t relayed_down() const { return relayed_down_; }

 private:
  Config config_;
  std::vector<PortIndex> up_;    // in, one per local client
  std::vector<PortIndex> down_;  // out, one per local client
  PortIndex tx_ = 0;             // out, toward the frontend
  PortIndex rx_ = 0;             // in, from the frontend
  std::map<std::uint32_t, std::uint32_t> local_index_;  // client id -> slot
  std::uint64_t relayed_up_ = 0;
  std::uint64_t relayed_down_ = 0;
};

/// Gateway frontend: root of the farm tree.  Routes each request to the
/// shard owning its URL (the shared partition function) and each reply back
/// to the peer hosting the tagged client.  Pure per-event relay, like the
/// station.  This is where per-client vs aggregated channel fan-in shows up
/// as protocol cost: `peers` is N in the baseline, N/clients_per_station
/// with aggregation.
class ShardFrontend : public Component {
 public:
  struct Config {
    std::uint32_t peers = 1;   // client channels (baseline) or stations
    std::uint32_t shards = 1;
    /// Clients multiplexed per peer: 1 in the baseline, clients_per_station
    /// with aggregation.  peer_of(client) = client / clients_per_peer.
    std::uint32_t clients_per_peer = 1;
  };

  ShardFrontend(std::string name, Config config);

  void on_receive(PortIndex port, const Value& value) override;

  void save_state(serial::OutArchive& ar) const override;
  void restore_state(serial::InArchive& ar) override;

  [[nodiscard]] std::uint64_t routed_requests() const {
    return routed_requests_;
  }
  [[nodiscard]] std::uint64_t routed_replies() const {
    return routed_replies_;
  }

 private:
  Config config_;
  std::vector<PortIndex> up_;    // in, one per peer
  std::vector<PortIndex> down_;  // out, one per peer
  std::vector<PortIndex> tx_;    // out, one per shard
  std::vector<PortIndex> rx_;    // in, one per shard
  std::uint64_t routed_requests_ = 0;
  std::uint64_t routed_replies_ = 0;
};

/// One gateway shard: owns the catalog partition shard_of_key(url) == shard
/// and serves decimated replies over its single channel to the frontend.
/// Service is a pure function of the request — the reply is stamped at
/// delivery time + service delay via send()'s extra_delay, never via
/// advance() — so N clients hammering one shard at the same virtual time
/// always produce the same replies.
class ShardGateway : public Component {
 public:
  struct Config {
    std::uint32_t shard = 0;
    std::uint32_t shards = 1;
    CatalogSpec catalog;
    VirtualTime service_base = ticks(200);
    VirtualTime service_per_kb = ticks(8);
  };

  ShardGateway(std::string name, Config config);

  void on_receive(PortIndex port, const Value& value) override;

  void save_state(serial::OutArchive& ar) const override;
  void restore_state(serial::InArchive& ar) override;

  [[nodiscard]] std::uint64_t served() const { return served_; }
  [[nodiscard]] std::size_t partition_size() const { return pages_.size(); }

 private:
  struct Entry {
    ResponseSummary summary;  // client field patched per request
    VirtualTime service = VirtualTime::zero();
  };

  Config config_;
  PortIndex rx_ = 0;
  PortIndex tx_ = 0;
  std::map<std::string, Entry> pages_;  // the hash-partitioned gateway state
  std::uint64_t served_ = 0;
};

// ---------------------------------------------------------------------------
// Scenario generator
// ---------------------------------------------------------------------------

struct ScaleoutSpec {
  std::size_t clients = 4;
  std::uint32_t shards = 2;
  std::size_t clients_per_station = 50;
  /// true: station mux + one batched channel per station into the frontend.
  /// false: one frontend channel per client — the O(N) baseline.
  bool aggregated = true;

  std::uint32_t requests_per_client = 4;
  CatalogSpec catalog{};
  double zipf_exponent = 1.1;
  std::uint64_t seed = 1;

  // Virtual-time shape.  Net delays double as channel lookahead.  The
  // baseline folds uplink+backhaul (and backhaul+downlink) into its direct
  // client<->frontend nets, so both layouts share one end-to-end timing.
  VirtualTime uplink = ticks(400);     // client -> station
  VirtualTime backhaul = ticks(150);   // station -> frontend
  VirtualTime fanout = ticks(100);     // frontend -> shard
  VirtualTime downlink = ticks(400);   // station -> client
  VirtualTime service_base = ticks(200);
  VirtualTime service_per_kb = ticks(8);
  VirtualTime think_base = ticks(1'000);
  std::uint64_t think_spread = 2'000;
  std::uint64_t start_spread = 500;

  /// Channel sync modes, cycled over channels in creation order starting at
  /// mode_phase — {kConservative} for uniform conservative, two entries for
  /// mixed, etc.
  std::vector<dist::ChannelMode> mode_cycle{dist::ChannelMode::kConservative};
  std::size_t mode_phase = 0;

  std::uint32_t batch_limit = 64;
  std::size_t worker_threads = 0;  // 0 = thread per subsystem

  /// Functional replication of the gateway shards (dist/replica.hpp): each
  /// shard is stamped out `shard_replicas` times on distinct nodes and
  /// wired to the frontend as ONE logical channel (fan-out + dedup).  The
  /// replica channel is forced conservative.  1 = unreplicated (the exact
  /// pre-replication topology, channel for channel).
  std::size_t shard_replicas = 1;

  /// Seeded mid-run kill of one shard replica member: member `member` of
  /// shard `shard` has its wire slammed shut (FaultPlan::crash_at) after
  /// `frames` frames, and the group must promote a survivor with zero
  /// rollback — the fetch logs must stay bit-exact vs the unreplicated
  /// oracle.  frames == 0 disables the kill.
  struct ReplicaKill {
    std::uint32_t shard = 0;
    std::size_t member = 1;
    std::uint64_t frames = 0;  // 0 = no kill
    std::uint64_t seed = 42;
  };
  ReplicaKill replica_kill{};

  [[nodiscard]] dist::ChannelMode mode_at(std::size_t channel) const {
    return mode_cycle[(mode_phase + channel) % mode_cycle.size()];
  }
  [[nodiscard]] std::size_t stations() const {
    return aggregated
               ? (clients + clients_per_station - 1) / clients_per_station
               : 0;
  }
};

/// The equivalence artifact of one run: every client's fetch log, plus the
/// total dispatch count for throughput reporting.  Equality compares the
/// logs only (dispatch counts legitimately differ between layouts).
struct ScaleoutResult {
  std::vector<std::vector<Fetch>> fetches;  // indexed by client id
  std::uint64_t events_dispatched = 0;

  [[nodiscard]] std::uint64_t total_fetches() const;
  friend bool operator==(const ScaleoutResult& a, const ScaleoutResult& b) {
    return a.fetches == b.fetches;
  }
};

/// Single-host oracle: the identical component graph in one Scheduler, run
/// to `horizon`.  The reference every distributed configuration must match
/// bit-exactly.
[[nodiscard]] ScaleoutResult run_single_host(
    const ScaleoutSpec& spec, VirtualTime horizon = VirtualTime::infinity());

/// The distributed deployment: client (+ station) subsystems pooled on an
/// edge node, the frontend on a core node, one node per gateway shard,
/// channels and lookahead derived from the spec.  Build once, run to one or
/// more horizons, then read the result.
class ScaleoutCluster {
 public:
  explicit ScaleoutCluster(const ScaleoutSpec& spec);

  /// Runs every subsystem to the config horizon (defaults: run to
  /// quiescence — the closed loop drains once every client finishes).
  std::map<std::string, dist::Subsystem::RunOutcome> run(
      const dist::Subsystem::RunConfig& config = {});

  [[nodiscard]] ScaleoutResult result() const;
  [[nodiscard]] const ScaleoutSpec& spec() const { return spec_; }
  [[nodiscard]] dist::NodeCluster& cluster() { return cluster_; }
  [[nodiscard]] const std::vector<ClientLoadGen*>& clients() const {
    return clients_;
  }
  [[nodiscard]] const std::vector<ShardGateway*>& shards() const {
    return shards_;
  }
  /// Replica member k of shard m (member 0 == shards()[m]).  Only indices
  /// below spec().shard_replicas exist.
  [[nodiscard]] ShardGateway* shard_member(std::size_t m,
                                           std::size_t k) const {
    return shard_members_.at(m).at(k);
  }
  /// The ReplicaSet carrying shard m's logical channel; only populated when
  /// spec().shard_replicas > 1.
  [[nodiscard]] dist::ReplicaSet& replica_set(std::size_t m) {
    return *replica_sets_.at(m);
  }
  [[nodiscard]] std::size_t replica_set_count() const {
    return replica_sets_.size();
  }
  [[nodiscard]] const std::vector<StationMux*>& station_muxes() const {
    return stations_;
  }
  [[nodiscard]] const ShardFrontend& frontend() const { return *frontend_; }

  /// Sum of SubsystemStats over every subsystem (sync-overhead reporting).
  [[nodiscard]] dist::SubsystemStats total_stats() const;
  /// SubsystemStats of the frontend subsystem alone — where per-client vs
  /// aggregated grant traffic shows up.
  [[nodiscard]] const dist::SubsystemStats& frontend_stats() const;
  /// Sum of scheduler events dispatched over every subsystem.
  [[nodiscard]] std::uint64_t events_dispatched() const;
  /// Channels in the topology (N + S + M aggregated, N + M baseline).
  [[nodiscard]] std::size_t channel_count() const { return channel_count_; }

 private:
  ScaleoutSpec spec_;
  dist::NodeCluster cluster_;
  std::vector<dist::Subsystem*> subsystems_;
  dist::Subsystem* frontend_ss_ = nullptr;
  std::vector<ClientLoadGen*> clients_;
  std::vector<StationMux*> stations_;
  ShardFrontend* frontend_ = nullptr;
  std::vector<ShardGateway*> shards_;  // member 0 of each shard
  std::vector<std::vector<ShardGateway*>> shard_members_;  // [shard][member]
  std::vector<std::unique_ptr<dist::ReplicaSet>> replica_sets_;
  std::size_t channel_count_ = 0;
};

/// Best-effort bump of the process fd soft limit to its hard limit.  A
/// thousand-subsystem topology holds a ready-signal pipe per subsystem;
/// default soft limits (1024) are too small for that.
void raise_fd_limit();

}  // namespace pia::wubbleu
