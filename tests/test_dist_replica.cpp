// Functional replication tests: the message-level dedup filter, the
// fan-out/dedup link group, zero-rollback failover in the scale-out
// harness, the total-loss fallback onto the snapshot ladder, and the two
// satellite fixes that ride along (load-independent heartbeat beacons,
// SnapshotStore token caching).
#include <gtest/gtest.h>

#include <chrono>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "base/error.hpp"
#include "dist/node.hpp"
#include "dist/protocol.hpp"
#include "dist/replica.hpp"
#include "dist/snapshot_store.hpp"
#include "dist_helpers.hpp"
#include "transport/fault.hpp"
#include "transport/link.hpp"
#include "wubbleu/scaleout.hpp"

namespace pia::dist {
namespace {
namespace fs = std::filesystem;

using pia::testing::Producer;
using pia::testing::Sink;
using testing::run_single_host_pipeline;

std::string fresh_dir(const std::string& name) {
  const fs::path path = fs::path(::testing::TempDir()) / name;
  fs::remove_all(path);
  fs::create_directories(path);
  return path.string();
}

ChannelMessage event(std::uint64_t counter) {
  return EventMsg{.id = {.origin = 1, .counter = counter},
                  .net_index = 0,
                  .time = ticks(static_cast<VirtualTime::rep>(counter)),
                  .value = Value{counter}};
}

ChannelMessage retract(std::uint64_t counter) {
  return RetractMsg{.id = {.origin = 1, .counter = counter},
                    .time = ticks(static_cast<VirtualTime::rep>(counter))};
}

Bytes frame_of(const ChannelMessage& message) {
  return encode_message(message);
}

Bytes batch_frame(const std::vector<ChannelMessage>& messages) {
  serial::OutArchive ar;
  ar.put_u8(kBatchFrameTag);
  ar.put_varint(messages.size());
  for (const ChannelMessage& m : messages) {
    const Bytes one = encode_message(m);
    ar.put_varint(one.size());
    ar.put_raw(one);
  }
  return std::move(ar).take();
}

std::deque<ChannelMessage> messages_of(BytesView frame) {
  std::deque<ChannelMessage> out;
  decode_frame(frame, out);
  return out;
}

// ---------------------------------------------------------------------------
// ReplicaDedup: the message-level filter
// ---------------------------------------------------------------------------

TEST(ReplicaDedup, PositionalStreamAcceptsExactlyOneCopy) {
  ReplicaDedup dedup(2);
  // Member 0 leads, member 1 trails with the identical stream.
  EXPECT_TRUE(dedup.accept(0, event(1)));
  EXPECT_TRUE(dedup.accept(0, event(2)));
  EXPECT_FALSE(dedup.accept(1, event(1)));
  EXPECT_FALSE(dedup.accept(1, event(2)));
  // Member 1 takes the lead for position 2: first copy wins, origin aside.
  EXPECT_TRUE(dedup.accept(1, event(3)));
  EXPECT_FALSE(dedup.accept(0, event(3)));
  EXPECT_EQ(dedup.sim_accepted(), 3u);
  EXPECT_EQ(dedup.sim_seen(0), 3u);
  EXPECT_EQ(dedup.sim_seen(1), 3u);
}

TEST(ReplicaDedup, DupArrivalAfterRetractionStaysDropped) {
  // The dedup edge case from the optimistic stream: member 0 sends an event
  // AND its retraction; member 1's late copy of the retracted event must
  // not resurface downstream, and neither may its copy of the retraction.
  ReplicaDedup dedup(2);
  EXPECT_TRUE(dedup.accept(0, event(7)));
  EXPECT_TRUE(dedup.accept(0, retract(7)));
  EXPECT_FALSE(dedup.accept(1, event(7)));    // after the retraction
  EXPECT_FALSE(dedup.accept(1, retract(7)));  // dup of the retraction
  // Both cursors caught up: the next fresh message is accepted from either.
  EXPECT_TRUE(dedup.accept(1, event(8)));
  EXPECT_FALSE(dedup.accept(0, event(8)));
}

TEST(ReplicaDedup, ProbeAndReplyNonceDedupIsPerOriginAndSeparate) {
  ReplicaDedup dedup(2);
  const auto probe = [](std::uint64_t origin, std::uint64_t nonce) {
    return ChannelMessage{ProbeMsg{.origin = origin, .nonce = nonce}};
  };
  const auto reply = [](std::uint64_t origin, std::uint64_t nonce) {
    return ChannelMessage{ProbeReply{.origin = origin, .nonce = nonce}};
  };
  EXPECT_TRUE(dedup.accept(0, probe(7, 1)));
  EXPECT_FALSE(dedup.accept(1, probe(7, 1)));  // sibling's copy
  EXPECT_TRUE(dedup.accept(1, probe(7, 2)));   // next round
  EXPECT_FALSE(dedup.accept(0, probe(7, 2)));
  EXPECT_TRUE(dedup.accept(0, probe(9, 1)));  // distinct origin
  // Replies dedup through their own map: a reply for nonce 1 is fresh even
  // though probe nonce 2 was already seen (a dup reply would double-count
  // Safra sums).
  EXPECT_TRUE(dedup.accept(0, reply(7, 1)));
  EXPECT_FALSE(dedup.accept(1, reply(7, 1)));
  EXPECT_TRUE(dedup.accept(1, reply(7, 2)));
}

TEST(ReplicaDedup, GrantsAndHeartbeatsPassThrough) {
  // Grants are idempotent/last-wins and heartbeats are liveness signal:
  // every member's copy is delivered, none counted as a duplicate.
  ReplicaDedup dedup(2);
  const ChannelMessage grant =
      SafeTimeGrant{.request_id = 1, .safe_time = ticks(50)};
  EXPECT_TRUE(dedup.accept(0, grant));
  EXPECT_TRUE(dedup.accept(1, grant));
  const ChannelMessage beat = HeartbeatMsg{.seq = 3};
  EXPECT_TRUE(dedup.accept(0, beat));
  EXPECT_TRUE(dedup.accept(1, beat));
  EXPECT_EQ(dedup.sim_accepted(), 0u);  // none of these are sim-stream
}

TEST(ReplicaDedup, RebaseMemberResumesAtAcceptedPosition) {
  ReplicaDedup dedup(2);
  EXPECT_TRUE(dedup.accept(0, event(1)));
  EXPECT_TRUE(dedup.accept(0, event(2)));
  // A respawned clone on slot 1, primed to the accepted state, resumes at
  // the accepted position instead of replaying from zero.
  dedup.rebase_member(1);
  EXPECT_EQ(dedup.sim_seen(1), 2u);
  EXPECT_TRUE(dedup.accept(1, event(3)));
  EXPECT_FALSE(dedup.accept(0, event(3)));
}

// ---------------------------------------------------------------------------
// ReplicaLinkGroup: the fan-out/dedup link facade
// ---------------------------------------------------------------------------

/// A group with `members` loopback sub-links; the member ends are wrapped
/// in ReplicaTagLink exactly as ReplicaSet::connect wires them.
struct GroupRig {
  ReplicaLinkGroup group{"rig"};
  std::vector<std::unique_ptr<ReplicaTagLink>> members;
  std::vector<transport::Link*> member_raw;  // untagged view of member ends

  explicit GroupRig(std::size_t count) {
    for (std::size_t k = 0; k < count; ++k) {
      transport::LinkPair pair = transport::make_loopback_pair();
      member_raw.push_back(pair.b.get());
      members.push_back(std::make_unique<ReplicaTagLink>(
          std::move(pair.b), static_cast<std::uint32_t>(k), 1));
      group.add_member(std::move(pair.a));
    }
  }
};

TEST(ReplicaLinkGroup, FanOutDuplicatesFramesToEveryLiveMember) {
  GroupRig rig(3);
  const Bytes frame = frame_of(event(1));
  rig.group.send(frame, 1);
  for (std::size_t k = 0; k < 3; ++k) {
    const auto got = rig.member_raw[k]->try_recv();
    ASSERT_TRUE(got.has_value()) << "member " << k;
    EXPECT_EQ(*got, frame) << "member " << k;  // untagged on the way down
  }
  EXPECT_EQ(rig.group.group_stats().frames_fanned_out, 3u);
}

TEST(ReplicaLinkGroup, DedupCollapsesMembersToOneLogicalStream) {
  GroupRig rig(2);
  rig.members[0]->send(frame_of(event(1)), 1);
  rig.members[1]->send(frame_of(event(1)), 1);
  rig.members[0]->send(frame_of(event(2)), 1);
  rig.members[1]->send(frame_of(event(2)), 1);

  std::vector<std::uint64_t> delivered;
  while (const auto frame = rig.group.try_recv())
    for (const ChannelMessage& m : messages_of(*frame))
      delivered.push_back(std::get<EventMsg>(m).id.counter);
  EXPECT_EQ(delivered, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(rig.group.group_stats().duplicates_dropped, 2u);
  EXPECT_EQ(rig.group.group_stats().messages_accepted, 2u);
}

TEST(ReplicaLinkGroup, MemberDeathMidBatchFramePromotesSurvivor) {
  GroupRig rig(2);
  // Member 0 delivers a two-message batch, then dies before the third.
  rig.members[0]->send(batch_frame({event(1), event(2)}), 2);
  auto first = rig.group.try_recv();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(messages_of(*first).size(), 2u);
  rig.members[0]->close();

  // The trailing clone re-sends the same batch (all duplicates) and then
  // the third message only it lived long enough to produce.
  rig.members[1]->send(batch_frame({event(1), event(2)}), 2);
  rig.members[1]->send(frame_of(event(3)), 1);
  auto next = rig.group.try_recv();
  ASSERT_TRUE(next.has_value());
  const auto tail = messages_of(*next);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(std::get<EventMsg>(tail.front()).id.counter, 3u);

  EXPECT_EQ(rig.group.live_count(), 1u);
  EXPECT_EQ(rig.group.group_stats().members_dropped, 1u);
  EXPECT_EQ(rig.group.group_stats().promotions, 1u);
  EXPECT_EQ(rig.group.group_stats().duplicates_dropped, 2u);
  EXPECT_FALSE(rig.group.closed());
}

TEST(ReplicaLinkGroup, StaleEpochFramesDroppedAfterReattach) {
  GroupRig rig(2);
  rig.members[0]->send(frame_of(event(1)), 1);
  rig.members[1]->send(frame_of(event(1)), 1);
  ASSERT_TRUE(rig.group.try_recv().has_value());

  // Slot 1 dies and is re-attached with a bumped epoch.
  rig.members[1]->close();
  while (rig.group.try_recv().has_value()) {
  }
  EXPECT_FALSE(rig.group.member_live(1));
  transport::LinkPair fresh = transport::make_loopback_pair();
  transport::Link* wire = fresh.b.get();  // the revived clone's end
  rig.group.reattach_member(1, std::move(fresh.a));
  EXPECT_EQ(rig.group.member_epoch(1), 2u);
  EXPECT_TRUE(rig.group.member_live(1));

  // A straggler from the dead clone's epoch writing into the reused slot
  // must die at the epoch guard, not reach the dedup filter.
  serial::OutArchive stale;
  encode_replica_frame(stale, 1, 1, frame_of(event(2)));
  wire->send(stale.bytes(), 1);
  EXPECT_FALSE(rig.group.try_recv().has_value());
  EXPECT_EQ(rig.group.group_stats().stale_epoch_frames, 1u);

  // The revived clone's own (epoch 2) frames flow, resuming at the
  // re-based stream position.
  serial::OutArchive current;
  encode_replica_frame(current, 1, 2, frame_of(event(2)));
  wire->send(current.bytes(), 1);
  const auto got = rig.group.try_recv();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(std::get<EventMsg>(messages_of(*got).front()).id.counter, 2u);
}

TEST(ReplicaLinkGroup, AllMembersDeadClosesTheGroup) {
  GroupRig rig(2);
  rig.members[0]->close();
  rig.members[1]->close();
  EXPECT_FALSE(rig.group.try_recv().has_value());
  EXPECT_TRUE(rig.group.closed());
  EXPECT_EQ(rig.group.group_stats().members_dropped, 2u);
  EXPECT_EQ(rig.group.group_stats().promotions, 1u);  // only the first drop
  EXPECT_THROW(rig.group.send(frame_of(event(1)), 1), Error);
}

// ---------------------------------------------------------------------------
// ReplicaSet in the scale-out harness: the flagship failover scenario
// ---------------------------------------------------------------------------

wubbleu::ScaleoutSpec replica_spec(std::size_t replicas) {
  wubbleu::ScaleoutSpec spec;
  spec.clients = 6;
  spec.shards = 2;
  spec.clients_per_station = 3;
  spec.requests_per_client = 3;
  spec.catalog.pages = 16;
  spec.catalog.page_bytes = 512;
  spec.seed = 1234;
  spec.shard_replicas = replicas;
  return spec;
}

TEST(ScaleoutReplica, ReplicatedShardsMatchUnreplicatedOracle) {
  wubbleu::ScaleoutSpec spec = replica_spec(2);
  wubbleu::ScaleoutSpec plain = spec;
  plain.shard_replicas = 1;
  const wubbleu::ScaleoutResult oracle = run_single_host(plain);

  wubbleu::ScaleoutCluster cluster(spec);
  const auto outcomes = cluster.run();
  for (const auto& [name, outcome] : outcomes)
    EXPECT_EQ(outcome, Subsystem::RunOutcome::kQuiescent) << name;
  EXPECT_TRUE(cluster.result() == oracle);
  // Replication does not widen the topology: one logical channel per shard.
  EXPECT_EQ(cluster.channel_count(),
            spec.clients + spec.stations() + spec.shards);
  EXPECT_EQ(cluster.replica_set_count(), spec.shards);
  for (std::uint32_t m = 0; m < spec.shards; ++m)
    EXPECT_EQ(cluster.replica_set(m).live_members(), 2u);
}

TEST(ScaleoutReplica, SeededKillPromotesSurvivorWithZeroRollback) {
  wubbleu::ScaleoutSpec spec = replica_spec(2);
  spec.replica_kill = {.shard = 0, .member = 1, .frames = 25, .seed = 7};
  wubbleu::ScaleoutSpec plain = spec;
  plain.shard_replicas = 1;
  plain.replica_kill.frames = 0;
  const wubbleu::ScaleoutResult oracle = run_single_host(plain);

  wubbleu::ScaleoutCluster cluster(spec);
  const auto outcomes = cluster.run();
  for (const auto& [name, outcome] : outcomes) {
    if (name == "shard0r1")
      EXPECT_EQ(outcome, Subsystem::RunOutcome::kDisconnected) << name;
    else
      EXPECT_EQ(outcome, Subsystem::RunOutcome::kQuiescent) << name;
  }
  // Bit-exact against the unreplicated, unkilled single-host oracle: the
  // survivor resumed the logical stream with zero rollback.
  EXPECT_TRUE(cluster.result() == oracle);

  const ReplicaGroupStats& stats =
      cluster.replica_set(0).group().group_stats();
  EXPECT_EQ(stats.members_dropped, 1u);
  EXPECT_EQ(stats.promotions, 1u);
  EXPECT_EQ(cluster.replica_set(0).live_members(), 1u);
  EXPECT_EQ(cluster.replica_set(1).live_members(), 2u);
  // No rollback/retraction anywhere: failover is promotion, not replay.
  EXPECT_EQ(cluster.total_stats().rollbacks, 0u);
  EXPECT_EQ(cluster.total_stats().retracts_sent, 0u);
}

TEST(ScaleoutReplica, TripleReplicaSurvivesKill) {
  wubbleu::ScaleoutSpec spec = replica_spec(3);
  spec.replica_kill = {.shard = 1, .member = 0, .frames = 30, .seed = 11};
  wubbleu::ScaleoutSpec plain = spec;
  plain.shard_replicas = 1;
  plain.replica_kill.frames = 0;
  const wubbleu::ScaleoutResult oracle = run_single_host(plain);

  wubbleu::ScaleoutCluster cluster(spec);
  const auto outcomes = cluster.run();
  for (const auto& [name, outcome] : outcomes) {
    if (name == "shard1r0")
      EXPECT_EQ(outcome, Subsystem::RunOutcome::kDisconnected) << name;
    else
      EXPECT_EQ(outcome, Subsystem::RunOutcome::kQuiescent) << name;
  }
  EXPECT_TRUE(cluster.result() == oracle);
  EXPECT_EQ(cluster.replica_set(1).live_members(), 2u);
  EXPECT_EQ(cluster.replica_set(1).group().group_stats().promotions, 1u);
}

// ---------------------------------------------------------------------------
// Total replica loss: fall back onto the PR 3 snapshot ladder
// ---------------------------------------------------------------------------

/// Producer on `src` feeding identical Sink clones in a two-member
/// ReplicaSet — the minimal replicated pipe, with optional per-member
/// crash bombs and a durable SnapshotStore per subsystem.
struct ReplicatedPipe {
  NodeCluster cluster;
  Subsystem* src = nullptr;
  std::vector<Subsystem*> members;
  Producer* producer = nullptr;
  std::vector<Sink*> sinks;
  ReplicaSet set{"dup"};
  ReplicaSet::Channel channel;
  std::vector<std::shared_ptr<SnapshotStore>> stores;

  ReplicatedPipe(std::uint64_t count,
                 std::vector<transport::FaultPlan> member_faults,
                 const std::string& store_root) {
    PiaNode& src_node = cluster.add_node("srcnode");
    src = &src_node.add_subsystem("src");
    // Small batches: the event stream must span enough frames for the
    // frame-counted crash bombs to land mid-stream, not at the tail.
    src->set_channel_batch_limit(8);
    producer = &src->scheduler().emplace<Producer>("p", count);
    const NetId net_src = src->scheduler().make_net("wire");
    src->scheduler().attach(net_src, producer->id(), "out");

    NetId net_member{};
    for (std::size_t k = 0; k < 2; ++k) {
      PiaNode& node = cluster.add_node("mnode" + std::to_string(k));
      Subsystem& ss = node.add_subsystem("m" + std::to_string(k));
      sinks.push_back(&ss.scheduler().emplace<Sink>("s"));
      net_member = ss.scheduler().make_net("wire");
      ss.scheduler().attach(net_member, sinks.back()->id(), "in");
      members.push_back(&ss);
      set.add_member(ss);
    }

    channel = connect_replicated_checked(cluster, *src, set,
                                         ChannelMode::kConservative,
                                         Wire::kLoopback, {},
                                         std::move(member_faults));
    set.export_net(*src, channel, net_src, net_member);

    std::size_t g = 0;
    for (Subsystem* ss : {src, members[0], members[1]}) {
      stores.push_back(std::make_shared<SnapshotStore>(
          (fs::path(store_root) / ("ss" + std::to_string(g++))).string(),
          4));
      ss->set_snapshot_store(stores.back());
    }
    src->set_auto_snapshot_interval(4);
    cluster.start_all();
  }
};

TEST(ScaleoutReplica, TotalReplicaLossFallsBackToSnapshotLadder) {
  constexpr std::uint64_t kCount = 80;
  const std::string root = fresh_dir("pia_replica_total_loss");
  testing::PipelineSpec reference_spec;
  reference_spec.count = kCount;
  const testing::PipelineResult reference =
      run_single_host_pipeline(reference_spec);

  // Phase 1: both members carry crash bombs.  The first death promotes the
  // survivor (no rollback); the second closes the group and disconnects
  // the peer — functional replication is out of spares.
  {
    // Frame thresholds, not event counts: batching packs the whole 80-event
    // stream into ~15 frames per sub-link, so the bombs sit at 6 and 12 to
    // land mid-stream — first death promotes, second exhausts the set.
    std::vector<transport::FaultPlan> bombs(2);
    bombs[0] = transport::FaultPlan::crash_at(21, 6, 2);
    bombs[1] = transport::FaultPlan::crash_at(22, 12, 2);
    ReplicatedPipe pipe(kCount, std::move(bombs), root);
    const auto outcomes = pipe.cluster.run_all(
        Subsystem::RunConfig{.stall_timeout = std::chrono::seconds(5)});
    EXPECT_EQ(outcomes.at("src"), Subsystem::RunOutcome::kDisconnected);
    const ReplicaGroupStats& stats = pipe.set.group().group_stats();
    EXPECT_EQ(stats.members_dropped, 2u);
    EXPECT_EQ(stats.promotions, 1u);
    EXPECT_TRUE(pipe.set.group().closed());
  }  // every "process" of the wounded system is gone

  // Phase 2: the PR 3 ladder.  Restart UNREPLICATED from the newest cut
  // committed and valid in both surviving stores (src + member 0 — the
  // clones' images are interchangeable), walking down to a cold start.
  std::vector<std::optional<std::uint64_t>> attempts;
  {
    const SnapshotStore peek_src((fs::path(root) / "ss0").string(), 4);
    const SnapshotStore peek_m0((fs::path(root) / "ss1").string(), 4);
    const auto common = SnapshotStore::latest_common_valid_token(
        {&peek_src, &peek_m0});
    if (common) attempts.emplace_back(*common);
  }
  attempts.emplace_back(std::nullopt);  // cold start always succeeds

  bool recovered = false;
  for (const std::optional<std::uint64_t>& token : attempts) {
    NodeCluster cluster;
    Subsystem& src = cluster.add_node("srcnode").add_subsystem("src");
    Subsystem& dst = cluster.add_node("mnode0").add_subsystem("m0");
    auto& producer = src.scheduler().emplace<Producer>("p", kCount);
    auto& sink = dst.scheduler().emplace<Sink>("s");
    const NetId net_a = src.scheduler().make_net("wire");
    src.scheduler().attach(net_a, producer.id(), "out");
    const NetId net_b = dst.scheduler().make_net("wire");
    dst.scheduler().attach(net_b, sink.id(), "in");
    const ChannelPair pair =
        cluster.connect_checked(src, dst, ChannelMode::kConservative);
    split_net(src, pair.a, net_a, dst, pair.b, net_b);
    auto store_src =
        std::make_shared<SnapshotStore>((fs::path(root) / "ss0").string(), 4);
    auto store_dst =
        std::make_shared<SnapshotStore>((fs::path(root) / "ss1").string(), 4);
    src.set_snapshot_store(store_src);
    dst.set_snapshot_store(store_dst);
    cluster.start_all();
    try {
      if (token) {
        src.restore_snapshot_image(store_src->load(*token));
        dst.restore_snapshot_image(store_dst->load(*token));
        src.begin_rejoin(*token);
        dst.begin_rejoin(*token);
      }
      const auto outcomes = cluster.run_all(
          Subsystem::RunConfig{.stall_timeout = std::chrono::seconds(5)});
      for (const auto& [name, outcome] : outcomes)
        ASSERT_EQ(outcome, Subsystem::RunOutcome::kQuiescent) << name;
      const testing::PipelineResult result{sink.received, sink.times};
      EXPECT_TRUE(result == reference);
      recovered = true;
      break;
    } catch (const Error& e) {
      if (!token) throw;  // a cold start must not fail
      if (e.kind() != ErrorKind::kState &&
          e.kind() != ErrorKind::kSerialization)
        throw;
    }
  }
  EXPECT_TRUE(recovered);
}

// ---------------------------------------------------------------------------
// Satellite: heartbeat beacons stay load-independent (no false positives)
// ---------------------------------------------------------------------------

/// A sink that burns real wall-clock time per event — the workload shape
/// that used to starve heartbeat beacons behind a long advance burst.
class SlowSink : public Component {
 public:
  explicit SlowSink(std::string name, std::chrono::microseconds chew)
      : Component(std::move(name)), chew_(chew) {
    in_ = add_input("in");
  }

  void on_receive(PortIndex, const Value& value) override {
    std::this_thread::sleep_for(chew_);
    received.push_back(value.as_word());
  }

  std::vector<std::uint64_t> received;

 private:
  std::chrono::microseconds chew_;
  PortIndex in_;
};

std::map<std::string, Subsystem::RunOutcome> run_slow_sink_pipe(
    std::size_t worker_threads, std::uint64_t count,
    std::chrono::microseconds chew, std::chrono::milliseconds timeout,
    std::uint64_t* delivered) {
  NodeCluster cluster;
  PiaNode* pooled = nullptr;
  if (worker_threads > 0) {
    pooled = &cluster.add_node("pool");
    pooled->set_worker_threads(worker_threads);
  }
  Subsystem& a = (pooled ? *pooled : cluster.add_node("na"))
                     .add_subsystem("src");
  Subsystem& b = (pooled ? *pooled : cluster.add_node("nb"))
                     .add_subsystem("dst");
  auto& producer = a.scheduler().emplace<Producer>("p", count, ticks(1),
                                                   ticks(1));
  auto& sink = b.scheduler().emplace<SlowSink>("s", chew);
  const NetId net_a = a.scheduler().make_net("wire");
  a.scheduler().attach(net_a, producer.id(), "out");
  const NetId net_b = b.scheduler().make_net("wire");
  b.scheduler().attach(net_b, sink.id(), "in");
  const ChannelPair pair =
      cluster.connect_checked(a, b, ChannelMode::kConservative);
  split_net(a, pair.a, net_a, b, pair.b, net_b);
  a.set_heartbeat(std::chrono::milliseconds(10), timeout);
  b.set_heartbeat(std::chrono::milliseconds(10), timeout);
  cluster.start_all();
  auto outcomes = cluster.run_all(
      Subsystem::RunConfig{.stall_timeout = std::chrono::seconds(20)});
  *delivered = sink.received.size();
  EXPECT_EQ(a.stats().peer_down_events, 0u);
  EXPECT_EQ(b.stats().peer_down_events, 0u);
  EXPECT_GT(a.stats().heartbeats_sent, 0u);
  EXPECT_GT(b.stats().heartbeats_sent, 0u);
  return outcomes;
}

TEST(HeartbeatLoad, BusyPeerIsNotDeclaredDead) {
  // 2ms of wall time per event: a full 256-dispatch advance burst takes
  // ~500ms, twice the 250ms liveness timeout.  Beacons serviced from
  // INSIDE the burst (every 32 dispatches) keep the silence gap an order
  // of magnitude under the timeout; slice-boundary-only beacons would be
  // declared dead here.
  std::uint64_t delivered = 0;
  const auto outcomes =
      run_slow_sink_pipe(0, 400, std::chrono::microseconds(2000),
                         std::chrono::milliseconds(250), &delivered);
  for (const auto& [name, outcome] : outcomes)
    EXPECT_EQ(outcome, Subsystem::RunOutcome::kQuiescent) << name;
  EXPECT_EQ(delivered, 400u);
}

TEST(HeartbeatLoad, SingleWorkerPoolIsNotDeclaredDead) {
  // The pooled regression: both subsystems share ONE worker thread, so a
  // peer is silent for every slice it spends descheduled on top of its own
  // burst time.  Liveness must tolerate the full scheduling gap.
  std::uint64_t delivered = 0;
  const auto outcomes =
      run_slow_sink_pipe(1, 300, std::chrono::microseconds(500),
                         std::chrono::milliseconds(1000), &delivered);
  for (const auto& [name, outcome] : outcomes)
    EXPECT_EQ(outcome, Subsystem::RunOutcome::kQuiescent) << name;
  EXPECT_EQ(delivered, 300u);
}

// ---------------------------------------------------------------------------
// Satellite: SnapshotStore token cache
// ---------------------------------------------------------------------------

TEST(SnapshotStoreCache, TokensStayCoherentAcrossCommitAndRemove) {
  const std::string dir = fresh_dir("pia_store_cache");
  SnapshotStore store(dir, 0);
  EXPECT_TRUE(store.tokens().empty());  // primes the cache on an empty dir
  const Bytes payload{std::byte{1}, std::byte{2}};
  store.commit(5, payload);
  store.commit(1, payload);
  store.commit(9, payload);
  EXPECT_EQ(store.tokens(), (std::vector<std::uint64_t>{1, 5, 9}));
  store.remove(5);
  EXPECT_EQ(store.tokens(), (std::vector<std::uint64_t>{1, 9}));
  // A second store over the same directory scans fresh state: the cached
  // view must agree with the on-disk truth.
  SnapshotStore fresh(dir, 0);
  EXPECT_EQ(fresh.tokens(), store.tokens());
}

TEST(SnapshotStoreCache, RetentionPrunesOldestKeepsNewest) {
  const std::string dir = fresh_dir("pia_store_retention");
  SnapshotStore store(dir, 3);
  const Bytes payload{std::byte{7}};
  for (std::uint64_t t = 1; t <= 6; ++t) store.commit(t, payload);
  EXPECT_EQ(store.tokens(), (std::vector<std::uint64_t>{4, 5, 6}));
  EXPECT_EQ(store.stats().pruned, 3u);
  for (const std::uint64_t t : store.tokens()) EXPECT_TRUE(store.valid(t));
}

TEST(SnapshotStoreCache, RetentionNeverDeletesNewestCommonValidCut) {
  // Two stores advancing at different rates (one crashed before the last
  // cut committed): retention on the leader must never prune the newest
  // cut still valid in BOTH stores while it is within the retain window.
  const std::string root = fresh_dir("pia_store_common");
  SnapshotStore leader((fs::path(root) / "a").string(), 2);
  SnapshotStore laggard((fs::path(root) / "b").string(), 2);
  const Bytes payload{std::byte{3}};
  leader.commit(1, payload);
  laggard.commit(1, payload);
  leader.commit(2, payload);
  laggard.commit(2, payload);
  leader.commit(3, payload);  // the laggard never saw cut 3
  const auto common =
      SnapshotStore::latest_common_valid_token({&leader, &laggard});
  ASSERT_TRUE(common.has_value());
  EXPECT_EQ(*common, 2u);
  EXPECT_TRUE(leader.valid(2));
  EXPECT_TRUE(laggard.valid(2));
}

/// The minimal one-way replicated pipe must terminate through the probe
/// protocol: replica members never originate probes, so the peer's failed
/// first round (members still busy) has to be re-opened by the members'
/// idle status pushes.  This wedged before note_peer_status_changed().
TEST(ScaleoutReplica, OneWayReplicatedPipeTerminates) {
  NodeCluster cluster;
  Subsystem& src = cluster.add_node("srcnode").add_subsystem("src");
  auto& producer = src.scheduler().emplace<Producer>("p", 20);
  const NetId net_src = src.scheduler().make_net("wire");
  src.scheduler().attach(net_src, producer.id(), "out");

  ReplicaSet set{"dup"};
  NetId net_member{};
  std::vector<Sink*> sinks;
  for (std::size_t k = 0; k < 2; ++k) {
    Subsystem& ss = cluster.add_node("mnode" + std::to_string(k))
                        .add_subsystem("m" + std::to_string(k));
    sinks.push_back(&ss.scheduler().emplace<Sink>("s"));
    net_member = ss.scheduler().make_net("wire");
    ss.scheduler().attach(net_member, sinks.back()->id(), "in");
    set.add_member(ss);
  }
  const ReplicaSet::Channel channel = connect_replicated_checked(
      cluster, src, set, ChannelMode::kConservative);
  set.export_net(src, channel, net_src, net_member);
  cluster.start_all();
  const auto outcomes = cluster.run_all(
      Subsystem::RunConfig{.stall_timeout = std::chrono::seconds(10)});
  for (const auto& [name, outcome] : outcomes)
    EXPECT_EQ(outcome, Subsystem::RunOutcome::kQuiescent) << name;
  EXPECT_EQ(sinks[0]->received.size(), 20u);
  EXPECT_EQ(sinks[1]->received.size(), 20u);
}

}  // namespace
}  // namespace pia::dist
