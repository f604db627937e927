// Crash recovery: durable snapshot store integrity, kill-and-recover
// equivalence with the single-host oracle, heartbeat failure detection, and
// the rejoin handshake.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "base/error.hpp"
#include "dist_helpers.hpp"

namespace pia::dist {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;
using testing::FuzzCluster;
using testing::PipelineResult;
using testing::PipelineSpec;
using testing::RecoveryOptions;
using testing::RecoveryReport;
using testing::run_single_host_pipeline;
using testing::run_with_crash_and_recover;
using testing::SplitLoop;
using testing::SplitPipe;

/// A fresh (empty) per-test scratch directory under the gtest temp root.
std::string fresh_dir(const std::string& name) {
  const fs::path path = fs::path(::testing::TempDir()) / name;
  fs::remove_all(path);
  fs::create_directories(path);
  return path.string();
}

/// Overwrites one byte of `path` at `offset` (negative: from the end).
void patch_file(const std::string& path, std::int64_t offset, char value) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  if (offset >= 0)
    f.seekp(offset, std::ios::beg);
  else
    f.seekp(offset, std::ios::end);
  f.write(&value, 1);
}

// ---------------------------------------------------------------------------
// Store durability
// ---------------------------------------------------------------------------

TEST(SnapshotStoreRecovery, RoundTripAndRetention) {
  SnapshotStore store(fresh_dir("pia_store_roundtrip"), /*retain=*/2);
  const Bytes payload(48, std::byte{0x5A});
  store.commit(7, payload);
  EXPECT_EQ(store.load(7), payload);
  store.commit(8, payload);
  store.commit(9, payload);
  // Retention keeps only the newest two.
  EXPECT_EQ(store.tokens(), (std::vector<std::uint64_t>{8, 9}));
  EXPECT_EQ(store.stats().pruned, 1u);
  EXPECT_EQ(store.stats().commits, 3u);
  EXPECT_EQ(store.latest_valid_token(), 9u);
}

TEST(SnapshotStoreRecovery, TruncatedFileRejectedWithFallback) {
  const std::string dir = fresh_dir("pia_store_trunc");
  SnapshotStore store(dir, /*retain=*/4);
  const Bytes payload(64, std::byte{0x5A});
  store.commit(1, payload);
  store.commit(2, payload);
  // A torn write that somehow made it past the rename: half the payload.
  fs::resize_file(dir + "/snap-2.pias", 40);
  try {
    (void)store.load(2);
    FAIL() << "truncated snapshot loaded";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kSerialization);
  }
  EXPECT_FALSE(store.valid(2));
  EXPECT_GT(store.stats().load_failures, 0u);
  // Recovery falls back to the previous committed snapshot.
  EXPECT_EQ(store.latest_valid_token(), 1u);
}

TEST(SnapshotStoreRecovery, CorruptPayloadRejectedByCrc) {
  const std::string dir = fresh_dir("pia_store_crc");
  SnapshotStore store(dir, /*retain=*/4);
  const Bytes payload(64, std::byte{0x5A});
  store.commit(3, payload);
  store.commit(4, payload);
  // Flip the last payload byte of snapshot 4: length still matches, only
  // the checksum can catch it.
  patch_file(dir + "/snap-4.pias", -1, '\x00');
  try {
    (void)store.load(4);
    FAIL() << "corrupt snapshot loaded";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kSerialization);
  }
  EXPECT_FALSE(store.valid(4));
  EXPECT_EQ(store.latest_valid_token(), 3u);
}

TEST(SnapshotStoreRecovery, StaleFormatVersionRejected) {
  const std::string dir = fresh_dir("pia_store_version");
  SnapshotStore store(dir, /*retain=*/4);
  const Bytes payload(16, std::byte{0x11});
  store.commit(5, payload);
  store.commit(6, payload);
  // The version varint sits right after the 4-byte magic; claim a future
  // format the reader does not understand.
  patch_file(dir + "/snap-6.pias", 4,
             static_cast<char>(SnapshotStore::kFormatVersion + 1));
  try {
    (void)store.load(6);
    FAIL() << "wrong-version snapshot loaded";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kSerialization);
  }
  EXPECT_FALSE(store.valid(6));
  EXPECT_EQ(store.latest_valid_token(), 5u);
}

TEST(SnapshotStoreRecovery, LatestCommonValidToken) {
  SnapshotStore s1(fresh_dir("pia_store_common1"), /*retain=*/4);
  SnapshotStore s2(fresh_dir("pia_store_common2"), /*retain=*/4);
  const Bytes payload(8, std::byte{1});
  s1.commit(1, payload);
  s1.commit(2, payload);
  s1.commit(3, payload);
  s2.commit(1, payload);
  s2.commit(2, payload);
  // 3 exists only on s1; 2 is the newest everywhere.
  EXPECT_EQ(SnapshotStore::latest_common_valid_token({&s1, &s2}), 2u);
  // Corrupt s2's copy of 2: the cluster-wide choice falls back to 1.
  patch_file(s2.dir() + "/snap-2.pias", -1, '\x7F');
  EXPECT_EQ(SnapshotStore::latest_common_valid_token({&s1, &s2}), 1u);
  // No overlap at all.
  SnapshotStore s3(fresh_dir("pia_store_common3"), /*retain=*/4);
  EXPECT_EQ(SnapshotStore::latest_common_valid_token({&s1, &s3}),
            std::nullopt);
}

// ---------------------------------------------------------------------------
// Durable snapshots and fresh-process restore
// ---------------------------------------------------------------------------

/// Three subsystems, four pipeline stages, results hopping back to the
/// sink on subsystem 0 — every channel carries forward and return traffic.
PipelineSpec recovery_spec() {
  PipelineSpec spec;
  spec.count = 32;
  spec.period = ticks(10);
  spec.relays = {{.think_ticks = 5, .level = runlevels::kWord},
                 {.think_ticks = 7, .level = runlevels::kWord},
                 {.think_ticks = 3, .level = runlevels::kWord}};
  spec.stage_host = {0, 1, 1, 2};
  spec.sink_host = 0;
  return spec;
}

/// Oldest token committed and valid in every store (the deepest cut a whole
/// cluster can restore; the opposite end of latest_common_valid_token).
std::optional<std::uint64_t> earliest_common_valid_token(
    const std::vector<const SnapshotStore*>& stores) {
  for (const std::uint64_t token : stores.front()->tokens())
    if (std::all_of(stores.begin(), stores.end(),
                    [&](const SnapshotStore* s) { return s->valid(token); }))
      return token;
  return std::nullopt;
}

TEST(DistributedRecovery, AutoSnapshotsPersistDurably) {
  SplitPipe pipe(30, ChannelMode::kConservative);
  auto store_a =
      std::make_shared<SnapshotStore>(fresh_dir("pia_auto_a"), /*retain=*/0);
  auto store_b =
      std::make_shared<SnapshotStore>(fresh_dir("pia_auto_b"), /*retain=*/0);
  pipe.a->set_snapshot_store(store_a);
  pipe.b->set_snapshot_store(store_b);
  pipe.a->set_auto_snapshot_interval(5);
  pipe.cluster.start_all();
  pipe.cluster.run_all();

  EXPECT_EQ(pipe.sink->received.size(), 30u);
  EXPECT_GT(store_a->stats().commits, 0u);
  EXPECT_GT(store_b->stats().commits, 0u);
  EXPECT_GT(pipe.a->stats().snapshots_persisted, 0u);
  EXPECT_GT(pipe.a->stats().snapshot_persist_bytes, 0u);
  EXPECT_TRUE(
      SnapshotStore::latest_common_valid_token({store_a.get(), store_b.get()})
          .has_value());
}

TEST(DistributedRecovery, FreshClusterRestoresMidRunCutAndResumes) {
  const PipelineSpec spec = recovery_spec();
  const PipelineResult oracle = run_single_host_pipeline(spec);
  const std::vector<ChannelMode> modes{ChannelMode::kConservative,
                                       ChannelMode::kConservative};
  RecoveryOptions options;
  options.store_root = fresh_dir("pia_fresh_restore");
  options.auto_snapshot_every = 6;
  options.retain = 0;  // keep the earliest (deepest) cut around

  std::optional<std::uint64_t> token;
  {
    FuzzCluster first(spec, modes, Wire::kLoopback, {},
                      transport::FaultPlan::none(), {1});
    first.enable_recovery(options);
    EXPECT_EQ(first.run(4000ms), oracle);
    std::vector<const SnapshotStore*> views;
    for (const auto& store : first.stores) views.push_back(store.get());
    token = earliest_common_valid_token(views);
    ASSERT_TRUE(token.has_value());
  }  // the whole cluster is gone; only the store directories survive

  FuzzCluster second(spec, modes, Wire::kLoopback, {},
                     transport::FaultPlan::none(), {1});
  second.enable_recovery(options);
  second.cluster.start_all();
  for (std::size_t g = 0; g < second.subsystems.size(); ++g)
    second.subsystems[g]->restore_snapshot_image(
        second.stores[g]->load(*token));
  for (Subsystem* s : second.subsystems) s->begin_rejoin(*token);
  auto outcomes = second.cluster.run_all(
      Subsystem::RunConfig{.stall_timeout = 4000ms});
  for (const auto& [name, outcome] : outcomes)
    EXPECT_EQ(outcome, Subsystem::RunOutcome::kQuiescent) << name;
  EXPECT_EQ((PipelineResult{second.sink->received, second.sink->times}),
            oracle);
  for (Subsystem* s : second.subsystems) {
    EXPECT_EQ(s->stats().recoveries, 1u) << s->name();
    EXPECT_GT(s->stats().rejoins_verified, 0u) << s->name();
  }
}

// Regression (recovery fuzzer seeds 5006/5044): on an optimistic channel the
// restored producer resumes dispatching immediately — nothing gates on
// grants — so its live event counters advance before the peer's RejoinMsg
// arrives.  The handshake must compare the counters frozen at begin_rejoin,
// not the live ones, or every optimistic restore of a mid-run cut raises a
// spurious kProtocol "rejoin sequence mismatch".
TEST(DistributedRecovery, OptimisticRejoinIgnoresPostRestoreTraffic) {
  const PipelineSpec spec = recovery_spec();
  const PipelineResult oracle = run_single_host_pipeline(spec);
  const std::vector<ChannelMode> modes{ChannelMode::kOptimistic,
                                       ChannelMode::kOptimistic};
  RecoveryOptions options;
  options.store_root = fresh_dir("pia_optimistic_rejoin");
  options.auto_snapshot_every = 6;
  options.retain = 0;

  std::optional<std::uint64_t> token;
  {
    FuzzCluster first(spec, modes, Wire::kLoopback, {},
                      transport::FaultPlan::none(), {1, 3});
    first.enable_recovery(options);
    EXPECT_EQ(first.run(4000ms), oracle);
    std::vector<const SnapshotStore*> views;
    for (const auto& store : first.stores) views.push_back(store.get());
    token = earliest_common_valid_token(views);
    ASSERT_TRUE(token.has_value());
  }

  FuzzCluster second(spec, modes, Wire::kLoopback, {},
                     transport::FaultPlan::none(), {1, 3});
  second.enable_recovery(options);
  second.cluster.start_all();
  for (std::size_t g = 0; g < second.subsystems.size(); ++g)
    second.subsystems[g]->restore_snapshot_image(
        second.stores[g]->load(*token));
  for (Subsystem* s : second.subsystems) s->begin_rejoin(*token);
  auto outcomes = second.cluster.run_all(
      Subsystem::RunConfig{.stall_timeout = 4000ms});
  for (const auto& [name, outcome] : outcomes)
    EXPECT_EQ(outcome, Subsystem::RunOutcome::kQuiescent) << name;
  EXPECT_EQ((PipelineResult{second.sink->received, second.sink->times}),
            oracle);
  for (Subsystem* s : second.subsystems)
    EXPECT_GT(s->stats().rejoins_verified, 0u) << s->name();
}

// ---------------------------------------------------------------------------
// Kill and recover: bit-exact with the no-crash single-host oracle
// ---------------------------------------------------------------------------

void kill_and_recover_case(const std::vector<ChannelMode>& modes, Wire wire,
                           const std::string& store_tag,
                           std::uint64_t crash_frames) {
  const PipelineSpec spec = recovery_spec();
  const PipelineResult oracle = run_single_host_pipeline(spec);
  RecoveryOptions options;
  options.store_root = fresh_dir(store_tag);
  options.auto_snapshot_every = 6;
  // Fell subsystem 1's endpoint of the ss0<->ss1 channel mid-run.  The frame
  // budget is per-mode: batching packs each scheduler slice's messages into
  // one frame, so an optimistic channel carries the whole run in under a
  // dozen frames while a conservative one exchanges hundreds of
  // request/grant frames.
  const FuzzCluster::CrashSpec crash{
      .channel = 0, .frames = crash_frames, .endpoint = 2};
  const RecoveryReport report = run_with_crash_and_recover(
      spec, modes, wire, {}, transport::FaultPlan::none(), {1, 3}, crash,
      options, /*stall_timeout=*/4000ms);
  EXPECT_TRUE(report.crash_triggered);
  EXPECT_EQ(report.result, oracle);
}

TEST(DistributedRecovery, KillAndRecoverConservativeLoopback) {
  kill_and_recover_case(
      {ChannelMode::kConservative, ChannelMode::kConservative},
      Wire::kLoopback, "pia_kill_cons", /*crash_frames=*/60);
}

TEST(DistributedRecovery, KillAndRecoverOptimisticLoopback) {
  kill_and_recover_case({ChannelMode::kOptimistic, ChannelMode::kOptimistic},
                        Wire::kLoopback, "pia_kill_opt", /*crash_frames=*/5);
}

TEST(DistributedRecovery, KillAndRecoverMixedOverTcp) {
  kill_and_recover_case({ChannelMode::kOptimistic, ChannelMode::kConservative},
                        Wire::kTcp, "pia_kill_mixed_tcp",
                        /*crash_frames=*/5);
}

// ---------------------------------------------------------------------------
// Survivor keeps running state; only the dead peer restarts
// ---------------------------------------------------------------------------

TEST(DistributedRecovery, SurvivorReplacesLinkAndRestartedPeerRejoins) {
  SplitPipe pipe(16, ChannelMode::kConservative);
  pipe.cluster.start_all();
  const std::uint64_t token = pipe.a->initiate_snapshot();
  pipe.cluster.run_all();
  ASSERT_TRUE(pipe.a->snapshot_complete(token));
  ASSERT_TRUE(pipe.b->snapshot_complete(token));
  const auto final_received = pipe.sink->received;
  const auto final_times = pipe.sink->times;
  ASSERT_EQ(final_received.size(), 16u);

  // ssB "dies"; its durable image is all that remains of it.
  const Bytes image = pipe.b->export_snapshot(token);

  // The replacement process: identical wiring, fresh everything.
  PiaNode node2("nodeB2");
  Subsystem& b2 = node2.add_subsystem("ssB");
  auto& sink2 = b2.scheduler().emplace<pia::testing::Sink>("s");
  const NetId net_b2 = b2.scheduler().make_net("wire");
  b2.scheduler().attach(net_b2, sink2.id(), "in");
  transport::LinkPair pair = transport::make_loopback_pair();
  const ChannelId chan_b2 = b2.add_channel(
      "ssA<->ssB", ChannelMode::kConservative, std::move(pair.b));
  b2.export_net(chan_b2, net_b2);

  // Survivor side: swap in the fresh wire and rewind in memory; restarted
  // side: restore the durable image.  Then both announce the rejoin.
  pipe.a->replace_link(pipe.channels.a, std::move(pair.a));
  b2.start();
  b2.restore_snapshot_image(image);
  pipe.a->restore_snapshot(token);
  pipe.a->begin_rejoin(token);
  b2.begin_rejoin(token);

  Subsystem::RunOutcome outcome_a{};
  Subsystem::RunOutcome outcome_b{};
  std::thread ta([&] { outcome_a = pipe.a->run(); });
  std::thread tb([&] { outcome_b = b2.run(); });
  ta.join();
  tb.join();

  EXPECT_EQ(outcome_a, Subsystem::RunOutcome::kQuiescent);
  EXPECT_EQ(outcome_b, Subsystem::RunOutcome::kQuiescent);
  EXPECT_GT(pipe.a->stats().rejoins_verified, 0u);
  EXPECT_GT(b2.stats().rejoins_verified, 0u);
  // The restarted sink replays to exactly the uninterrupted history.
  EXPECT_EQ(sink2.received, final_received);
  EXPECT_EQ(sink2.times, final_times);
}

/// A mid-run cut, sliced by hand on one thread: ssB initiates as soon as
/// events from ssA are in flight toward it, so its cut records channel
/// state, and the slices go on until both sides hold the complete cut
/// (before any fossil collection can drop its checkpoint).
template <typename Pair>
std::uint64_t cut_mid_run(Pair& pair) {
  pair.cluster.start_all();
  const Subsystem::RunConfig config{};
  bool progressed = false;
  const ChannelEndpoint& sender = pair.a->channel(pair.channels.a);
  const ChannelEndpoint& receiver = pair.b->channel(pair.channels.b);
  std::optional<std::uint64_t> token;
  for (int k = 0; k < 64 && !(token && pair.a->snapshot_complete(*token) &&
                              pair.b->snapshot_complete(*token));
       ++k) {
    (void)pair.a->run_slice(config, progressed);
    if (!token && sender.event_msgs_sent > receiver.event_msgs_received)
      token = pair.b->initiate_snapshot();
    (void)pair.b->run_slice(config, progressed);
  }
  return token.value_or(0);
}

/// Exports `token` from both sides of `first`, restores the images into
/// `fresh` (identically wired) and expects the same bytes back.
template <typename Pair>
void expect_same_bytes_after_restore(Pair& first, Pair& fresh) {
  const std::uint64_t token = cut_mid_run(first);
  ASSERT_TRUE(first.a->snapshot_complete(token));
  ASSERT_TRUE(first.b->snapshot_complete(token));
  const Bytes image_a = first.a->export_snapshot(token);
  const Bytes image_b = first.b->export_snapshot(token);

  fresh.cluster.start_all();
  fresh.a->restore_snapshot_image(image_a);
  fresh.b->restore_snapshot_image(image_b);
  EXPECT_TRUE(fresh.a->snapshot_complete(token));
  EXPECT_EQ(fresh.a->export_snapshot(token), image_a);
  EXPECT_EQ(fresh.b->export_snapshot(token), image_b);
}

// The image is the serialized cut: restoring it registers that cut, so the
// restored subsystem exports the very same bytes for the same token.  The
// conservative loop's cut records events in flight back toward ssA; the
// optimistic pipe's receiver has no stragglers, so its cut stays stable.
TEST(DistributedRecovery, RestoredImageExportsTheSameBytes) {
  {
    SplitLoop first(12, ChannelMode::kConservative);
    SplitLoop fresh(12, ChannelMode::kConservative);
    expect_same_bytes_after_restore(first, fresh);
  }
  {
    SplitPipe first(12, ChannelMode::kOptimistic);
    SplitPipe fresh(12, ChannelMode::kOptimistic);
    expect_same_bytes_after_restore(first, fresh);
  }
}

// Only the current image format (version 3) is read; any other version is
// a serialization error, not a best-effort decode.
TEST(DistributedRecovery, ImageOfAnotherVersionIsRejected) {
  SplitLoop first(6, ChannelMode::kConservative);
  const std::uint64_t token = cut_mid_run(first);
  const Bytes image = first.a->export_snapshot(token);
  // The section name (length varint + 17 bytes), then the version varint.
  const std::size_t version_at = 1 + std::string("pia.dist.recovery").size();
  ASSERT_EQ(image.at(version_at), std::byte{3});
  for (const std::uint8_t version : {2, 4}) {
    Bytes patched = image;
    patched[version_at] = std::byte{version};
    SplitLoop fresh(6, ChannelMode::kConservative);
    fresh.cluster.start_all();
    try {
      fresh.a->restore_snapshot_image(patched);
      FAIL() << "version " << int{version} << " image restored";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kSerialization) << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// Failure detection
// ---------------------------------------------------------------------------

TEST(DistributedRecovery, HeartbeatDetectsSilentPeer) {
  SplitPipe pipe(5, ChannelMode::kConservative);
  pipe.cluster.start_all();
  // Only A runs; B never services its endpoint, so nothing — not even a
  // heartbeat — ever arrives.  A must report the dead peer, not the stall.
  pipe.a->set_heartbeat(5ms, 60ms);
  const auto outcome =
      pipe.a->run(Subsystem::RunConfig{.stall_timeout = 2000ms});
  EXPECT_EQ(outcome, Subsystem::RunOutcome::kPeerDown);
  EXPECT_GT(pipe.a->stats().heartbeats_sent, 0u);
  EXPECT_EQ(pipe.a->stats().peer_down_events, 1u);
  EXPECT_TRUE(pipe.a->channel(pipe.channels.a).peer_down);
}

TEST(DistributedRecovery, HeartbeatsFlowOnHealthyRun) {
  SplitPipe pipe(10, ChannelMode::kConservative);
  pipe.a->set_heartbeat(1ms, 2000ms);
  pipe.b->set_heartbeat(1ms, 2000ms);
  pipe.cluster.start_all();
  auto outcomes = pipe.cluster.run_all();
  for (const auto& [name, outcome] : outcomes)
    EXPECT_EQ(outcome, Subsystem::RunOutcome::kQuiescent) << name;
  EXPECT_EQ(pipe.sink->received.size(), 10u);
  // The first beacon fires immediately on both sides.
  EXPECT_GT(pipe.a->stats().heartbeats_sent, 0u);
  EXPECT_GT(pipe.b->stats().heartbeats_sent, 0u);
  EXPECT_EQ(pipe.a->stats().peer_down_events, 0u);
  EXPECT_EQ(pipe.b->stats().peer_down_events, 0u);
}

// ---------------------------------------------------------------------------
// Rejoin handshake rejects inconsistent restores
// ---------------------------------------------------------------------------

TEST(DistributedRecovery, UnsolicitedRejoinRaisesProtocolError) {
  SplitPipe pipe(1, ChannelMode::kConservative);
  pipe.cluster.start_all();
  pipe.a->begin_rejoin(42);
  try {
    pipe.b->drain();  // B has no rejoin in progress
    FAIL() << "unsolicited rejoin accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kProtocol);
  }
}

TEST(DistributedRecovery, RejoinTokenMismatchRaisesProtocolError) {
  SplitPipe pipe(4, ChannelMode::kConservative);
  pipe.cluster.start_all();
  pipe.cluster.run_all();
  pipe.a->begin_rejoin(7);
  pipe.b->begin_rejoin(8);
  try {
    pipe.a->drain();  // sees B's token 8 against its own 7
    FAIL() << "token mismatch accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kProtocol);
  }
}

TEST(DistributedRecovery, RejoinProtocolMismatchRaisesProtocolError) {
  SplitPipe pipe(4, ChannelMode::kConservative);
  pipe.cluster.start_all();
  pipe.cluster.run_all();
  pipe.b->begin_rejoin(7);
  // A peer speaking another wire-protocol version announces itself.
  ChannelEndpoint& a_end = pipe.a->channel(pipe.channels.a);
  a_end.send_message(RejoinMsg{.token = 7,
                               .events_sent = a_end.event_msgs_sent,
                               .events_received = a_end.event_msgs_received,
                               .protocol = kChannelProtocolVersion + 1});
  try {
    pipe.b->drain();
    FAIL() << "protocol mismatch accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kProtocol);
    EXPECT_NE(std::string(e.what()).find("protocol mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST(DistributedRecovery, RejoinCounterMismatchRaisesProtocolError) {
  SplitPipe pipe(6, ChannelMode::kConservative);
  pipe.cluster.start_all();
  pipe.cluster.run_all();
  ASSERT_EQ(pipe.sink->received.size(), 6u);
  // Tamper with the survivor's sequence state: the peer's cross-check must
  // refuse to resume on divergent histories.
  pipe.a->channel(pipe.channels.a).event_msgs_sent += 1;
  pipe.a->begin_rejoin(7);
  pipe.b->begin_rejoin(7);
  try {
    pipe.b->drain();
    FAIL() << "counter mismatch accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kProtocol);
  }
}

}  // namespace
}  // namespace pia::dist
