// Engine-isolation tests: drive the sync engines against a stub
// EngineContext — a real scheduler, checkpoint manager and channel set, but
// no Subsystem facade, no run loop, no sockets.  Each channel is one side of
// a loopback pair whose far end stays in the stub, so a test can decode
// exactly what an engine transmitted.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "base/rng.hpp"
#include "core/checkpoint.hpp"
#include "core/scheduler.hpp"
#include "dist/channel_set.hpp"
#include "dist/sync/adaptive.hpp"
#include "dist/sync/conservative.hpp"
#include "dist/sync/optimistic.hpp"
#include "dist/sync/snapshot.hpp"
#include "transport/link.hpp"

namespace pia::dist::sync {
namespace {

constexpr std::uint32_t kStubId = 7;

class StubContext : public EngineContext {
 public:
  StubContext() {
    scheduler_.init();
    conservative_ = std::make_unique<ConservativeEngine>(*this);
    optimistic_ = std::make_unique<OptimisticEngine>(*this);
    snapshot_ = std::make_unique<SnapshotCoordinator>(*this);
  }

  ChannelId add_channel(ChannelMode mode) {
    auto pair = transport::make_loopback_pair();
    const ChannelId id{static_cast<std::uint32_t>(channels_.size())};
    auto endpoint = std::make_unique<ChannelEndpoint>(
        "stub" + std::to_string(id.value()), mode, std::move(pair.a), kStubId);
    endpoint->index = id.value();
    channels_.add(std::move(endpoint));
    peers_.push_back(std::make_unique<ChannelEndpoint>(
        "peer" + std::to_string(id.value()), mode, std::move(pair.b), 99));
    return id;
  }

  /// Everything the engine sent on channel `i` since the last call.
  std::vector<ChannelMessage> sent_on(std::size_t i) {
    std::vector<ChannelMessage> out;
    while (auto message = peers_[i]->poll()) out.push_back(std::move(*message));
    return out;
  }

  [[nodiscard]] ConservativeEngine& conservative() { return *conservative_; }
  [[nodiscard]] OptimisticEngine& optimistic() { return *optimistic_; }
  [[nodiscard]] SnapshotCoordinator& snapshot() { return *snapshot_; }

  // Message totals reported to termination probes; tests set these to model
  // in-flight traffic.
  std::uint64_t sent_total = 0;
  std::uint64_t received_total = 0;

  // --- EngineContext -------------------------------------------------------
  Scheduler& scheduler() override { return scheduler_; }
  const Scheduler& scheduler() const override { return scheduler_; }
  CheckpointManager& checkpoints() override { return checkpoints_; }
  const CheckpointManager& checkpoints() const override {
    return checkpoints_;
  }
  ChannelSet& channels() override { return channels_; }
  const ChannelSet& channels() const override { return channels_; }
  const std::string& subsystem_name() const override { return name_; }
  std::uint32_t subsystem_id() const override { return kStubId; }
  void note_activity() override { conservative_->note_activity(); }
  void reset_termination() override { conservative_->reset_termination(); }
  std::uint64_t messages_sent_total() const override { return sent_total; }
  std::uint64_t messages_received_total() const override {
    return received_total;
  }
  void flush_unregenerated(VirtualTime upto) override {
    optimistic_->flush_unregenerated(upto);
  }
  SnapshotId take_checkpoint() override {
    return optimistic_->take_checkpoint();
  }
  void reset_checkpoint_cadence() override { optimistic_->reset_cadence(); }
  SnapshotPositions positions_of(SnapshotId snap) const override {
    return optimistic_->positions_of(snap);
  }
  void drop_positions_after(SnapshotId snap) override {
    optimistic_->drop_positions_after(snap);
  }
  void clear_positions() override { optimistic_->clear_positions(); }
  void scrub_retracted(const SnapshotPositions& positions) override {
    optimistic_->scrub_retracted(positions);
  }
  void inject_input(ChannelEndpoint& endpoint,
                    ChannelEndpoint::InputRecord& record) override {
    optimistic_->inject_input(endpoint, record);
  }
  void invalidate_snapshots_after(SnapshotId kept) override {
    snapshot_->invalidate_after(kept);
  }
  const PendingSnapshot* find_snapshot(std::uint64_t token) const override {
    return snapshot_->find(token);
  }
  bool mode_negotiation_hold() const override { return false; }
  bool mode_change_allowed() const override { return true; }
  std::uint64_t initiate_snapshot() override { return snapshot_->initiate(); }

 private:
  Scheduler scheduler_{"stub"};
  CheckpointManager checkpoints_{scheduler_, CheckpointPolicy::kImmediate};
  ChannelSet channels_;
  std::string name_ = "stub";
  std::vector<std::unique_ptr<ChannelEndpoint>> peers_;
  std::unique_ptr<ConservativeEngine> conservative_;
  std::unique_ptr<OptimisticEngine> optimistic_;
  std::unique_ptr<SnapshotCoordinator> snapshot_;
};

// ---------------------------------------------------------------------------
// Conservative grant math
// ---------------------------------------------------------------------------

TEST(SyncConservative, GrantAppliesSelfRestrictionRemoval) {
  StubContext ctx;
  const ChannelId a = ctx.add_channel(ChannelMode::kConservative);
  const ChannelId b = ctx.add_channel(ChannelMode::kConservative);
  ctx.channels().at(a).granted_in = ticks(5);
  ctx.channels().at(a).lookahead = ticks(3);
  ctx.channels().at(b).granted_in = ticks(50);

  // The promise to `a` ignores a's own restriction (only b's grant and the
  // empty local queue bound it) and adds a's lookahead.
  EXPECT_EQ(ctx.conservative().grant_for(a).ticks(), 53);
  // The promise to `b` IS bounded by a's grant.
  EXPECT_EQ(ctx.conservative().grant_for(b).ticks(), 5);
}

TEST(SyncConservative, GrantClampedByFirstLiveUnconfirmedOutput) {
  StubContext ctx;
  const ChannelId a = ctx.add_channel(ChannelMode::kConservative);
  const ChannelId b = ctx.add_channel(ChannelMode::kConservative);
  ctx.channels().at(b).granted_in = VirtualTime::infinity();

  // Two unconfirmed outputs to the requester; the first is retracted, so
  // only the second (t=20) bounds the promise.
  ChannelEndpoint& ea = ctx.channels().at(a);
  ea.output_log.push_back(ChannelEndpoint::OutputRecord{
      .id = SendId{kStubId, 1}, .net_index = 0, .time = ticks(10),
      .value = Value{std::uint64_t{1}}, .retracted = true});
  ea.output_log.push_back(ChannelEndpoint::OutputRecord{
      .id = SendId{kStubId, 2}, .net_index = 0, .time = ticks(20),
      .value = Value{std::uint64_t{2}}});
  ea.replay_cursor = 0;  // whole log unconfirmed

  EXPECT_EQ(ctx.conservative().grant_for(a).ticks(), 20);
  // Confirmed outputs stop bounding the promise.
  ea.replay_cursor = ea.output_log.size();
  EXPECT_TRUE(ctx.conservative().grant_for(a).is_infinite());
}

TEST(SyncConservative, EffectiveGrantGroundsOnEventsSeen) {
  StubContext ctx;
  const ChannelId a = ctx.add_channel(ChannelMode::kConservative);
  ChannelEndpoint& ea = ctx.channels().at(a);

  // The peer promised 100 having seen none of our two sends: the barrier
  // clamps to the first unseen send's time plus the peer's reaction slack.
  ea.output_log.push_back(ChannelEndpoint::OutputRecord{
      .id = SendId{kStubId, 1}, .net_index = 0, .time = ticks(30),
      .value = Value{std::uint64_t{1}}});
  ea.output_log.push_back(ChannelEndpoint::OutputRecord{
      .id = SendId{kStubId, 2}, .net_index = 0, .time = ticks(40),
      .value = Value{std::uint64_t{2}}});
  ea.event_msgs_sent = 2;
  ea.granted_in = ticks(100);
  ea.granted_in_seen = 0;
  ea.granted_in_lookahead = ticks(2);
  EXPECT_EQ(ea.effective_grant().ticks(), 32);

  // Once the peer has seen everything, the grant stands on its own.
  ea.granted_in_seen = 2;
  EXPECT_EQ(ea.effective_grant().ticks(), 100);
}

// The per-channel pricing the one-pass grant pricing replaced, kept as the
// reference: every pending event and every other channel rescanned for each
// requester.
VirtualTime reference_grant(const EngineContext& ctx, ChannelId requester) {
  const ChannelSet& channels = ctx.channels();
  const ChannelEndpoint& target = channels[requester.value()];
  if (!target.can_send_events) return VirtualTime::infinity();
  const ComponentId proxy = target.channel_component;
  VirtualTime crossing = VirtualTime::infinity();
  VirtualTime horizon = VirtualTime::infinity();
  if (proxy.valid()) {
    const PortIndex rx = static_cast<const ChannelComponent&>(
                             ctx.scheduler().component(proxy))
                             .rx_port();
    ctx.scheduler().for_each_pending_before(
        VirtualTime::infinity(), [&](const Event& e) {
          if (e.kind == EventKind::kDeliver && e.target == proxy &&
              e.port != rx)
            crossing = min(crossing, e.time);
          else
            horizon = min(horizon, e.time);
        });
  } else {
    horizon = ctx.scheduler().next_event_time();
  }
  for (std::uint32_t i = 0; i < channels.size(); ++i) {
    if (ChannelId{i} == requester) continue;
    horizon = min(horizon, channels[i].effective_grant());
  }
  for (std::size_t k = target.replay_cursor; k < target.output_log.size();
       ++k) {
    if (target.output_log[k].retracted) continue;
    horizon = min(horizon, target.output_log[k].time);
    break;
  }
  return min(horizon + target.lookahead, crossing);
}

VirtualTime random_stamp(Rng& rng) {
  return ticks(static_cast<VirtualTime::rep>(rng.below(60)));
}

// Randomized subsystems: crossings queued on several proxies, rx-port
// injections, wakes and plain deliveries, sink endpoints, channels without
// a proxy, unconfirmed and retracted output-log entries, peer grants with
// unseen sends, and zero, finite and infinite lookaheads.  Every grant must
// equal the reference, including after more events are queued.
TEST(SyncConservative, OnePassPricingMatchesPerChannelReference) {
  Rng rng(0x9A17u);
  for (int round = 0; round < 400; ++round) {
    StubContext ctx;
    Scheduler& scheduler = ctx.scheduler();
    const ComponentId worker = scheduler.add(
        std::make_unique<ChannelComponent>("worker"));
    struct Proxy {
      ComponentId id;
      PortIndex rx = kNoPort;
      std::vector<PortIndex> hidden;
    };
    std::vector<Proxy> proxies;
    const std::uint32_t n = 1 + static_cast<std::uint32_t>(rng.below(6));
    for (std::uint32_t i = 0; i < n; ++i) {
      const ChannelId id = ctx.add_channel(
          rng.chance(0.7) ? ChannelMode::kConservative
                          : ChannelMode::kOptimistic);
      ChannelEndpoint& c = ctx.channels().at(id);
      const std::uint64_t shape = rng.below(10);
      c.lookahead = shape == 0   ? VirtualTime::infinity()
                    : shape < 3 ? VirtualTime::zero()
                                : ticks(static_cast<VirtualTime::rep>(
                                      rng.below(20)));
      c.can_send_events = !rng.chance(0.15);
      c.granted_in = rng.chance(0.15) ? VirtualTime::infinity()
                                      : random_stamp(rng) + ticks(20);
      c.granted_in_lookahead =
          ticks(static_cast<VirtualTime::rep>(rng.below(10)));
      VirtualTime stamp = random_stamp(rng);
      const std::uint64_t logged = rng.below(4);
      for (std::uint64_t k = 0; k < logged; ++k) {
        c.output_log.push_back(ChannelEndpoint::OutputRecord{
            .id = SendId{kStubId, k + 1}, .net_index = 0, .time = stamp,
            .value = Value{k}, .retracted = rng.chance(0.4)});
        stamp = stamp + ticks(static_cast<VirtualTime::rep>(rng.below(8)));
      }
      c.event_msgs_sent = logged;
      c.granted_in_seen = rng.below(logged + 1);
      c.replay_cursor = static_cast<std::size_t>(rng.below(logged + 1));
      if (rng.chance(0.2)) continue;  // no local proxy
      auto component =
          std::make_unique<ChannelComponent>("proxy" + std::to_string(i));
      Proxy proxy{.rx = component->rx_port()};
      const std::uint64_t nets = 1 + rng.below(3);
      for (std::uint64_t k = 0; k < nets; ++k)
        proxy.hidden.push_back(component->add_split_net());
      proxy.id = scheduler.add(std::move(component));
      c.channel_component = proxy.id;
      proxies.push_back(std::move(proxy));
    }
    ctx.conservative().index_channels();

    const auto queue_event = [&](VirtualTime time) {
      Event e{.time = time};
      const std::uint64_t kind = proxies.empty() ? 3 : rng.below(4);
      if (kind < 3) {
        const Proxy& proxy = proxies[rng.below(proxies.size())];
        e.target = proxy.id;
        e.port = kind == 0 ? proxy.rx
                           : proxy.hidden[rng.below(proxy.hidden.size())];
      } else if (rng.chance(0.5)) {
        e.target = worker;
        e.port = 0;
      } else {
        // A wake is plain work even when it targets a proxy.
        e.target = proxies.empty() || rng.chance(0.5)
                       ? worker
                       : proxies[rng.below(proxies.size())].id;
        e.kind = EventKind::kWake;
      }
      scheduler.inject(std::move(e));
    };
    // A third of the rounds open with a crossing at the heap top.
    if (!proxies.empty() && rng.chance(0.33)) {
      const Proxy& proxy = proxies[rng.below(proxies.size())];
      scheduler.inject(Event{.time = VirtualTime::zero(),
                             .target = proxy.id,
                             .port = proxy.hidden.front()});
    }
    for (int batch = 0; batch < 3; ++batch) {
      for (std::uint32_t i = 0; i < n; ++i)
        ASSERT_EQ(ctx.conservative().grant_for(ChannelId{i}),
                  reference_grant(ctx, ChannelId{i}))
            << "round " << round << " batch " << batch << " channel " << i;
      // push_grants prices every channel at once: an unacknowledged
      // receive forces a push on each, so granted_out is every promise.
      for (std::uint32_t i = 0; i < n; ++i) {
        ChannelEndpoint& c = ctx.channels().at(ChannelId{i});
        c.event_msgs_received = c.granted_out_seen + 1;
      }
      ctx.conservative().push_grants();
      for (std::uint32_t i = 0; i < n; ++i)
        ASSERT_EQ(ctx.channels().at(ChannelId{i}).granted_out,
                  reference_grant(ctx, ChannelId{i}))
            << "round " << round << " batch " << batch << " push " << i;
      const std::uint64_t more = rng.below(25);
      for (std::uint64_t k = 0; k < more; ++k) queue_event(random_stamp(rng));
    }
  }
}

// ---------------------------------------------------------------------------
// Unseen-send clamp
// ---------------------------------------------------------------------------

// A conservative channel whose sender was rolled back by a straggler on
// another channel: it sent 4631, rolled back to 4035, and re-sent 4185
// and then 4631.  Lazy cancellation retracted the first 4631, so the
// first unseen log entry is the retracted one; the clamp must come from
// the earliest unseen send, 4185.
TEST(SyncConservative, UnseenSendClampSeesReSentEarlierEvent) {
  StubContext ctx;
  const ChannelId a = ctx.add_channel(ChannelMode::kConservative);
  ChannelEndpoint& ea = ctx.channels().at(a);
  OptimisticEngine& optimistic = ctx.optimistic();
  const auto send = [&](VirtualTime t) {
    if (!optimistic.suppress_regeneration(ea, 0, Value{t.ticks()}, t)) {
      ea.send_event(0, Value{t.ticks()}, t);
      ea.replay_cursor = ea.output_log.size();
    }
  };
  for (const VirtualTime::rep t : {1000, 2000, 3000, 4631}) send(ticks(t));
  ctx.conservative().on_grant(
      a, SafeTimeGrant{.safe_time = VirtualTime::infinity(),
                       .events_seen = 3,
                       .lookahead = ticks(400)});
  EXPECT_EQ(ea.effective_grant(), ticks(5031));

  ea.replay_cursor = 3;  // rollback to 4035: the 4631 send is unconfirmed
  send(ticks(4185));     // diverges: retracts 4631, sends 4185
  send(ticks(4631));
  ASSERT_EQ(ea.output_log.size(), 6u);
  EXPECT_TRUE(ea.output_log[3].retracted);
  EXPECT_EQ(ea.effective_grant(), ticks(4585));
}

// Randomized send / dispatch / checkpoint / rollback / grant sequences on
// one endpoint, driven through the optimistic engine's lazy cancellation.
// The clamp must equal a brute force over every send the peer had not
// seen, and never exceed the earliest unseen LIVE send.  Live entries stay
// in time order, which is what price_grants' first-live-entry bound on
// the unconfirmed tail relies on.
TEST(SyncConservative, UnseenSendClampMatchesBruteForce) {
  Rng rng(0xC1A3Fu);
  for (int round = 0; round < 300; ++round) {
    StubContext ctx;
    const ChannelId a = ctx.add_channel(ChannelMode::kConservative);
    ChannelEndpoint& ea = ctx.channels().at(a);
    OptimisticEngine& optimistic = ctx.optimistic();
    std::vector<VirtualTime> sent;  // every send, in send order
    struct Checkpoint {
      std::size_t cursor;
      VirtualTime time;
    };
    std::vector<Checkpoint> checkpoints{{0, VirtualTime::zero()}};
    VirtualTime now = VirtualTime::zero();
    std::uint64_t seen = 0;
    for (int step = 0; step < 60; ++step) {
      const std::uint64_t op = rng.below(10);
      if (op < 6) {
        // Dispatch at `t`: unregenerated outputs older than it retract
        // first, then the event may send (identical to an earlier
        // execution's send most of the time, diverging sometimes).
        const VirtualTime t =
            now + ticks(static_cast<VirtualTime::rep>(rng.below(4)));
        optimistic.flush_unregenerated(t);
        now = t;
        if (rng.chance(0.7)) {
          const Value value{rng.chance(0.8) ? t.ticks() : rng.below(1000)};
          if (!optimistic.suppress_regeneration(ea, 0, value, t)) {
            ea.send_event(0, value, t);
            ea.replay_cursor = ea.output_log.size();
            sent.push_back(t);
          }
        }
        if (rng.chance(0.25)) checkpoints.push_back({ea.replay_cursor, now});
      } else if (op < 8) {
        const std::size_t k = rng.below(checkpoints.size());
        ea.replay_cursor = std::min(ea.replay_cursor, checkpoints[k].cursor);
        now = checkpoints[k].time;
        checkpoints.resize(k + 1);
      } else {
        seen += rng.below(sent.size() - seen + 1);
        const std::uint64_t shape = rng.below(8);
        ctx.conservative().on_grant(
            a, SafeTimeGrant{
                   .safe_time = rng.chance(0.2)
                                    ? VirtualTime::infinity()
                                    : now + ticks(static_cast<VirtualTime::rep>(
                                                rng.below(40))),
                   .events_seen = seen,
                   .lookahead = shape == 0 ? VirtualTime::infinity()
                                           : ticks(static_cast<VirtualTime::rep>(
                                                 rng.below(10))),
                   .need_by = now + ticks(static_cast<VirtualTime::rep>(
                                        rng.below(20)))});
      }

      VirtualTime unseen = VirtualTime::infinity();
      for (std::size_t k = seen; k < sent.size(); ++k)
        unseen = min(unseen, sent[k]);
      VirtualTime live = VirtualTime::infinity();
      VirtualTime last_live = VirtualTime::zero();
      for (std::size_t k = 0; k < ea.output_log.size(); ++k) {
        const auto& record = ea.output_log[k];
        if (record.retracted) continue;
        ASSERT_GE(record.time, last_live) << "round " << round;
        last_live = record.time;
        if (k >= seen) live = min(live, record.time);
      }
      ASSERT_EQ(ea.earliest_unseen_send(seen), unseen)
          << "round " << round << " step " << step;
      ASSERT_EQ(ea.effective_grant(),
                min(ea.granted_in, unseen + ea.granted_in_lookahead))
          << "round " << round << " step " << step;
      ASSERT_LE(ea.effective_grant(),
                min(ea.granted_in, live + ea.granted_in_lookahead));
    }
  }
}

// ---------------------------------------------------------------------------
// Demand-driven grant pushes (need_by)
// ---------------------------------------------------------------------------

/// Queues plain local work at `time` on a component of the stub scheduler.
void queue_work(StubContext& ctx, VirtualTime time) {
  Scheduler& scheduler = ctx.scheduler();
  ComponentId worker;
  for (const ComponentId id : scheduler.component_ids())
    if (scheduler.component(id).name() == "worker") worker = id;
  if (!worker.valid())
    worker = scheduler.add(std::make_unique<ChannelComponent>("worker"));
  scheduler.inject(Event{.time = time, .target = worker, .port = 0});
}

std::vector<SafeTimeGrant> grants_in(const std::vector<ChannelMessage>& sent) {
  std::vector<SafeTimeGrant> grants;
  for (const auto& message : sent)
    if (const auto* grant = std::get_if<SafeTimeGrant>(&message))
      grants.push_back(*grant);
  return grants;
}

TEST(SyncNeed, LeafDeclaresNextOrHorizonRelayDeclaresZero) {
  StubContext ctx;
  const ChannelId a = ctx.add_channel(ChannelMode::kConservative);
  ConservativeEngine& engine = ctx.conservative();
  const ChannelEndpoint& ea = ctx.channels().at(a);

  // Before any run a leaf asks for everything.  An idle leaf can then use
  // only an infinite promise, or one reaching the horizon it exits at; a
  // queued event lowers the need to its stamp.
  EXPECT_EQ(engine.need_on(ea), VirtualTime::zero());
  engine.set_horizon(VirtualTime::infinity());
  EXPECT_TRUE(engine.need_on(ea).is_infinite());
  engine.set_horizon(ticks(500));
  EXPECT_EQ(engine.need_on(ea), ticks(500));
  engine.push_grants();
  const auto pushed = grants_in(ctx.sent_on(0));
  ASSERT_EQ(pushed.size(), 1u);
  EXPECT_EQ(pushed[0].need_by, ticks(500));
  queue_work(ctx, ticks(70));
  EXPECT_EQ(engine.need_on(ea), ticks(70));

  // A replica member's group passes needs through last-wins: zero.
  engine.set_replica_member(true);
  EXPECT_EQ(engine.need_on(ea), VirtualTime::zero());
  engine.set_replica_member(false);

  // An optimistic channel never blocks on its floor: zero.
  ctx.channels().at(a).set_mode(ChannelMode::kOptimistic);
  EXPECT_EQ(engine.need_on(ea), VirtualTime::zero());
  ctx.channels().at(a).set_mode(ChannelMode::kConservative);

  // A second channel that can send events makes this a relay: it builds
  // promises there from a's grant, so it takes every improvement.
  const ChannelId b = ctx.add_channel(ChannelMode::kConservative);
  EXPECT_EQ(engine.need_on(ea), VirtualTime::zero());
  EXPECT_EQ(engine.need_on(ctx.channels().at(b)), VirtualTime::zero());

  // So does a receive-only one: its peer can deliver an event below any
  // need declared on a, and a's grantor would never see it.
  ctx.channels().at(b).can_send_events = false;
  EXPECT_EQ(engine.need_on(ea), VirtualTime::zero());
}

TEST(SyncNeed, PushesBelowThePeerNeedAreWithheld) {
  StubContext ctx;
  const ChannelId a = ctx.add_channel(ChannelMode::kConservative);
  ConservativeEngine& engine = ctx.conservative();
  ChannelEndpoint& ea = ctx.channels().at(a);
  queue_work(ctx, ticks(40));  // our promise to a: 40

  engine.on_grant(a, SafeTimeGrant{.safe_time = ticks(10),
                                   .lookahead = ticks(0),
                                   .need_by = ticks(50)});
  EXPECT_EQ(ea.peer_need, ticks(50));
  engine.push_grants();
  EXPECT_TRUE(ctx.sent_on(0).empty());
  EXPECT_EQ(ea.granted_out, VirtualTime::zero());

  // An acknowledgment-only push below the need is withheld too.
  ea.event_msgs_received = 1;
  engine.push_grants();
  EXPECT_TRUE(ctx.sent_on(0).empty());

  // The push that reaches the need goes out, acknowledgment included.
  ea.lookahead = ticks(10);
  engine.push_grants();
  const auto pushed = grants_in(ctx.sent_on(0));
  ASSERT_EQ(pushed.size(), 1u);
  EXPECT_EQ(pushed[0].safe_time, ticks(50));
  EXPECT_EQ(pushed[0].events_seen, 1u);
  EXPECT_EQ(pushed[0].request_id, 0u);
}

TEST(SyncNeed, SendsLowerTheNeedAndDeclarationsClampToUnseenSends) {
  StubContext ctx;
  const ChannelId a = ctx.add_channel(ChannelMode::kConservative);
  ConservativeEngine& engine = ctx.conservative();
  ChannelEndpoint& ea = ctx.channels().at(a);

  engine.on_grant(a, SafeTimeGrant{.safe_time = ticks(0),
                                   .lookahead = ticks(0),
                                   .need_by = ticks(90)});
  EXPECT_EQ(ea.peer_need, ticks(90));
  // The peer will hold our event at 60 before it can say anything else.
  ea.send_event(0, Value{std::uint64_t{1}}, ticks(60));
  ea.send_event(0, Value{std::uint64_t{2}}, ticks(30));
  EXPECT_EQ(ea.peer_need, ticks(30));

  // A need declared before the peer saw those sends is clamped to the
  // earliest of them, which is not the first.
  engine.on_grant(a, SafeTimeGrant{.safe_time = ticks(0),
                                   .events_seen = 0,
                                   .lookahead = ticks(0),
                                   .need_by = ticks(80)});
  EXPECT_EQ(ea.peer_need, ticks(30));
  engine.on_grant(a, SafeTimeGrant{.safe_time = ticks(0),
                                   .events_seen = 2,
                                   .lookahead = ticks(0),
                                   .need_by = ticks(80)});
  EXPECT_EQ(ea.peer_need, ticks(80));
  // Requests declare too.
  engine.on_request(a, SafeTimeRequest{.request_id = 1,
                                       .need_by = ticks(85),
                                       .events_seen = 1});
  EXPECT_EQ(ea.peer_need, ticks(30));
}

TEST(SyncNeed, RequestBelowTheNeedIsAnsweredByThePushThatReachesIt) {
  StubContext ctx;
  const ChannelId a = ctx.add_channel(ChannelMode::kConservative);
  ConservativeEngine& engine = ctx.conservative();
  ChannelEndpoint& ea = ctx.channels().at(a);
  queue_work(ctx, ticks(40));

  engine.on_request(a, SafeTimeRequest{.request_id = 7,
                                       .need_by = ticks(45)});
  EXPECT_TRUE(ctx.sent_on(0).empty());
  engine.push_grants();
  EXPECT_TRUE(ctx.sent_on(0).empty());

  ea.lookahead = ticks(5);
  engine.push_grants();
  const auto pushed = grants_in(ctx.sent_on(0));
  ASSERT_EQ(pushed.size(), 1u);
  EXPECT_EQ(pushed[0].safe_time, ticks(45));
  EXPECT_EQ(pushed[0].request_id, 7u);

  // A request the grant already covers is answered by id at the next
  // push_grants, though the promise has not improved.
  engine.on_request(a, SafeTimeRequest{.request_id = 8,
                                       .need_by = ticks(45),
                                       .events_seen = 0});
  EXPECT_TRUE(ctx.sent_on(0).empty());
  engine.push_grants();
  const auto replied = grants_in(ctx.sent_on(0));
  ASSERT_EQ(replied.size(), 1u);
  EXPECT_EQ(replied[0].request_id, 8u);
  EXPECT_EQ(replied[0].safe_time, ticks(45));

  // On the requesting side any grant ends the outstanding request.
  ea.request_outstanding = true;
  engine.on_grant(a, SafeTimeGrant{.request_id = 0,
                                   .safe_time = ticks(45),
                                   .lookahead = ticks(0)});
  EXPECT_FALSE(ea.request_outstanding);
}

TEST(SyncNeed, RequestIsAnsweredOnceByIdEvenWhenThePushImproves) {
  StubContext ctx;
  const ChannelId a = ctx.add_channel(ChannelMode::kConservative);
  ConservativeEngine& engine = ctx.conservative();
  queue_work(ctx, ticks(40));
  engine.push_grants();
  ASSERT_EQ(grants_in(ctx.sent_on(0)).size(), 1u);

  // The drain records the request; nothing leaves until the slice pushes.
  engine.on_request(a, SafeTimeRequest{.request_id = 3,
                                       .need_by = ticks(10),
                                       .events_seen = 0});
  EXPECT_TRUE(ctx.sent_on(0).empty());
  // The push also improves the promise (the channel gains lookahead): one
  // grant carries both, under the request's id.
  ctx.channels().at(a).lookahead = ticks(5);
  engine.push_grants();
  const auto answered = grants_in(ctx.sent_on(0));
  ASSERT_EQ(answered.size(), 1u);
  EXPECT_EQ(answered[0].request_id, 3u);
  EXPECT_EQ(answered[0].safe_time, ticks(45));

  // Answered once: the next push with nothing new sends nothing.
  engine.push_grants();
  EXPECT_TRUE(ctx.sent_on(0).empty());
}

TEST(SyncNeed, RequestAnsweredBeforeAnyPushStillGetsTheHorizonGrant) {
  // An idle leaf at horizon 500 answers its grantor's request at its first
  // push (a run slice drains, then pushes).
  StubContext leaf;
  const ChannelId la = leaf.add_channel(ChannelMode::kConservative);
  leaf.conservative().set_horizon(ticks(500));
  leaf.conservative().on_request(la, SafeTimeRequest{.request_id = 1});
  leaf.conservative().push_grants();
  const auto replied = grants_in(leaf.sent_on(0));
  ASSERT_EQ(replied.size(), 1u);
  EXPECT_EQ(replied[0].request_id, 1u);
  EXPECT_EQ(replied[0].need_by, ticks(500));

  // Its grantor's next event lies past the horizon.  The leaf never blocks
  // or requests again (it has nothing below the horizon), so the grantor's
  // push is the only way it can reach kHorizon: it must go out.
  StubContext grantor;
  const ChannelId ga = grantor.add_channel(ChannelMode::kConservative);
  queue_work(grantor, ticks(800));
  grantor.conservative().on_grant(ga, replied[0]);
  grantor.conservative().push_grants();
  const auto pushed = grants_in(grantor.sent_on(0));
  ASSERT_EQ(pushed.size(), 1u);
  EXPECT_GE(pushed[0].safe_time, ticks(500));
}

/// Gives every channel of `ctx` a non-zero recorded need.
void raise_needs(StubContext& ctx) {
  for (auto& c : ctx.channels()) c->peer_need = ticks(300);
}

void expect_needs_reset(StubContext& ctx) {
  for (const auto& c : ctx.channels())
    EXPECT_EQ(c->peer_need, VirtualTime::zero()) << c->name();
}

TEST(SyncNeed, NeedsResetOnSnapshotRestoreRecoveryAndModeFlip) {
  StubContext ctx;
  const ChannelId a = ctx.add_channel(ChannelMode::kConservative);
  SnapshotCoordinator& snap = ctx.snapshot();
  const std::uint64_t token = snap.initiate();
  snap.on_mark(a, MarkMsg{.token = token});
  ASSERT_TRUE(snap.complete(token));

  raise_needs(ctx);
  snap.restore(token);
  expect_needs_reset(ctx);

  const Bytes image = snap.export_image(token);
  raise_needs(ctx);
  snap.restore_image(image);
  expect_needs_reset(ctx);

  // The acceptor side of a flip to optimistic.
  AdaptiveController adaptive(ctx);
  adaptive.enable(AdaptivePolicy{});
  raise_needs(ctx);
  const std::uint64_t nonce = (std::uint64_t{3} << 32) | 1;
  adaptive.on_proposal(
      a, ModeProposalMsg{
             .nonce = nonce,
             .epoch = ctx.channels().at(a).mode_epoch(),
             .target = static_cast<std::uint8_t>(ChannelMode::kOptimistic)});
  adaptive.on_commit(a, ModeCommitMsg{.nonce = nonce, .token = token});
  ASSERT_EQ(ctx.channels().at(a).mode(), ChannelMode::kOptimistic);
  expect_needs_reset(ctx);
}

// ---------------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------------

TEST(SyncProtocol, NeedByRoundTrips) {
  const SafeTimeRequest request{
      .request_id = 5, .need_by = ticks(1234), .events_seen = 17};
  const auto decoded_request =
      std::get<SafeTimeRequest>(decode_message(encode_message(request)));
  EXPECT_EQ(decoded_request.request_id, 5u);
  EXPECT_EQ(decoded_request.need_by, ticks(1234));
  EXPECT_EQ(decoded_request.events_seen, 17u);

  const SafeTimeGrant grant{.request_id = 5,
                            .safe_time = ticks(99),
                            .events_seen = 3,
                            .lookahead = ticks(4),
                            .need_by = VirtualTime::infinity()};
  const auto decoded_grant =
      std::get<SafeTimeGrant>(decode_message(encode_message(grant)));
  EXPECT_EQ(decoded_grant.safe_time, ticks(99));
  EXPECT_EQ(decoded_grant.events_seen, 3u);
  EXPECT_EQ(decoded_grant.lookahead, ticks(4));
  EXPECT_TRUE(decoded_grant.need_by.is_infinite());
}

// ---------------------------------------------------------------------------
// Termination probe state machine
// ---------------------------------------------------------------------------

TEST(SyncConservative, TerminationNeedsTwoIdenticalBalancedRounds) {
  StubContext ctx;
  ctx.add_channel(ChannelMode::kConservative);
  ctx.add_channel(ChannelMode::kConservative);
  ConservativeEngine& engine = ctx.conservative();

  // Round 1: all ok, subtree sums balanced (3 sent, 3 received).  This is
  // only a *candidate* — a lone ok-round can describe a past that an
  // in-flight message is about to invalidate — so no terminate yet.
  engine.maybe_start_probe();
  auto m0 = ctx.sent_on(0);
  ASSERT_EQ(m0.size(), 1u);
  ASSERT_EQ(ctx.sent_on(1).size(), 1u);
  const ProbeMsg probe = std::get<ProbeMsg>(m0[0]);
  EXPECT_EQ(probe.origin, kStubId);
  engine.on_probe_reply(ProbeReply{.origin = probe.origin,
                                   .nonce = probe.nonce,
                                   .ok = true,
                                   .sent = 3,
                                   .received = 3});
  EXPECT_FALSE(engine.terminated());
  engine.on_probe_reply(
      ProbeReply{.origin = probe.origin, .nonce = probe.nonce, .ok = true});
  EXPECT_FALSE(engine.terminated());
  EXPECT_TRUE(ctx.sent_on(0).empty());  // no terminate flood yet

  // Round 2: the pending confirmation re-arms the probe even though the
  // activity counter has not moved; identical sums confirm.
  engine.maybe_start_probe();
  const ProbeMsg confirm = std::get<ProbeMsg>(ctx.sent_on(0).at(0));
  EXPECT_GT(confirm.nonce, probe.nonce);
  ctx.sent_on(1);
  engine.on_probe_reply(ProbeReply{.origin = confirm.origin,
                                   .nonce = confirm.nonce,
                                   .ok = true,
                                   .sent = 3,
                                   .received = 3});
  engine.on_probe_reply(
      ProbeReply{.origin = confirm.origin, .nonce = confirm.nonce, .ok = true});
  EXPECT_TRUE(engine.terminated());

  // Consensus floods TerminateMsg on every channel.
  EXPECT_TRUE(std::holds_alternative<TerminateMsg>(ctx.sent_on(0).at(0)));
  EXPECT_TRUE(std::holds_alternative<TerminateMsg>(ctx.sent_on(1).at(0)));
}

TEST(SyncConservative, InFlightMessageDefersTermination) {
  // Regression for the optimistic revival race: a subsystem replies ok,
  // then a straggler that was already in flight revives it.  The round's
  // global send/receive totals are unbalanced (1 sent, 0 received), so no
  // matter how many times the same picture repeats, the origin must not
  // terminate until the counts balance — and then only after the balanced
  // picture holds for two consecutive rounds.
  StubContext ctx;
  ctx.add_channel(ChannelMode::kConservative);
  ConservativeEngine& engine = ctx.conservative();

  const auto run_round = [&](std::uint64_t sent, std::uint64_t received) {
    engine.maybe_start_probe();
    const auto out = ctx.sent_on(0);
    ASSERT_FALSE(out.empty());
    const ProbeMsg probe = std::get<ProbeMsg>(out[0]);
    engine.on_probe_reply(ProbeReply{.origin = probe.origin,
                                     .nonce = probe.nonce,
                                     .ok = true,
                                     .sent = sent,
                                     .received = received});
  };

  run_round(1, 0);  // message in flight
  EXPECT_FALSE(engine.terminated());
  run_round(1, 0);  // identical round — still unbalanced, still no
  EXPECT_FALSE(engine.terminated());
  run_round(1, 1);  // delivered: balanced, but sums changed — candidate only
  EXPECT_FALSE(engine.terminated());
  run_round(1, 1);  // confirming twin
  EXPECT_TRUE(engine.terminated());
}

TEST(SyncConservative, FailedProbeRetriesOnlyAfterActivity) {
  StubContext ctx;
  ctx.add_channel(ChannelMode::kConservative);
  ConservativeEngine& engine = ctx.conservative();

  engine.maybe_start_probe();
  const ProbeMsg probe = std::get<ProbeMsg>(ctx.sent_on(0).at(0));
  engine.on_probe_reply(
      ProbeReply{.origin = probe.origin, .nonce = probe.nonce, .ok = false});
  EXPECT_FALSE(engine.terminated());

  // Nothing changed since the failed round: no new probe is started.
  engine.maybe_start_probe();
  EXPECT_TRUE(ctx.sent_on(0).empty());

  // Activity re-arms the probe.
  engine.note_activity();
  engine.maybe_start_probe();
  EXPECT_EQ(ctx.sent_on(0).size(), 1u);
}

TEST(SyncConservative, RelayedProbeAnswersTowardOrigin) {
  StubContext ctx;
  ctx.add_channel(ChannelMode::kConservative);
  ctx.add_channel(ChannelMode::kConservative);
  ConservativeEngine& engine = ctx.conservative();

  // A foreign probe arriving on channel 0 relays away from it only.
  engine.on_probe(ChannelId{0}, ProbeMsg{.origin = 42, .nonce = 9});
  EXPECT_TRUE(ctx.sent_on(0).empty());
  const auto relayed = ctx.sent_on(1);
  ASSERT_EQ(relayed.size(), 1u);
  EXPECT_EQ(std::get<ProbeMsg>(relayed[0]).origin, 42u);

  // Once the subtree answers, the reply travels back toward the origin.
  engine.on_probe_reply(ProbeReply{.origin = 42, .nonce = 9, .ok = true});
  const auto back = ctx.sent_on(0);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_TRUE(std::get<ProbeReply>(back[0]).ok);
}

// ---------------------------------------------------------------------------
// Snapshot mark bookkeeping
// ---------------------------------------------------------------------------

TEST(SyncSnapshot, MarkBookkeepingRecordsInFlightChannelState) {
  StubContext ctx;
  ctx.add_channel(ChannelMode::kConservative);
  ctx.add_channel(ChannelMode::kConservative);
  SnapshotCoordinator& snap = ctx.snapshot();

  const std::uint64_t token = snap.initiate();
  EXPECT_EQ(token >> 32, kStubId);
  EXPECT_FALSE(snap.complete(token));
  EXPECT_TRUE(
      std::holds_alternative<MarkMsg>(ctx.sent_on(0).at(0)));
  EXPECT_TRUE(
      std::holds_alternative<MarkMsg>(ctx.sent_on(1).at(0)));

  // An event arriving before a channel's mark belongs to the cut; one
  // arriving after it does not.
  const EventMsg in_flight{.id = SendId{99, 1}, .net_index = 0,
                           .time = ticks(4),
                           .value = Value{std::uint64_t{5}}};
  snap.on_event_received(ChannelId{0}, in_flight);
  snap.on_mark(ChannelId{0}, MarkMsg{.token = token});
  snap.on_event_received(ChannelId{0},
                         EventMsg{.id = SendId{99, 2}, .net_index = 0,
                                  .time = ticks(6),
                                  .value = Value{std::uint64_t{6}}});
  EXPECT_FALSE(snap.complete(token));
  snap.on_mark(ChannelId{1}, MarkMsg{.token = token});
  EXPECT_TRUE(snap.complete(token));

  const PendingSnapshot* pending = snap.find(token);
  ASSERT_NE(pending, nullptr);
  ASSERT_EQ(pending->recorded.size(), 2u);
  ASSERT_EQ(pending->recorded[0].size(), 1u);
  EXPECT_EQ(pending->recorded[0][0].id.counter, 1u);
  EXPECT_TRUE(pending->recorded[1].empty());
  EXPECT_EQ(ctx.stats().marks_received, 2u);
}

TEST(SyncSnapshot, PeerMarkCheckpointsOnceAndRelays) {
  StubContext ctx;
  ctx.add_channel(ChannelMode::kConservative);
  ctx.add_channel(ChannelMode::kConservative);
  SnapshotCoordinator& snap = ctx.snapshot();
  const std::uint64_t before = ctx.stats().checkpoints;

  // First sight of a peer-initiated token: checkpoint, relay marks on every
  // channel, and treat the arrival channel's state as already complete.
  snap.on_mark(ChannelId{0}, MarkMsg{.token = 77});
  EXPECT_EQ(ctx.stats().checkpoints, before + 1);
  EXPECT_EQ(ctx.sent_on(0).size(), 1u);
  EXPECT_EQ(ctx.sent_on(1).size(), 1u);
  const PendingSnapshot* pending = snap.find(77);
  ASSERT_NE(pending, nullptr);
  EXPECT_FALSE(pending->mark_pending[0]);
  EXPECT_TRUE(pending->mark_pending[1]);

  // The second mark completes the cut without another checkpoint or relay.
  snap.on_mark(ChannelId{1}, MarkMsg{.token = 77});
  EXPECT_TRUE(snap.complete(77));
  EXPECT_EQ(ctx.stats().checkpoints, before + 1);
  EXPECT_TRUE(ctx.sent_on(0).empty());
}

}  // namespace
}  // namespace pia::dist::sync
