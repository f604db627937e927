// Bounded explicit-state explorer for the safe-time protocol.
//
// A fuzz seed samples one interleaving of the run loop; this test walks
// every interleaving, up to a depth bound, of a three-subsystem chain
// ssA -- ssB -- ssC built from real Subsystems.  The links are held in the
// test: a frame a slice sends stays in flight until the explorer delivers
// it, so message arrival order (FIFO per direction) is a choice point next
// to the slice order.  The steps are
//
//   * slice(X): one Subsystem::run_slice (drain, advance burst, grant and
//     status push, requests, exit checks);
//   * deliver(l): move the oldest in-flight frame on directed link l to its
//     receiver, then slice the receiver;
//   * snapshot(X): X initiates a Chandy–Lamport snapshot (its marks go in
//     flight like any frame), at most Model::snapshots of them per path;
//   * restore(t): every subsystem restores the cut of the t-th snapshot,
//     enabled once every subsystem holds that complete cut and no frame is
//     in flight toward a running subsystem (a coordinated restore with no
//     runner active).  Frames left for finished subsystems are stale and
//     the restore drains them; a finished run always leaves one, so with
//     nothing in flight at all no restore would ever be enabled.
//
// States are identified by a hash over everything a later step can observe
// (component images, pending events, every endpoint's protocol fields,
// frames in flight), and a visited set keeps the search finite; a state is
// expanded again only when it is met at a shallower depth.  In every
// state the explorer checks:
//
//   * no conservative delivery behind local time, and no broken burst
//     cache: both raise Error{kConsistency} inside run_slice (the burst
//     check runs in builds without NDEBUG);
//   * the need invariant (DESIGN.md): what a grantor believes its peer
//     needs never exceeds the peer's current need;
//   * no silent deadlock: a state in which no step changes anything has
//     every subsystem finished (terminated or past its horizon).
//
// Rollbacks happen inside slices on optimistic channels; they are not
// separate moves.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/error.hpp"
#include "dist/node.hpp"
#include "transport/link.hpp"

namespace pia::dist {
namespace {

// ---------------------------------------------------------------------------
// Held links: frames wait in flight until the explorer delivers them.
// ---------------------------------------------------------------------------

struct Direction {
  std::deque<Bytes> in_flight;
  std::deque<Bytes> delivered;
};

class HeldLink final : public transport::Link {
 public:
  HeldLink(std::shared_ptr<Direction> out, std::shared_ptr<Direction> in)
      : out_(std::move(out)), in_(std::move(in)) {}

  void send(BytesView frame, std::uint32_t /*message_count*/) override {
    out_->in_flight.emplace_back(frame.begin(), frame.end());
  }
  std::optional<Bytes> try_recv() override {
    if (in_->delivered.empty()) return std::nullopt;
    Bytes frame = std::move(in_->delivered.front());
    in_->delivered.pop_front();
    return frame;
  }
  std::optional<Bytes> recv_for(std::chrono::milliseconds) override {
    return try_recv();
  }
  void close() override { closed_ = true; }
  [[nodiscard]] bool closed() const override { return closed_; }
  [[nodiscard]] transport::LinkStats stats() const override { return {}; }
  [[nodiscard]] std::string describe() const override { return "held"; }

 private:
  std::shared_ptr<Direction> out_;
  std::shared_ptr<Direction> in_;
  bool closed_ = false;
};

// ---------------------------------------------------------------------------
// Model components
// ---------------------------------------------------------------------------

/// Sends value base+i on "out", `delay` ticks after each of its wake times.
/// When it declares horizons it promises quiet until its next send, plus
/// `bias` (anything above zero is a false promise).
class Pulse final : public Component {
 public:
  Pulse(std::string name, std::vector<std::int64_t> times, std::uint64_t base,
        std::int64_t delay, bool declare, std::int64_t bias = 0)
      : Component(std::move(name)),
        times_(std::move(times)),
        base_(base),
        delay_(delay),
        bias_(bias) {
    out_ = add_output("out");
    if (declare) declare_horizons();
  }
  [[nodiscard]] VirtualTime quiet_until(PortIndex) const override {
    return next_ < times_.size() ? ticks(times_[next_] + delay_ + bias_)
                                 : VirtualTime::infinity();
  }
  void on_init() override {
    if (!times_.empty()) wake_at(ticks(times_.front()));
  }
  void on_wake() override {
    send(out_, Value{base_ + next_}, ticks(delay_));
    if (++next_ < times_.size()) wake_at(ticks(times_[next_]));
  }
  void on_receive(PortIndex, const Value&) override {}
  void save_state(serial::OutArchive& ar) const override {
    ar.put_varint(next_);
  }
  void restore_state(serial::InArchive& ar) override {
    next_ = ar.get_varint();
  }

 private:
  std::vector<std::int64_t> times_;
  std::uint64_t base_;
  std::int64_t delay_;
  std::int64_t bias_;
  std::size_t next_ = 0;
  PortIndex out_;
};

/// Re-sends every input `latency` ticks after it arrives (as a net delay, so
/// the component stays free for the next input).  When it declares horizons
/// it promises `declared` as that latency.
class Echo final : public Component {
 public:
  Echo(std::string name, std::int64_t latency, bool declare,
       std::int64_t declared)
      : Component(std::move(name)), latency_(latency), declared_(declared) {
    in_ = add_input("in");
    out_ = add_output("out");
    if (declare) declare_horizons();
  }
  [[nodiscard]] VirtualTime quiet_until(PortIndex) const override {
    return VirtualTime::infinity();
  }
  [[nodiscard]] VirtualTime min_latency(PortIndex, PortIndex) const override {
    return ticks(declared_);
  }
  void on_receive(PortIndex, const Value& value) override {
    send(out_, value, ticks(latency_));
  }

 private:
  std::int64_t latency_;
  std::int64_t declared_;
  PortIndex in_;
  PortIndex out_;
};

/// Counts what it receives.
class Absorb final : public Component {
 public:
  explicit Absorb(std::string name) : Component(std::move(name)) {
    in_ = add_input("in");
  }
  void on_receive(PortIndex, const Value&) override { ++count_; }
  void save_state(serial::OutArchive& ar) const override {
    ar.put_varint(count_);
  }
  void restore_state(serial::InArchive& ar) override {
    count_ = ar.get_varint();
  }

 private:
  std::uint64_t count_ = 0;
  PortIndex in_;
};

// ---------------------------------------------------------------------------
// The explored system
// ---------------------------------------------------------------------------

/// ssA: pulse pa -> net ab, echo ea (ba -> ab); both take `a_latency`,
/// which ssA declares as its lookahead and reaction slack.  ssB: echo eb
/// (ab -> bc, no delay), pulses pb -> bc and qb -> ba, absorb sb <- cb.
/// ssC: echo ec (bc -> cb, `c_latency`), which ssC declares likewise.  The
/// back path ea/qb is built only when qb has wake times.  With `declare`,
/// every component declares output horizons: ec promises c_declared, pa a
/// quiet time `a_bias` past its next send, and the channel lookaheads go
/// unused.
struct Model {
  std::vector<std::int64_t> a_times{};
  std::vector<std::int64_t> b_times{};
  std::vector<std::int64_t> q_times{};
  std::int64_t a_latency = 0;
  std::int64_t c_latency = 5;
  /// What ssC declares; more than c_latency is a false promise.
  std::int64_t c_declared = 5;
  ChannelMode ab_mode = ChannelMode::kConservative;
  bool declare = false;
  std::int64_t a_bias = 0;
  std::int64_t horizon = 40;
  std::size_t depth = 10;
  /// Snapshots a path may initiate; 0 disables the snapshot and restore
  /// moves.
  std::size_t snapshots = 0;
};

constexpr std::size_t kSubsystems = 3;
constexpr std::size_t kLinks = 4;  // A->B, B->A, B->C, C->B
constexpr std::size_t kLinkDst[kLinks] = {1, 0, 2, 1};
// Actions: slices, then deliveries, then snapshot initiations, then one
// restore per snapshot the model allows.
constexpr std::size_t kFirstSnapshot = kSubsystems + kLinks;
constexpr std::size_t kFirstRestore = kFirstSnapshot + kSubsystems;

std::size_t action_count(const Model& model) {
  return kFirstRestore + model.snapshots;
}

class World {
 public:
  explicit World(const Model& model) : model_(model) {
    for (auto& d : dirs_) d = std::make_shared<Direction>();
    for (std::uint32_t i = 0; i < kSubsystems; ++i)
      subs_[i] = std::make_unique<Subsystem>(
          std::string("ss") + static_cast<char>('A' + i), i + 1);
    Subsystem& a = *subs_[0];
    Subsystem& b = *subs_[1];
    Subsystem& c = *subs_[2];

    const ChannelId ab_a = a.add_channel(
        "A<->B", model.ab_mode, std::make_unique<HeldLink>(dirs_[0], dirs_[1]));
    const ChannelId ab_b = b.add_channel(
        "A<->B", model.ab_mode, std::make_unique<HeldLink>(dirs_[1], dirs_[0]));
    const ChannelId bc_b =
        b.add_channel("B<->C", ChannelMode::kConservative,
                      std::make_unique<HeldLink>(dirs_[2], dirs_[3]));
    const ChannelId bc_c =
        c.add_channel("B<->C", ChannelMode::kConservative,
                      std::make_unique<HeldLink>(dirs_[3], dirs_[2]));

    auto& pa = a.scheduler().emplace<Pulse>(
        "pa", model.a_times, 100, model.a_latency, model.declare, model.a_bias);
    const NetId ab_in_a = a.scheduler().make_net("ab");
    a.scheduler().attach(ab_in_a, pa.id(), "out");

    auto& eb = b.scheduler().emplace<Echo>("eb", 0, model.declare, 0);
    auto& pb = b.scheduler().emplace<Pulse>("pb", model.b_times, 200, 0,
                                            model.declare);
    auto& sb = b.scheduler().emplace<Absorb>("sb");
    const NetId ab_in_b = b.scheduler().make_net("ab");
    b.scheduler().attach(ab_in_b, eb.id(), "in");
    const NetId bc_in_b = b.scheduler().make_net("bc");
    b.scheduler().attach(bc_in_b, eb.id(), "out");
    b.scheduler().attach(bc_in_b, pb.id(), "out");
    const NetId cb_in_b = b.scheduler().make_net("cb");
    b.scheduler().attach(cb_in_b, sb.id(), "in");

    auto& ec = c.scheduler().emplace<Echo>("ec", model.c_latency,
                                           model.declare, model.c_declared);
    const NetId bc_in_c = c.scheduler().make_net("bc");
    c.scheduler().attach(bc_in_c, ec.id(), "in");
    const NetId cb_in_c = c.scheduler().make_net("cb");
    c.scheduler().attach(cb_in_c, ec.id(), "out");

    split_net(a, ab_a, ab_in_a, b, ab_b, ab_in_b);
    if (!model.q_times.empty()) {
      // The back path exists only when qb has something to send: a driver
      // on it makes ssB's promises to ssA finite, which holds ssA back.
      auto& ea = a.scheduler().emplace<Echo>("ea", model.a_latency,
                                             model.declare, model.a_latency);
      a.scheduler().attach(ab_in_a, ea.id(), "out");
      const NetId ba_in_a = a.scheduler().make_net("ba");
      a.scheduler().attach(ba_in_a, ea.id(), "in");
      auto& qb = b.scheduler().emplace<Pulse>("qb", model.q_times, 300, 0,
                                              model.declare);
      const NetId ba_in_b = b.scheduler().make_net("ba");
      b.scheduler().attach(ba_in_b, qb.id(), "out");
      split_net(b, ab_b, ba_in_b, a, ab_a, ba_in_a);
    }
    a.set_lookahead(ab_a, ticks(model.a_latency));
    a.set_reaction_lookahead(ab_a, ticks(model.a_latency));
    split_net(b, bc_b, bc_in_b, c, bc_c, bc_in_c);
    split_net(c, bc_c, cb_in_c, b, bc_b, cb_in_b);
    c.set_lookahead(bc_c, ticks(model.c_declared));
    c.set_reaction_lookahead(bc_c, ticks(model.c_declared));
    for (auto& s : subs_) s->start();
  }

  /// Every subsystem returned an outcome (termination or horizon exit).
  [[nodiscard]] bool finished() const {
    return std::all_of(std::begin(done_), std::end(done_),
                       [](bool d) { return d; });
  }

  [[nodiscard]] bool enabled(std::size_t action) const {
    if (action < kSubsystems) return !done_[action];
    if (action < kFirstSnapshot) {
      const std::size_t link = action - kSubsystems;
      return !dirs_[link]->in_flight.empty() && !done_[kLinkDst[link]];
    }
    if (action < kFirstRestore)
      return tokens_.size() < model_.snapshots &&
             !done_[action - kFirstSnapshot];
    const std::size_t t = action - kFirstRestore;
    if (t >= tokens_.size()) return false;
    for (std::size_t link = 0; link < kLinks; ++link)
      if (!dirs_[link]->in_flight.empty() && !done_[kLinkDst[link]])
        return false;
    return std::all_of(std::begin(subs_), std::end(subs_), [&](const auto& s) {
      return s->snapshot_complete(tokens_[t]);
    });
  }

  /// Runs one step; a protocol fault propagates as Error.
  void apply(std::size_t action) {
    if (action >= kFirstRestore) {
      // Frames left for finished subsystems arrive stale; the restore must
      // drain them.  The restored cut is a live timeline for everyone.
      for (auto& d : dirs_)
        while (!d->in_flight.empty()) {
          d->delivered.push_back(std::move(d->in_flight.front()));
          d->in_flight.pop_front();
        }
      for (std::size_t i = 0; i < kSubsystems; ++i) {
        subs_[i]->restore_snapshot(tokens_[action - kFirstRestore]);
        done_[i] = false;
      }
      return;
    }
    if (action >= kFirstSnapshot) {
      tokens_.push_back(subs_[action - kFirstSnapshot]->initiate_snapshot());
      return;
    }
    std::size_t target = action;
    if (action >= kSubsystems) {
      Direction& d = *dirs_[action - kSubsystems];
      d.delivered.push_back(std::move(d.in_flight.front()));
      d.in_flight.pop_front();
      target = kLinkDst[action - kSubsystems];
    }
    bool progressed = false;
    const Subsystem::RunConfig config{.horizon = ticks(model_.horizon)};
    if (subs_[target]->run_slice(config, progressed)) done_[target] = true;
    sliced_[target] = true;
  }

  /// The need invariant: every grantor's record of its peer's need is at
  /// most the need the peer would declare now (ConservativeEngine::need_on).
  [[nodiscard]] std::optional<std::string> need_violation() const {
    struct Edge {
      std::size_t grantor, peer;
      std::uint32_t grantor_channel, peer_channel;
    };
    const Edge edges[] = {{0, 1, 0, 0}, {1, 0, 0, 0}, {1, 2, 1, 0},
                          {2, 1, 0, 1}};
    for (const Edge& e : edges) {
      const ChannelEndpoint& grantor =
          subs_[e.grantor]->channel(ChannelId{e.grantor_channel});
      const Subsystem& peer = *subs_[e.peer];
      const ChannelEndpoint& peer_end =
          subs_[e.peer]->channel(ChannelId{e.peer_channel});
      VirtualTime need = VirtualTime::zero();
      if (sliced_[e.peer] && peer_end.mode() == ChannelMode::kConservative &&
          peer.channel_count() == 1)
        need = min(peer.scheduler().next_event_time(), ticks(model_.horizon));
      if (grantor.peer_need > need)
        return grantor.name() + ": " + subs_[e.grantor]->name() +
               " holds peer_need " + grantor.peer_need.str() + " but " +
               peer.name() + " needs " + need.str();
    }
    return std::nullopt;
  }

  [[nodiscard]] std::uint64_t hash() const {
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
      h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    };
    const auto mix_bytes = [&mix](BytesView bytes) {
      std::uint64_t x = bytes.size();
      for (const std::byte b : bytes)
        x = x * 1099511628211ull ^ static_cast<std::uint64_t>(b);
      mix(x);
    };
    const auto mix_time = [&mix](VirtualTime t) {
      mix(static_cast<std::uint64_t>(t.ticks()));
    };
    for (std::size_t i = 0; i < kSubsystems; ++i) {
      Subsystem& s = *subs_[i];
      mix(done_[i] * 2 + sliced_[i]);
      const Scheduler& sched = s.scheduler();
      mix_time(sched.now());
      std::uint64_t pending = 0;  // order-free: seq numbers differ by path
      sched.for_each_pending_before(
          VirtualTime::infinity(), [&](const Event& e) {
            std::uint64_t x = static_cast<std::uint64_t>(e.time.ticks());
            x = x * 31 + e.target.value();
            x = x * 31 + e.port;
            x = x * 31 + static_cast<std::uint64_t>(e.kind);
            pending += x * 0x9e3779b97f4a7c15ull;
          });
      mix(pending);
      for (const ComponentId id : sched.component_ids())
        mix_bytes(sched.component(id).save_image());
      for (std::uint32_t k = 0; k < s.channel_count(); ++k) {
        const ChannelEndpoint& c = s.channel(ChannelId{k});
        mix_time(c.granted_in);
        mix(c.granted_in_seen);
        mix_time(c.granted_in_lookahead);
        mix_time(c.granted_out);
        mix(c.granted_out_seen);
        mix(c.request_outstanding);
        mix_time(c.last_request_next);
        mix_time(c.last_request_grant);
        mix_time(c.peer_need);
        mix(c.event_msgs_sent);
        mix(c.event_msgs_received);
        mix(c.msgs_sent);
        mix(c.msgs_received);
        mix(c.replay_cursor);
        for (const auto& out : c.output_log) {
          mix_time(out.time);
          mix(out.retracted);
        }
        mix(c.input_log.size());
      }
    }
    for (const auto& d : dirs_) {
      mix(d->in_flight.size());
      for (const Bytes& frame : d->in_flight) mix_bytes(frame);
    }
    mix(tokens_.size());
    for (const std::uint64_t token : tokens_)
      for (const auto& s : subs_) mix(s->snapshot_complete(token));
    return h;
  }

 private:
  Model model_;
  std::shared_ptr<Direction> dirs_[kLinks];
  std::unique_ptr<Subsystem> subs_[kSubsystems];
  bool done_[kSubsystems] = {};
  bool sliced_[kSubsystems] = {};
  std::vector<std::uint64_t> tokens_;  // snapshots initiated, in order
};

struct Verdict {
  std::size_t states = 0;
  std::size_t restores = 0;  // restore steps taken
  std::optional<std::string> violation;
  std::vector<std::size_t> path;  // the steps that reach it
};

std::string describe_path(const std::vector<std::size_t>& path) {
  static const char* const kNames[] = {
      "slice(A)",     "slice(B)",     "slice(C)",     "deliver(A>B)",
      "deliver(B>A)", "deliver(B>C)", "deliver(C>B)", "snapshot(A)",
      "snapshot(B)",  "snapshot(C)"};
  std::string out;
  for (const std::size_t step : path)
    out += step < kFirstRestore
               ? std::string(kNames[step]) + " "
               : "restore(t" + std::to_string(step - kFirstRestore) + ") ";
  return out;
}

/// Depth-first over every step sequence up to model.depth; each state is
/// rebuilt by replaying its path from the initial state.
class Explorer {
 public:
  explicit Explorer(Model model) : model_(std::move(model)) {}

  Verdict run() {
    World root(model_);
    const std::uint64_t hash = root.hash();
    visited_[hash] = 0;
    verdict_.states = 1;
    std::vector<std::size_t> path;
    dfs(path, hash);
    return verdict_;
  }

 private:
  void dfs(std::vector<std::size_t>& path, std::uint64_t hash) {
    if (verdict_.violation || path.size() >= model_.depth) return;
    bool finished = true;
    bool moved = false;
    for (std::size_t action = 0; action < action_count(model_); ++action) {
      World world(model_);
      for (const std::size_t step : path) world.apply(step);
      finished = world.finished();
      if (!world.enabled(action)) continue;
      path.push_back(action);
      std::optional<std::string> fault;
      try {
        world.apply(action);
        fault = world.need_violation();
      } catch (const Error& e) {
        fault = e.what();
      }
      if (fault) {
        verdict_.violation = fault;
        verdict_.path = path;
        return;
      }
      verdict_.restores += action >= kFirstRestore;
      const std::uint64_t next = world.hash();
      moved |= next != hash;
      // A state met again at a shallower depth is explored again: its
      // remaining budget is larger than the first time.
      const auto [it, fresh] = visited_.try_emplace(next, path.size());
      if (fresh || path.size() < it->second) {
        verdict_.states += fresh;
        it->second = path.size();
        dfs(path, next);
        if (verdict_.violation) return;
      }
      path.pop_back();
    }
    // No step changes anything, yet a subsystem has not finished: the run
    // would sit here until its stall timeout.
    if (!moved && !finished) {
      verdict_.violation = "silent deadlock: no step moves the state";
      verdict_.path = path;
    }
  }

  Model model_;
  std::unordered_map<std::uint64_t, std::size_t> visited_;  // -> depth
  Verdict verdict_;
};

void expect_safe(const Model& model) {
  const Verdict verdict = Explorer(model).run();
  EXPECT_FALSE(verdict.violation.has_value())
      << *verdict.violation << "\n  after: " << describe_path(verdict.path);
  EXPECT_GT(verdict.states, 100u);
  if (model.snapshots > 0) EXPECT_GT(verdict.restores, 0u);
  std::printf("explored %zu states to depth %zu, %zu restores\n",
              verdict.states, model.depth, verdict.restores);
}

// A send inside an advance burst lowers the barrier through the unseen-send
// clamp: pb sends at 10, ssC answers at 15, and pb's wake at 16 must wait.
TEST(SafeTimeExplorer, ConservativeChainIsSafe) {
  expect_safe(Model{.a_times = {12},
                    .b_times = {10, 16},
                    .ab_mode = ChannelMode::kConservative,
                    .depth = 16});
}

// ssB speculates on its optimistic input from ssA: ssA's answer at 15 to
// qb's send at 5 arrives after ssB ran to 21, so ssB retracts its send at
// 16 and sends an earlier one at 15.  Its earliest unseen send is then not
// the first unseen log entry, and pb's wake at 21 must wait for ssC's
// answer at 20.
TEST(SafeTimeExplorer, MixedChainIsSafe) {
  expect_safe(Model{.b_times = {10, 16, 21},
                    .q_times = {5},
                    .a_latency = 10,
                    .ab_mode = ChannelMode::kOptimistic,
                    .depth = 18});
}

// Both chains again with every component declaring output horizons: the
// grants and reaction slack come from quiet_until and min_latency (in the
// mixed chain only ssC's do: a subsystem with an optimistic channel keeps
// the lookahead pricing).
TEST(SafeTimeExplorer, DeclaredHorizonsAreSafe) {
  expect_safe(Model{.a_times = {12},
                    .b_times = {10, 16},
                    .declare = true,
                    .depth = 16});
  expect_safe(Model{.a_times = {12},
                    .b_times = {10, 13},
                    .declare = true,
                    .depth = 16});
  expect_safe(Model{.b_times = {10, 16, 21},
                    .q_times = {5},
                    .a_latency = 10,
                    .ab_mode = ChannelMode::kOptimistic,
                    .declare = true,
                    .depth = 18});
}

// A coordinated restore as an explicit move: any subsystem may initiate a
// snapshot anywhere along the path, and every subsystem restores it once
// the cut is complete everywhere and nothing is in flight toward a running
// subsystem.  Every check
// above must hold on the restored timeline too — in particular the need
// invariant, which breaks if a restore keeps the needs a peer declared on
// the discarded timeline.
TEST(SafeTimeExplorer, RestoredCutsAreSafe) {
  expect_safe(Model{.a_times = {12},
                    .b_times = {10, 16},
                    .depth = 18,
                    .snapshots = 1});
}

void expect_found(const Model& model) {
  const Verdict verdict = Explorer(model).run();
  ASSERT_TRUE(verdict.violation.has_value());
  EXPECT_NE(verdict.violation->find("behind subsystem time"),
            std::string::npos)
      << *verdict.violation;
}

// The explorer's own check: a reaction slack one tick above the true
// reaction time lets ssB dispatch its wake at 16 before ssC's answer at 15
// arrives, and that must surface as a consistency fault.
TEST(SafeTimeExplorer, FindsAReactionSlackOneTickTooLong) {
  expect_found(Model{.a_times = {12},
                     .b_times = {10, 16},
                     .c_declared = 6,
                     .depth = 11});
}

// The same through output horizons: ssC's echo declares a latency of 6
// where it answers in 5, and ssA's pulse promises quiet until 13 where it
// sends at 12 (ssB then dispatches its wake at 13 first).
TEST(SafeTimeExplorer, FindsAHorizonOneTickTooLate) {
  expect_found(Model{.a_times = {12},
                     .b_times = {10, 16},
                     .c_declared = 6,
                     .declare = true,
                     .depth = 11});
  expect_found(Model{.a_times = {12},
                     .b_times = {10, 13},
                     .declare = true,
                     .a_bias = 1,
                     .depth = 11});
}

}  // namespace
}  // namespace pia::dist
