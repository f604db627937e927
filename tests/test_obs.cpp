#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <variant>

#include "dist_helpers.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pia::obs {
namespace {

// Minimal recursive-descent JSON checker: accepts exactly the grammar the
// exporters emit (objects, arrays, strings with escapes, numbers, literals).
// Returns true iff `text` is one complete JSON value.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek('}')) return true;
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!expect(':')) return false;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek('}')) return true;
      if (!expect(',')) return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek(']')) return true;
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek(']')) return true;
      if (!expect(',')) return false;
    }
  }
  bool string() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    return expect('"');
  }
  bool number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }
  bool literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }
  bool peek(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool expect(char c) { return peek(c); }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// Restores the capture flag so tests cannot leak tracing into each other.
struct TraceFlagGuard {
  bool saved = trace_enabled();
  ~TraceFlagGuard() { set_trace_enabled(saved); }
};

TEST(TraceBuffer, RecordsInOrder) {
  TraceBuffer buffer("t");
  buffer.record(TraceKind::kDispatch, ticks(10), 1, 2);
  buffer.record(TraceKind::kGrant, ticks(20), 3);
  const auto records = buffer.snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].kind, TraceKind::kDispatch);
  EXPECT_EQ(records[0].virtual_time, 10);
  EXPECT_EQ(records[0].arg0, 1u);
  EXPECT_EQ(records[0].arg1, 2u);
  EXPECT_EQ(records[1].kind, TraceKind::kGrant);
  EXPECT_LE(records[0].wall_ns, records[1].wall_ns);
}

TEST(TraceBuffer, RingWrapsAndCountsDrops) {
  TraceBuffer buffer("t", /*capacity=*/4);
  for (std::uint64_t i = 0; i < 10; ++i)
    buffer.record(TraceKind::kDispatch, ticks(static_cast<std::int64_t>(i)),
                  i);
  EXPECT_EQ(buffer.size(), 4u);
  EXPECT_EQ(buffer.total_recorded(), 10u);
  EXPECT_EQ(buffer.dropped(), 6u);
  const auto records = buffer.snapshot();
  ASSERT_EQ(records.size(), 4u);
  // Oldest-first snapshot of the surviving tail: 6,7,8,9.
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(records[i].arg0, 6 + i);
}

TEST(TraceBuffer, ClearResets) {
  TraceBuffer buffer("t", 4);
  buffer.record(TraceKind::kStall, ticks(1));
  buffer.clear();
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(buffer.total_recorded(), 0u);
  EXPECT_TRUE(buffer.snapshot().empty());
}

TEST(TraceFlag, MacroIsGatedOnProcessFlag) {
  TraceFlagGuard guard;
  TraceBuffer buffer("t");
  set_trace_enabled(false);
  PIA_OBS_TRACE(buffer, TraceKind::kDispatch, ticks(1));
  EXPECT_EQ(buffer.size(), 0u);
  set_trace_enabled(true);
  PIA_OBS_TRACE(buffer, TraceKind::kDispatch, ticks(2));
  EXPECT_EQ(buffer.size(), 1u);
}

TEST(TraceFlag, EnvKnobEnablesCapture) {
  TraceFlagGuard guard;
  ::setenv("PIA_TRACE", "1", 1);
  init_trace_from_env();
  EXPECT_TRUE(trace_enabled());
  ::setenv("PIA_TRACE", "0", 1);
  init_trace_from_env();
  EXPECT_FALSE(trace_enabled());
  ::unsetenv("PIA_TRACE");
}

TEST(JsonString, EscapesControlAndQuote) {
  std::string out;
  json_append_string(out, "a\"b\\c\n\t\x01");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\n\\t\\u0001\"");
  EXPECT_TRUE(JsonChecker(out).valid());
}

TEST(ChromeTrace, EmitsValidJsonWithTracksAndKinds) {
  TraceBuffer alpha("alpha");
  TraceBuffer beta("beta");
  alpha.record(TraceKind::kDispatch, ticks(10), 7, 1);
  alpha.record(TraceKind::kRollback, ticks(5), 1);
  beta.record(TraceKind::kMark, VirtualTime::infinity(), 42, 1);

  std::ostringstream os;
  write_chrome_trace(os, {&alpha, &beta});
  const std::string json = os.str();

  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"beta\""), std::string::npos);
  EXPECT_NE(json.find("\"dispatch\""), std::string::npos);
  EXPECT_NE(json.find("\"rollback\""), std::string::npos);
  EXPECT_NE(json.find("\"mark\""), std::string::npos);
}

TEST(Metrics, SetGetAndTypes) {
  MetricsRegistry registry;
  registry.set("sub/a", "events", std::uint64_t{7});
  registry.set("sub/a", "skew", std::int64_t{-3});
  registry.set("sub/a", "ratio", 1.5);
  EXPECT_TRUE(registry.has_scope("sub/a"));
  EXPECT_FALSE(registry.has_scope("sub/b"));
  EXPECT_EQ(std::get<std::uint64_t>(registry.get("sub/a", "events")), 7u);
  EXPECT_EQ(std::get<std::int64_t>(registry.get("sub/a", "skew")), -3);
  EXPECT_DOUBLE_EQ(std::get<double>(registry.get("sub/a", "ratio")), 1.5);
  // Absent counters read as zero.
  EXPECT_EQ(std::get<std::uint64_t>(registry.get("sub/a", "missing")), 0u);
}

TEST(Metrics, JsonIsValidAndDeterministic) {
  MetricsRegistry registry;
  registry.set("z", "late", std::uint64_t{1});
  registry.set("a", "early", std::uint64_t{2});
  registry.set("a", "quote\"d", std::uint64_t{3});
  const std::string json = registry.to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  // Scope-sorted: "a" renders before "z".
  EXPECT_LT(json.find("\"a\""), json.find("\"z\""));
  EXPECT_EQ(json, registry.to_json());
}

TEST(ClusterObservability, ConservativeRunProducesProtocolRecords) {
  TraceFlagGuard guard;
  set_trace_enabled(true);
  dist::testing::SplitPipe pipe(10, dist::ChannelMode::kConservative);
  pipe.cluster.start_all();
  pipe.cluster.run_all();

  std::uint64_t dispatches = 0;
  std::uint64_t grants = 0;
  for (dist::Subsystem* s : pipe.cluster.all_subsystems())
    for (const TraceRecord& r : s->scheduler().trace().snapshot()) {
      dispatches += r.kind == TraceKind::kDispatch;
      grants += r.kind == TraceKind::kGrant;
    }
  EXPECT_GT(dispatches, 0u);
  EXPECT_GT(grants, 0u);

  // The metrics snapshot covers both subsystems and both channel endpoints.
  MetricsRegistry metrics = pipe.cluster.metrics();
  EXPECT_TRUE(metrics.has_scope("sub/ssA"));
  EXPECT_TRUE(metrics.has_scope("sub/ssB"));
  std::size_t chan_scopes = 0;
  for (dist::Subsystem* s : pipe.cluster.all_subsystems())
    chan_scopes += metrics.has_scope("chan/" + s->name() + "/0:ssA<->ssB");
  EXPECT_EQ(chan_scopes, 2u);
}

TEST(ClusterObservability, DuplicateSubsystemNamesGetOrdinalScopes) {
  // Scenario generators (scaleout shard farms) stamp out same-named
  // subsystems on different nodes; the cluster snapshot must keep their
  // scopes distinct instead of silently interleaving their counters.
  dist::NodeCluster cluster;
  dist::PiaNode& node_a = cluster.add_node("nodeA");
  dist::PiaNode& node_b = cluster.add_node("nodeB");
  node_a.add_subsystem("worker");
  node_b.add_subsystem("worker");
  node_b.add_subsystem("solo");
  MetricsRegistry metrics = cluster.metrics();
  EXPECT_TRUE(metrics.has_scope("sub/worker#0"));
  EXPECT_TRUE(metrics.has_scope("sub/worker#1"));
  EXPECT_FALSE(metrics.has_scope("sub/worker"));
  // Unique names keep their plain scope — the stable consumer interface.
  EXPECT_TRUE(metrics.has_scope("sub/solo"));
  EXPECT_FALSE(metrics.has_scope("sub/solo#0"));
}

TEST(ClusterObservability, CollidingManualCollectionIsRejected) {
  dist::NodeCluster cluster;
  dist::Subsystem& sub = cluster.add_node("node").add_subsystem("dup");
  MetricsRegistry registry;
  dist::collect_metrics(sub, registry);
  EXPECT_THROW(dist::collect_metrics(sub, registry), Error);
  MetricsRegistry tagged;
  dist::collect_metrics(sub, tagged, "dup#a");
  dist::collect_metrics(sub, tagged, "dup#b");
  EXPECT_TRUE(tagged.has_scope("sub/dup#a"));
  EXPECT_TRUE(tagged.has_scope("sub/dup#b"));
}

// The metrics snapshot of a small deterministic run: every (scope, name,
// value) as "scope name value", one a line.  Every pinned line must still
// appear unchanged.  The recording predates the adaptive counters' copies
// under "sub/<name>" (they lived under "engine/<name>/adaptive" alone), so
// those are the only lines a run may add.  ssA's grant counts were
// re-recorded when request answers moved into the slice's grant push: one
// answer and one push of the same slice became one grant (a message and 8
// bytes fewer on ssA<->ssB).
constexpr const char* kPinnedMetrics = R"(
chan/ssA/0:ssA<->ssB event_msgs_received 0
chan/ssA/0:ssA<->ssB event_msgs_sent 30
chan/ssA/0:ssA<->ssB granted_in_ticks 9223372036854775807
chan/ssA/0:ssA<->ssB granted_out_ticks 9223372036854775807
chan/ssA/0:ssA<->ssB heartbeats_received 1
chan/ssA/0:ssA<->ssB input_log 0
chan/ssA/0:ssA<->ssB input_trimmed 0
chan/ssA/0:ssA<->ssB link_bytes_received 189
chan/ssA/0:ssA<->ssB link_bytes_sent 492
chan/ssA/0:ssA<->ssB link_faults_abrupt_closes 0
chan/ssA/0:ssA<->ssB link_faults_delayed 0
chan/ssA/0:ssA<->ssB link_faults_dropped 0
chan/ssA/0:ssA<->ssB link_faults_dup_discarded 0
chan/ssA/0:ssA<->ssB link_faults_duplicated 0
chan/ssA/0:ssA<->ssB link_faults_partition_held 0
chan/ssA/0:ssA<->ssB link_frames_received 8
chan/ssA/0:ssA<->ssB link_frames_sent 9
chan/ssA/0:ssA<->ssB link_messages_received 8
chan/ssA/0:ssA<->ssB link_messages_sent 48
chan/ssA/0:ssA<->ssB mode 0
chan/ssA/0:ssA<->ssB mode_epoch 0
chan/ssA/0:ssA<->ssB msgs_received 4
chan/ssA/0:ssA<->ssB msgs_sent 34
chan/ssA/0:ssA<->ssB output_log 30
chan/ssA/0:ssA<->ssB output_trimmed 0
chan/ssA/0:ssA<->ssB peer_down 0
chan/ssB/0:ssA<->ssB event_msgs_received 30
chan/ssB/0:ssA<->ssB event_msgs_sent 0
chan/ssB/0:ssA<->ssB granted_in_ticks 9223372036854775807
chan/ssB/0:ssA<->ssB granted_out_ticks 9223372036854775807
chan/ssB/0:ssA<->ssB heartbeats_received 1
chan/ssB/0:ssA<->ssB input_log 30
chan/ssB/0:ssA<->ssB input_trimmed 0
chan/ssB/0:ssA<->ssB link_bytes_received 484
chan/ssB/0:ssA<->ssB link_bytes_sent 189
chan/ssB/0:ssA<->ssB link_faults_abrupt_closes 0
chan/ssB/0:ssA<->ssB link_faults_delayed 0
chan/ssB/0:ssA<->ssB link_faults_dropped 0
chan/ssB/0:ssA<->ssB link_faults_dup_discarded 0
chan/ssB/0:ssA<->ssB link_faults_duplicated 0
chan/ssB/0:ssA<->ssB link_faults_partition_held 0
chan/ssB/0:ssA<->ssB link_frames_received 8
chan/ssB/0:ssA<->ssB link_frames_sent 8
chan/ssB/0:ssA<->ssB link_messages_received 8
chan/ssB/0:ssA<->ssB link_messages_sent 18
chan/ssB/0:ssA<->ssB mode 0
chan/ssB/0:ssA<->ssB mode_epoch 0
chan/ssB/0:ssA<->ssB msgs_received 34
chan/ssB/0:ssA<->ssB msgs_sent 4
chan/ssB/0:ssA<->ssB output_log 0
chan/ssB/0:ssA<->ssB output_trimmed 0
chan/ssB/0:ssA<->ssB peer_down 0
chan/ssB/1:ssB<->ssC event_msgs_received 0
chan/ssB/1:ssB<->ssC event_msgs_sent 40
chan/ssB/1:ssB<->ssC granted_in_ticks 9223372036854775807
chan/ssB/1:ssB<->ssC granted_out_ticks 9223372036854775807
chan/ssB/1:ssB<->ssC heartbeats_received 1
chan/ssB/1:ssB<->ssC input_log 0
chan/ssB/1:ssB<->ssC input_trimmed 0
chan/ssB/1:ssB<->ssC link_bytes_received 182
chan/ssB/1:ssB<->ssC link_bytes_sent 607
chan/ssB/1:ssB<->ssC link_faults_abrupt_closes 0
chan/ssB/1:ssB<->ssC link_faults_delayed 0
chan/ssB/1:ssB<->ssC link_faults_dropped 0
chan/ssB/1:ssB<->ssC link_faults_dup_discarded 0
chan/ssB/1:ssB<->ssC link_faults_duplicated 0
chan/ssB/1:ssB<->ssC link_faults_partition_held 0
chan/ssB/1:ssB<->ssC link_frames_received 7
chan/ssB/1:ssB<->ssC link_frames_sent 8
chan/ssB/1:ssB<->ssC link_messages_received 7
chan/ssB/1:ssB<->ssC link_messages_sent 58
chan/ssB/1:ssB<->ssC mode 0
chan/ssB/1:ssB<->ssC mode_epoch 1
chan/ssB/1:ssB<->ssC msgs_received 3
chan/ssB/1:ssB<->ssC msgs_sent 43
chan/ssB/1:ssB<->ssC output_log 40
chan/ssB/1:ssB<->ssC output_trimmed 0
chan/ssB/1:ssB<->ssC peer_down 0
chan/ssC/0:ssB<->ssC event_msgs_received 40
chan/ssC/0:ssB<->ssC event_msgs_sent 0
chan/ssC/0:ssB<->ssC granted_in_ticks 9223372036854775807
chan/ssC/0:ssB<->ssC granted_out_ticks 9223372036854775807
chan/ssC/0:ssB<->ssC heartbeats_received 1
chan/ssC/0:ssB<->ssC input_log 40
chan/ssC/0:ssB<->ssC input_trimmed 0
chan/ssC/0:ssB<->ssC link_bytes_received 607
chan/ssC/0:ssB<->ssC link_bytes_sent 190
chan/ssC/0:ssB<->ssC link_faults_abrupt_closes 0
chan/ssC/0:ssB<->ssC link_faults_delayed 0
chan/ssC/0:ssB<->ssC link_faults_dropped 0
chan/ssC/0:ssB<->ssC link_faults_dup_discarded 0
chan/ssC/0:ssB<->ssC link_faults_duplicated 0
chan/ssC/0:ssB<->ssC link_faults_partition_held 0
chan/ssC/0:ssB<->ssC link_frames_received 8
chan/ssC/0:ssB<->ssC link_frames_sent 8
chan/ssC/0:ssB<->ssC link_messages_received 8
chan/ssC/0:ssB<->ssC link_messages_sent 17
chan/ssC/0:ssB<->ssC mode 0
chan/ssC/0:ssB<->ssC mode_epoch 1
chan/ssC/0:ssB<->ssC msgs_received 43
chan/ssC/0:ssB<->ssC msgs_sent 3
chan/ssC/0:ssB<->ssC output_log 0
chan/ssC/0:ssB<->ssC output_trimmed 0
chan/ssC/0:ssB<->ssC peer_down 0
dispatch/ssA __chan_ssA<->ssB 30
dispatch/ssA slow 30
dispatch/ssB __chan_ssA<->ssB 30
dispatch/ssB __chan_ssB<->ssC 40
dispatch/ssB fast 40
dispatch/ssB slow_sink 30
dispatch/ssC __chan_ssB<->ssC 40
dispatch/ssC fast_sink 40
engine/ssA/adaptive hold_slices 0
engine/ssA/adaptive mode_changes 0
engine/ssA/adaptive proposals_accepted 0
engine/ssA/adaptive proposals_received 0
engine/ssA/adaptive proposals_rejected 0
engine/ssA/adaptive proposals_sent 0
engine/ssA/adaptive to_conservative 0
engine/ssA/adaptive to_optimistic 0
engine/ssA/conservative grants_received 2
engine/ssA/conservative grants_sent 2
engine/ssA/conservative requests_sent 1
engine/ssA/conservative stalls 1
engine/ssA/optimistic checkpoints 2
engine/ssA/optimistic retracts_received 0
engine/ssA/optimistic retracts_sent 0
engine/ssA/optimistic rollbacks 0
engine/ssA/recovery heartbeats_received 1
engine/ssA/recovery heartbeats_sent 1
engine/ssA/recovery peer_down_events 0
engine/ssA/recovery recoveries 0
engine/ssA/recovery rejoins_verified 0
engine/ssA/snapshot marks_received 1
engine/ssA/snapshot snapshot_persist_bytes 0
engine/ssA/snapshot snapshots_invalidated 0
engine/ssA/snapshot snapshots_persisted 0
engine/ssA/traffic events_received 0
engine/ssA/traffic events_sent 30
engine/ssB/adaptive hold_slices 1
engine/ssB/adaptive mode_changes 1
engine/ssB/adaptive proposals_accepted 0
engine/ssB/adaptive proposals_received 0
engine/ssB/adaptive proposals_rejected 0
engine/ssB/adaptive proposals_sent 1
engine/ssB/adaptive to_conservative 1
engine/ssB/adaptive to_optimistic 0
engine/ssB/conservative grants_received 4
engine/ssB/conservative grants_sent 4
engine/ssB/conservative requests_sent 1
engine/ssB/conservative stalls 1
engine/ssB/optimistic checkpoints 4
engine/ssB/optimistic retracts_received 0
engine/ssB/optimistic retracts_sent 0
engine/ssB/optimistic rollbacks 0
engine/ssB/recovery heartbeats_received 2
engine/ssB/recovery heartbeats_sent 2
engine/ssB/recovery peer_down_events 0
engine/ssB/recovery recoveries 0
engine/ssB/recovery rejoins_verified 0
engine/ssB/snapshot marks_received 2
engine/ssB/snapshot snapshot_persist_bytes 0
engine/ssB/snapshot snapshots_invalidated 0
engine/ssB/snapshot snapshots_persisted 0
engine/ssB/traffic events_received 30
engine/ssB/traffic events_sent 40
engine/ssC/adaptive hold_slices 2
engine/ssC/adaptive mode_changes 1
engine/ssC/adaptive proposals_accepted 1
engine/ssC/adaptive proposals_received 1
engine/ssC/adaptive proposals_rejected 0
engine/ssC/adaptive proposals_sent 0
engine/ssC/adaptive to_conservative 1
engine/ssC/adaptive to_optimistic 0
engine/ssC/conservative grants_received 2
engine/ssC/conservative grants_sent 2
engine/ssC/conservative requests_sent 0
engine/ssC/conservative stalls 2
engine/ssC/optimistic checkpoints 2
engine/ssC/optimistic retracts_received 0
engine/ssC/optimistic retracts_sent 0
engine/ssC/optimistic rollbacks 0
engine/ssC/recovery heartbeats_received 1
engine/ssC/recovery heartbeats_sent 1
engine/ssC/recovery peer_down_events 0
engine/ssC/recovery recoveries 0
engine/ssC/recovery rejoins_verified 0
engine/ssC/snapshot marks_received 1
engine/ssC/snapshot snapshot_persist_bytes 0
engine/ssC/snapshot snapshots_invalidated 0
engine/ssC/snapshot snapshots_persisted 0
engine/ssC/traffic events_received 40
engine/ssC/traffic events_sent 0
sub/ssA checkpoints 2
sub/ssA events_received 0
sub/ssA events_sent 30
sub/ssA grants_received 2
sub/ssA grants_sent 2
sub/ssA heartbeats_received 1
sub/ssA heartbeats_sent 1
sub/ssA marks_received 1
sub/ssA peer_down_events 0
sub/ssA recoveries 0
sub/ssA rejoins_verified 0
sub/ssA requests_sent 1
sub/ssA retracts_received 0
sub/ssA retracts_sent 0
sub/ssA rollbacks 0
sub/ssA sched_events_dispatched 60
sub/ssA sched_events_scheduled 60
sub/ssA sched_runlevel_switches 0
sub/ssA sched_violations 0
sub/ssA sched_wakes_dispatched 30
sub/ssA snapshot_persist_bytes 0
sub/ssA snapshots_invalidated 0
sub/ssA snapshots_persisted 0
sub/ssA stalls 1
sub/ssA trace_dropped 0
sub/ssA trace_records 0
sub/ssB checkpoints 4
sub/ssB events_received 30
sub/ssB events_sent 40
sub/ssB grants_received 4
sub/ssB grants_sent 4
sub/ssB heartbeats_received 2
sub/ssB heartbeats_sent 2
sub/ssB marks_received 2
sub/ssB peer_down_events 0
sub/ssB recoveries 0
sub/ssB rejoins_verified 0
sub/ssB requests_sent 1
sub/ssB retracts_received 0
sub/ssB retracts_sent 0
sub/ssB rollbacks 0
sub/ssB sched_events_dispatched 140
sub/ssB sched_events_scheduled 140
sub/ssB sched_runlevel_switches 0
sub/ssB sched_violations 0
sub/ssB sched_wakes_dispatched 40
sub/ssB snapshot_persist_bytes 0
sub/ssB snapshots_invalidated 0
sub/ssB snapshots_persisted 0
sub/ssB stalls 1
sub/ssB trace_dropped 0
sub/ssB trace_records 0
sub/ssC checkpoints 2
sub/ssC events_received 40
sub/ssC events_sent 0
sub/ssC grants_received 2
sub/ssC grants_sent 2
sub/ssC heartbeats_received 1
sub/ssC heartbeats_sent 1
sub/ssC marks_received 1
sub/ssC peer_down_events 0
sub/ssC recoveries 0
sub/ssC rejoins_verified 0
sub/ssC requests_sent 0
sub/ssC retracts_received 0
sub/ssC retracts_sent 0
sub/ssC rollbacks 0
sub/ssC sched_events_dispatched 80
sub/ssC sched_events_scheduled 80
sub/ssC sched_runlevel_switches 0
sub/ssC sched_violations 0
sub/ssC sched_wakes_dispatched 0
sub/ssC snapshot_persist_bytes 0
sub/ssC snapshots_invalidated 0
sub/ssC snapshots_persisted 0
sub/ssC stalls 2
sub/ssC trace_dropped 0
sub/ssC trace_records 0
)";

std::string metric_line(const std::string& scope, const std::string& name,
                        const MetricsRegistry::MetricValue& value) {
  return scope + " " + name + " " +
         std::visit([](auto v) { return std::to_string(v); }, value);
}

TEST(ClusterObservability, MetricsKeysAndValuesArePinned) {
  TraceFlagGuard guard;
  set_trace_enabled(false);
  // A chain ssA -> ssB -> ssC: a producer on ssA feeds a sink on ssB over a
  // conservative channel, and a producer on ssB feeds a sink on ssC over an
  // optimistic channel that ssB then forces to conservative (a proposal, a
  // Chandy–Lamport cut and a flip on both sides).  The subsystems run slice
  // by slice on this one thread over loopback wires, so every counter is
  // reproducible.  Heartbeats are armed with an interval longer than the
  // run: one beacon per channel endpoint.
  dist::NodeCluster cluster;
  dist::Subsystem& a = cluster.add_node("nodeA").add_subsystem("ssA");
  dist::Subsystem& b = cluster.add_node("nodeB").add_subsystem("ssB");
  dist::Subsystem& c = cluster.add_node("nodeC").add_subsystem("ssC");
  auto& slow = a.scheduler().emplace<testing::Producer>("slow", 30, ticks(10));
  auto& slow_sink = b.scheduler().emplace<testing::Sink>("slow_sink");
  auto& fast = b.scheduler().emplace<testing::Producer>("fast", 40, ticks(7));
  auto& fast_sink = c.scheduler().emplace<testing::Sink>("fast_sink");
  const NetId slow_a = a.scheduler().make_net("slow");
  a.scheduler().attach(slow_a, slow.id(), "out");
  const NetId slow_b = b.scheduler().make_net("slow");
  b.scheduler().attach(slow_b, slow_sink.id(), "in");
  const NetId fast_b = b.scheduler().make_net("fast");
  b.scheduler().attach(fast_b, fast.id(), "out");
  const NetId fast_c = c.scheduler().make_net("fast");
  c.scheduler().attach(fast_c, fast_sink.id(), "in");
  const dist::ChannelPair cons =
      cluster.connect_checked(a, b, dist::ChannelMode::kConservative);
  const dist::ChannelPair opt =
      cluster.connect_checked(b, c, dist::ChannelMode::kOptimistic);
  dist::split_net(a, cons.a, slow_a, b, cons.b, slow_b);
  dist::split_net(b, opt.a, fast_b, c, opt.b, fast_c);
  const std::vector<dist::Subsystem*> subsystems = {&a, &b, &c};
  for (dist::Subsystem* s : subsystems) {
    s->set_heartbeat(std::chrono::hours(1), std::chrono::hours(2));
    s->set_adaptive_sync();
  }
  cluster.start_all();
  b.request_mode_change(opt.a, dist::ChannelMode::kConservative);

  const dist::Subsystem::RunConfig config;
  std::vector<std::optional<dist::Subsystem::RunOutcome>> done(3);
  for (int slice = 0; slice < 10000; ++slice) {
    bool all_done = true;
    for (std::size_t i = 0; i < subsystems.size(); ++i) {
      bool progressed = false;
      if (!done[i]) done[i] = subsystems[i]->run_slice(config, progressed);
      all_done = all_done && done[i].has_value();
    }
    if (all_done) break;
  }
  for (const auto& outcome : done)
    ASSERT_EQ(outcome, dist::Subsystem::RunOutcome::kQuiescent);
  ASSERT_EQ(slow_sink.received.size(), 30u);
  ASSERT_EQ(fast_sink.received.size(), 40u);
  ASSERT_EQ(b.channel(opt.a).mode(), dist::ChannelMode::kConservative);

  const MetricsRegistry metrics = cluster.metrics();
  std::set<std::string> seen;
  std::string dump;
  for (const auto& [scope, names] : metrics.entries())
    for (const auto& [name, value] : names) {
      seen.insert(metric_line(scope, name, value));
      dump += metric_line(scope, name, value) + "\n";
    }

  std::istringstream golden(kPinnedMetrics);
  std::set<std::string> pinned;
  for (std::string line; std::getline(golden, line);)
    if (!line.empty()) pinned.insert(line);
  for (const std::string& want : pinned)
    EXPECT_TRUE(seen.count(want) != 0) << "lost or changed: " << want;

  // New lines may only be sub/<name> copies of the adaptive counters.
  const std::set<std::string> adaptive = {
      "proposals_sent", "proposals_received", "proposals_accepted",
      "proposals_rejected", "mode_changes", "to_optimistic",
      "to_conservative", "hold_slices"};
  for (const auto& [scope, names] : metrics.entries())
    for (const auto& [name, value] : names) {
      const std::string entry = metric_line(scope, name, value);
      if (pinned.count(entry) != 0) continue;
      const bool sub_adaptive =
          scope.rfind("sub/", 0) == 0 && adaptive.count(name) != 0;
      EXPECT_TRUE(sub_adaptive) << "unexpected metric: " << entry;
      if (sub_adaptive) {
        EXPECT_EQ(value, metrics.get("engine/" + scope.substr(4) + "/adaptive",
                                     name))
            << entry;
      }
    }
  EXPECT_FALSE(HasFailure()) << "actual metrics:\n" << dump;
}

TEST(ClusterObservability, DisabledCaptureRecordsNothing) {
  TraceFlagGuard guard;
  set_trace_enabled(false);
  dist::testing::SplitPipe pipe(5, dist::ChannelMode::kConservative);
  pipe.cluster.start_all();
  pipe.cluster.run_all();
  for (dist::Subsystem* s : pipe.cluster.all_subsystems())
    EXPECT_EQ(s->scheduler().trace().total_recorded(), 0u);
}

}  // namespace
}  // namespace pia::obs
