// Scale-out harness tests: the Zipf load shape, per-client seed streams,
// wire payload codecs, and bit-exact equivalence of the distributed
// deployments against the single-host oracle at small N.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <set>
#include <vector>

#include "base/error.hpp"
#include "dist/sharding.hpp"
#include "wubbleu/scaleout.hpp"

namespace pia::wubbleu {
namespace {

using dist::ChannelMode;

// ---------------------------------------------------------------------------
// Zipf sampler
// ---------------------------------------------------------------------------

TEST(Zipf, ProbabilitiesSumToOneAndDecrease) {
  const dist::ZipfSampler zipf(64, 1.1);
  double total = 0;
  for (std::uint32_t r = 0; r < 64; ++r) {
    total += zipf.probability(r);
    if (r > 0) EXPECT_LT(zipf.probability(r), zipf.probability(r - 1));
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(zipf.probability(64), 0.0);
}

TEST(Zipf, SampleIsMonotoneAndCoversRange) {
  const dist::ZipfSampler zipf(16, 1.0);
  EXPECT_EQ(zipf.sample(0.0), 0u);
  EXPECT_EQ(zipf.sample(0.999'999'9), 15u);
  std::uint32_t last = 0;
  for (double u = 0.0; u < 1.0; u += 1e-3) {
    const std::uint32_t r = zipf.sample(u);
    EXPECT_GE(r, last);
    last = r;
  }
}

TEST(Zipf, ChiSquaredBoundOnLargeSample) {
  // 200k draws through the same counter-based SplitMix64 the load generator
  // uses.  Deterministic, so the bound is a regression check, not a flaky
  // statistical one; 110 is ~the 99.97th percentile of chi^2 with df=63.
  constexpr std::size_t kItems = 64;
  constexpr std::size_t kDraws = 200'000;
  const dist::ZipfSampler zipf(kItems, 1.1);
  std::vector<std::uint64_t> counts(kItems, 0);
  const std::uint64_t stream = dist::stream_seed(20'26, 7);
  for (std::size_t k = 0; k < kDraws; ++k) {
    const std::uint64_t raw =
        dist::mix64(stream + k * 0x9E3779B97F4A7C15ULL);
    const double u = static_cast<double>(raw >> 11) * 0x1.0p-53;
    ++counts[zipf.sample(u)];
  }
  double chi2 = 0;
  for (std::size_t r = 0; r < kItems; ++r) {
    const double expected = zipf.probability(static_cast<std::uint32_t>(r)) *
                            static_cast<double>(kDraws);
    ASSERT_GT(expected, 5.0) << "bin " << r << " too thin for chi-squared";
    const double d = static_cast<double>(counts[r]) - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 110.0) << "Zipf sample diverges from the model";
  // The headline property: rank 0 dominates, the tail is long but present.
  EXPECT_GT(counts[0], counts[kItems - 1] * 20);
  EXPECT_GT(counts[kItems - 1], 0u);
}

// ---------------------------------------------------------------------------
// Seed streams
// ---------------------------------------------------------------------------

TEST(SeedStreams, DistinctPerClientAndPerRun) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t client = 0; client < 4096; ++client)
    seen.insert(dist::stream_seed(1, client));
  EXPECT_EQ(seen.size(), 4096u);
  EXPECT_NE(dist::stream_seed(1, 0), dist::stream_seed(2, 0));
}

TEST(SeedStreams, NeighbouringStreamsAreDecorrelated) {
  // First draw of each of 1000 neighbouring client streams: the mean should
  // sit near 1/2 — shifted copies of one stream would not.
  double sum = 0;
  for (std::uint64_t client = 0; client < 1000; ++client) {
    const std::uint64_t raw = dist::mix64(dist::stream_seed(42, client));
    sum += static_cast<double>(raw >> 11) * 0x1.0p-53;
  }
  EXPECT_NEAR(sum / 1000.0, 0.5, 0.03);
}

TEST(SeedStreams, ShardOfSpreadsShortUrls) {
  std::vector<std::size_t> hits(4, 0);
  for (std::uint32_t rank = 0; rank < 400; ++rank)
    ++hits[dist::shard_of_key(page_url(rank), 4)];
  for (const std::size_t h : hits) {
    EXPECT_GT(h, 60u);
    EXPECT_LT(h, 140u);
  }
  EXPECT_EQ(dist::shard_of_key(page_url(3), 1), 0u);
}

// ---------------------------------------------------------------------------
// Wire payloads
// ---------------------------------------------------------------------------

TEST(Payloads, TaggedRequestRoundTrip) {
  const TaggedRequest tagged{.client = 917, .request = {.url = page_url(12)}};
  const TaggedRequest back = decode_tagged_request(encode_tagged_request(tagged));
  EXPECT_EQ(back.client, 917u);
  EXPECT_EQ(back.request.url, page_url(12));
}

TEST(Payloads, ResponseSummaryRoundTrip) {
  const ResponseSummary summary{.client = 3,
                                .status = 200,
                                .url = page_url(5),
                                .body_bytes = 2311,
                                .images = 2,
                                .body_hash = 0xDEADBEEFCAFEULL};
  const ResponseSummary back =
      decode_response_summary(encode_response_summary(summary));
  EXPECT_EQ(back.client, summary.client);
  EXPECT_EQ(back.status, summary.status);
  EXPECT_EQ(back.url, summary.url);
  EXPECT_EQ(back.body_bytes, summary.body_bytes);
  EXPECT_EQ(back.images, summary.images);
  EXPECT_EQ(back.body_hash, summary.body_hash);
}

// ---------------------------------------------------------------------------
// Determinism and oracle equivalence
// ---------------------------------------------------------------------------

ScaleoutSpec small_spec() {
  ScaleoutSpec spec;
  spec.clients = 6;
  spec.shards = 2;
  spec.clients_per_station = 3;
  spec.requests_per_client = 3;
  spec.catalog.pages = 16;
  spec.catalog.page_bytes = 512;
  spec.seed = 1234;
  return spec;
}

TEST(Scaleout, SingleHostRunsAreIdentical) {
  const ScaleoutSpec spec = small_spec();
  const ScaleoutResult a = run_single_host(spec);
  const ScaleoutResult b = run_single_host(spec);
  EXPECT_GT(a.total_fetches(), 0u);
  EXPECT_EQ(a.total_fetches(), 6u * 3u);
  EXPECT_TRUE(a == b);
}

TEST(Scaleout, SeedChangesTheWorkload) {
  ScaleoutSpec spec = small_spec();
  const ScaleoutResult a = run_single_host(spec);
  spec.seed = 99;
  const ScaleoutResult b = run_single_host(spec);
  EXPECT_FALSE(a == b);
}

TEST(Scaleout, IdenticalSeedAndClientGiveIdenticalFetchLog) {
  // Per-client streams: client 2's log depends only on (seed, client id,
  // catalog) — growing the fleet around it must not disturb it.
  ScaleoutSpec spec = small_spec();
  spec.shards = 1;  // one shard: fleet size cannot reroute anything
  spec.clients_per_station = 100;
  const ScaleoutResult small = run_single_host(spec);
  spec.clients = 12;
  const ScaleoutResult big = run_single_host(spec);
  // Think times and ranks are drawn per client, so the shared-seed prefix
  // clients behave identically in both fleets (service is load-independent
  // in this model).
  for (std::size_t c = 0; c < 6; ++c)
    EXPECT_EQ(small.fetches[c], big.fetches[c]) << "client " << c;
}

TEST(Scaleout, AggregatedOracleMatchesPerClientOracle) {
  // The station mux adds fan-in, not virtual time: per-client mode folds
  // the station hop into its net delays, so both topologies must produce
  // identical fetch logs.
  ScaleoutSpec spec = small_spec();
  spec.aggregated = true;
  const ScaleoutResult agg = run_single_host(spec);
  spec.aggregated = false;
  const ScaleoutResult direct = run_single_host(spec);
  EXPECT_TRUE(agg == direct);
}

void expect_matches_oracle(const ScaleoutSpec& spec) {
  const ScaleoutResult oracle = run_single_host(spec);
  ScaleoutCluster cluster(spec);
  const auto outcomes = cluster.run();
  for (const auto& [name, outcome] : outcomes)
    EXPECT_EQ(outcome, dist::Subsystem::RunOutcome::kQuiescent) << name;
  const ScaleoutResult got = cluster.result();
  EXPECT_TRUE(got == oracle);
  EXPECT_EQ(got.total_fetches(),
            spec.clients * spec.requests_per_client);
}

TEST(Scaleout, AggregatedClusterMatchesOracle) {
  expect_matches_oracle(small_spec());
}

TEST(Scaleout, PerClientClusterMatchesOracle) {
  ScaleoutSpec spec = small_spec();
  spec.aggregated = false;
  spec.clients = 4;
  expect_matches_oracle(spec);
}

TEST(Scaleout, PooledWorkersMatchOracle) {
  ScaleoutSpec spec = small_spec();
  spec.worker_threads = 2;
  expect_matches_oracle(spec);
}

TEST(Scaleout, OptimisticChannelsMatchOracle) {
  ScaleoutSpec spec = small_spec();
  spec.mode_cycle = {ChannelMode::kOptimistic};
  expect_matches_oracle(spec);
}

TEST(Scaleout, MixedModesMatchOracle) {
  ScaleoutSpec spec = small_spec();
  spec.mode_cycle = {ChannelMode::kConservative, ChannelMode::kOptimistic};
  spec.mode_phase = 1;
  expect_matches_oracle(spec);
}

TEST(Scaleout, StationAndShardCountersBalance) {
  const ScaleoutSpec spec = small_spec();
  ScaleoutCluster cluster(spec);
  cluster.run();
  const std::uint64_t fetches = cluster.result().total_fetches();
  std::uint64_t relayed_up = 0, relayed_down = 0, served = 0;
  std::size_t partitioned = 0;
  for (const ShardGateway* shard : cluster.shards()) {
    served += shard->served();
    partitioned += shard->partition_size();
  }
  for (const StationMux* station : cluster.station_muxes()) {
    relayed_up += station->relayed_up();
    relayed_down += station->relayed_down();
  }
  EXPECT_EQ(served, fetches);
  EXPECT_EQ(relayed_up, fetches);
  EXPECT_EQ(relayed_down, fetches);
  EXPECT_EQ(cluster.frontend().routed_requests(), fetches);
  EXPECT_EQ(cluster.frontend().routed_replies(), fetches);
  EXPECT_EQ(partitioned, spec.catalog.pages);
  // Farm tree: one channel per client, per station, per shard.
  EXPECT_EQ(cluster.channel_count(),
            spec.clients + spec.stations() + spec.shards);
}

TEST(Scaleout, TotalStatsSumEveryFieldOfEverySubsystem) {
  // total_stats() must be the field-wise sum of the subsystems' stats(),
  // every field included.  Heartbeats (armed with an interval longer than
  // the run: one beacon per channel endpoint) fill fields past the sync
  // counters, which a sum of the first few fields would leave at zero.
  // The fields are compared as raw words, so the check needs no list of
  // field names that could miss one.
  ScaleoutCluster cluster(small_spec());
  for (dist::Subsystem* s : cluster.cluster().all_subsystems())
    s->set_heartbeat(std::chrono::hours(1), std::chrono::hours(2));
  cluster.run();
  using Words = std::array<std::uint64_t, sizeof(dist::SubsystemStats) /
                                              sizeof(std::uint64_t)>;
  Words want{};
  for (const dist::Subsystem* s : cluster.cluster().all_subsystems()) {
    const auto words = std::bit_cast<Words>(dist::SubsystemStats{s->stats()});
    for (std::size_t i = 0; i < want.size(); ++i) want[i] += words[i];
  }
  EXPECT_GT(std::bit_cast<dist::SubsystemStats>(want).heartbeats_sent, 0u);
  EXPECT_EQ(std::bit_cast<Words>(cluster.total_stats()), want);
}

TEST(Scaleout, PerClientChannelCountIsNPlusM) {
  // The baseline keeps one frontend channel per client: N + M channels and
  // O(N) conservative peers at the frontend — the cost aggregation removes.
  ScaleoutSpec spec = small_spec();
  spec.aggregated = false;
  spec.clients = 4;
  ScaleoutCluster cluster(spec);
  EXPECT_EQ(cluster.channel_count(), 4u + spec.shards);
}

}  // namespace
}  // namespace pia::wubbleu
