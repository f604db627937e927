#include <gtest/gtest.h>

#include "base/rng.hpp"
#include "wubbleu/handwriting.hpp"
#include "wubbleu/jpeg.hpp"
#include "wubbleu/page.hpp"
#include "wubbleu/system.hpp"

namespace pia::wubbleu {
namespace {

// ---------------------------------------------------------------------------
// JPEG codec
// ---------------------------------------------------------------------------

TEST(Jpeg, EncodeDecodeRoundTripDimensions) {
  const GrayImage image = make_test_image(64, 48, 7);
  const Bytes encoded = jpeg_encode(image);
  const GrayImage decoded = jpeg_decode(encoded);
  EXPECT_EQ(decoded.width, 64u);
  EXPECT_EQ(decoded.height, 48u);
}

TEST(Jpeg, LossyButClose) {
  const GrayImage image = make_test_image(64, 64, 3);
  const GrayImage decoded = jpeg_decode(jpeg_encode(image, JpegQuality{16}));
  // Mean absolute error should be small at high quality.
  double err = 0;
  for (std::size_t i = 0; i < image.pixels.size(); ++i)
    err += std::abs(static_cast<int>(image.pixels[i]) -
                    static_cast<int>(decoded.pixels[i]));
  err /= static_cast<double>(image.pixels.size());
  EXPECT_LT(err, 12.0);
}

TEST(Jpeg, HigherQualityIsBiggerAndCloser) {
  const GrayImage image = make_test_image(64, 64, 11);
  const Bytes coarse = jpeg_encode(image, JpegQuality{2});
  const Bytes fine = jpeg_encode(image, JpegQuality{24});
  EXPECT_LT(coarse.size(), fine.size());

  auto mae = [&](const Bytes& data) {
    const GrayImage decoded = jpeg_decode(data);
    double err = 0;
    for (std::size_t i = 0; i < image.pixels.size(); ++i)
      err += std::abs(static_cast<int>(image.pixels[i]) -
                      static_cast<int>(decoded.pixels[i]));
    return err / static_cast<double>(image.pixels.size());
  };
  EXPECT_LT(mae(fine), mae(coarse));
}

TEST(Jpeg, CompressesSmoothContent) {
  const GrayImage image = make_test_image(128, 128, 5);
  const Bytes encoded = jpeg_encode(image);
  EXPECT_LT(encoded.size(), image.pixels.size() / 2);
}

TEST(Jpeg, NonMultipleOfEightDimensions) {
  const GrayImage image = make_test_image(33, 19, 9);
  const GrayImage decoded = jpeg_decode(jpeg_encode(image));
  EXPECT_EQ(decoded.width, 33u);
  EXPECT_EQ(decoded.height, 19u);
}

TEST(Jpeg, CorruptDataThrows) {
  EXPECT_THROW(jpeg_decode(to_bytes("not a jpeg")), Error);
}

class JpegSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(JpegSweep, AllQualitiesRoundTrip) {
  const GrayImage image = make_test_image(40, 40, GetParam());
  for (std::uint32_t q : {1u, 4u, 8u, 16u, 32u}) {
    const GrayImage decoded =
        jpeg_decode(jpeg_encode(image, JpegQuality{q}));
    ASSERT_EQ(decoded.pixels.size(), image.pixels.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JpegSweep, ::testing::Values(1, 2, 3, 4));

// ---------------------------------------------------------------------------
// Handwriting
// ---------------------------------------------------------------------------

TEST(Handwriting, CanonicalStrokesClassifyExactly) {
  HandwritingClassifier classifier;
  for (char c : stroke_alphabet()) {
    const auto result = classifier.classify(stroke_for_char(c));
    EXPECT_EQ(result.character, c) << "canonical stroke misclassified";
  }
}

TEST(Handwriting, NoisyStrokesMostlyClassify) {
  HandwritingClassifier classifier;
  int correct = 0;
  int total = 0;
  for (char c : stroke_alphabet()) {
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
      ++total;
      if (classifier.classify(noisy_stroke_for_char(c, seed)).character == c)
        ++correct;
    }
  }
  EXPECT_GT(correct * 100 / total, 90) << "noisy accuracy too low";
}

TEST(Handwriting, StrokeEncodingRoundTrip) {
  const Stroke stroke = stroke_for_char('w');
  const Stroke decoded = decode_stroke(encode_stroke(stroke));
  ASSERT_EQ(decoded.size(), stroke.size());
  for (std::size_t i = 0; i < stroke.size(); ++i) {
    EXPECT_FLOAT_EQ(decoded[i].x, stroke[i].x);
    EXPECT_FLOAT_EQ(decoded[i].y, stroke[i].y);
  }
}

TEST(Handwriting, FeaturesAreScaleInsensitiveDirectionally) {
  Stroke stroke = stroke_for_char('a');
  Stroke doubled = stroke;
  for (StrokePoint& p : doubled) {
    p.x *= 2;
    p.y *= 2;
  }
  const auto f1 = extract_features(stroke);
  const auto f2 = extract_features(doubled);
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_NEAR(f1.direction_histogram[i], f2.direction_histogram[i], 1e-4);
  EXPECT_NEAR(f1.aspect, f2.aspect, 1e-4);
}

// ---------------------------------------------------------------------------
// Page + HTTP
// ---------------------------------------------------------------------------

TEST(Page, HitsTargetSize) {
  const HttpResponse page = make_page(PageSpec{});
  EXPECT_NEAR(static_cast<double>(page.body.size()), 66.0 * 1024, 512);
  EXPECT_EQ(page.images.size(), 4u);
  EXPECT_EQ(page.status, 200);
}

TEST(Page, ImagesDecodeFromBody) {
  const HttpResponse page = make_page(PageSpec{.image_count = 2});
  for (const ImageRef& ref : page.images) {
    const GrayImage image =
        jpeg_decode(BytesView{page.body}.subspan(ref.offset, ref.length));
    EXPECT_EQ(image.width, ref.width);
    EXPECT_EQ(image.height, ref.height);
  }
}

TEST(Page, StoreServesAndReports404) {
  PageStore store;
  store.put(make_page(PageSpec{.url = "http://a", .target_bytes = 4096}));
  EXPECT_TRUE(store.contains("http://a"));
  EXPECT_EQ(store.get("http://a").status, 200);
  EXPECT_EQ(store.get("http://nope").status, 404);
}

TEST(Http, RequestResponseRoundTrip) {
  const Bytes req = encode_request(HttpRequest{.url = "http://x/y"});
  EXPECT_EQ(decode_request(req).url, "http://x/y");

  HttpResponse response = make_page(PageSpec{.target_bytes = 8192});
  const HttpResponse decoded = decode_response(encode_response(response));
  EXPECT_EQ(decoded.body, response.body);
  EXPECT_EQ(decoded.images.size(), response.images.size());
  EXPECT_EQ(decoded.url, response.url);
}

// ---------------------------------------------------------------------------
// Full system
// ---------------------------------------------------------------------------

WubbleUConfig small_config(RunLevel level) {
  WubbleUConfig config;
  config.page.target_bytes = 8 * 1024;  // keep unit tests fast
  config.page.image_count = 1;
  config.page.image_width = 32;
  config.page.image_height = 32;
  config.downlink_level = level;
  return config;
}

TEST(WubbleULocal, PageLoadsEndToEnd) {
  Scheduler sched("wubbleu");
  const WubbleUConfig config = small_config(runlevels::kPacket);
  const WubbleUHandles h = build_local(sched, config);
  sched.init();
  sched.run();

  EXPECT_EQ(h.recognizer->classified(),
            config.page.url.size() + 1);  // URL + newline
  ASSERT_EQ(h.ui->loads().size(), 1u);
  EXPECT_EQ(h.ui->completed(), 1u);
  const auto& load = h.ui->loads()[0];
  EXPECT_EQ(load.url, config.page.url);
  EXPECT_GT(load.completed_at, load.requested_at);
  EXPECT_NEAR(static_cast<double>(load.body_bytes), 8 * 1024, 512);
  EXPECT_EQ(load.images, 1u);
  EXPECT_EQ(h.cpu->pages_loaded(), 1u);
  EXPECT_EQ(h.cpu->images_decoded(), 1u);
  EXPECT_EQ(h.cpu->image_pixel_errors(), 0u);
  EXPECT_EQ(h.gateway->requests_served(), 1u);
}

TEST(WubbleULocal, WordLevelCostsFarMoreEventsThanPacketLevel) {
  auto run_level = [](const RunLevel& level) {
    Scheduler sched("wubbleu");
    const WubbleUHandles h = build_local(sched, small_config(level));
    sched.init();
    sched.run();
    EXPECT_EQ(h.ui->completed(), 1u);
    return std::make_pair(sched.stats().events_dispatched,
                          h.asic->host_emissions());
  };
  const auto [packet_events, packet_emissions] =
      run_level(runlevels::kPacket);
  const auto [word_events, word_emissions] = run_level(runlevels::kWord);
  // ~8 KB page: 8 packets vs ~2k words.
  EXPECT_GT(word_emissions, 100 * packet_emissions);
  EXPECT_GT(word_events, 10 * packet_events);
}

TEST(WubbleULocal, MultiPageSession) {
  Scheduler sched("wubbleu");
  WubbleUConfig config = small_config(runlevels::kPacket);
  config.urls = {config.page.url, config.page.url, config.page.url};
  const WubbleUHandles h = build_local(sched, config);
  sched.init();
  sched.run();
  EXPECT_EQ(h.ui->completed(), 3u);
  EXPECT_EQ(h.cpu->pages_loaded(), 3u);
  EXPECT_EQ(h.gateway->requests_served(), 3u);
  // Loads complete in order.
  const auto& loads = h.ui->loads();
  for (std::size_t i = 1; i < loads.size(); ++i)
    EXPECT_GT(loads[i].completed_at, loads[i - 1].completed_at);
}

TEST(WubbleUDistributed, RemoteChipMatchesLocalResults) {
  const WubbleUConfig config = small_config(runlevels::kPacket);

  // Local reference.
  Scheduler local("wubbleu");
  const WubbleUHandles ref = build_local(local, config);
  local.init();
  local.run();
  ASSERT_EQ(ref.ui->completed(), 1u);
  const VirtualTime ref_done = ref.ui->loads()[0].completed_at;

  // Distributed: chip + server remote, conservative channel.
  dist::NodeCluster cluster;
  dist::PiaNode& node_a = cluster.add_node("handheld-node");
  dist::PiaNode& node_b = cluster.add_node("chip-node");
  dist::Subsystem& handheld = node_a.add_subsystem("handheld");
  dist::Subsystem& chip = node_b.add_subsystem("chip");
  const dist::ChannelPair channels = cluster.connect_checked(
      handheld, chip, dist::ChannelMode::kConservative);
  const WubbleUHandles h =
      build_distributed(handheld, chip, channels, config);
  cluster.start_all();
  const auto outcomes = cluster.run_all();
  for (const auto& [name, outcome] : outcomes)
    EXPECT_EQ(outcome, dist::Subsystem::RunOutcome::kQuiescent) << name;

  ASSERT_EQ(h.ui->completed(), 1u);
  // Distribution must not change simulated behaviour: identical virtual
  // completion time and page contents.
  EXPECT_EQ(h.ui->loads()[0].completed_at, ref_done);
  EXPECT_EQ(h.cpu->images_decoded(), 1u);
  EXPECT_EQ(h.cpu->image_pixel_errors(), 0u);
}

// Type-ahead at the default stylus period: the user finishes the next URL
// while the CPU is still decoding the previous page, so the request reaches
// the CPU in its virtual past.  It is an interrupt, taken when the browser
// task is free.  As a synchronous input it aborted both sessions below with
// a consistency violation: 66 KB word sessions at page 29, sessions of
// 1 KB pages at page 2, locally and over loopback alike.

TEST(WubbleULocal, TypeAheadSessionAtDefaultPeriodCompletes) {
  Scheduler sched("wubbleu");
  WubbleUConfig config;  // 66 KB pages, default stroke period
  config.downlink_level = runlevels::kWord;
  config.urls.assign(40, config.page.url);
  const WubbleUHandles h = build_local(sched, config);
  sched.init();
  sched.run();
  ASSERT_EQ(h.ui->loads().size(), 40u);
  EXPECT_EQ(h.ui->completed(), 40u);
  EXPECT_EQ(h.cpu->pages_loaded(), 40u);
  EXPECT_EQ(h.cpu->image_pixel_errors(), 0u);
}

// A stylus faster than the recognizer: at 20 k ticks per character the
// next stroke arrives while the classifier (~97 k ticks a stroke on the
// 33 MHz core) is still busy.  The recognizer queues strokes, so the
// session loads the same pages, only later.  As a synchronous input it died
// with "synchronous delivery at 40000 to 'recognizer'".
TEST(WubbleULocal, StrokesFasterThanTheRecognizerQueue) {
  auto session = [](VirtualTime stroke_period) {
    WubbleUConfig config = small_config(runlevels::kPacket);
    config.urls.assign(2, config.page.url);
    config.stroke_period = stroke_period;
    Scheduler sched("wubbleu");
    const WubbleUHandles h = build_local(sched, config);
    sched.init();
    sched.run();
    EXPECT_EQ(h.ui->completed(), 2u);
    std::vector<std::string> urls;
    for (const Ui::PageLoad& load : h.ui->loads()) urls.push_back(load.url);
    return urls;
  };
  const std::vector<std::string> slow = session(ticks(200'000));
  EXPECT_EQ(slow.size(), 2u);
  EXPECT_EQ(session(ticks(20'000)), slow);
}

TEST(WubbleUDistributed, TypeAheadSessionMatchesLocalLoads) {
  WubbleUConfig config;
  config.page.target_bytes = 1024;
  config.page.image_count = 1;
  config.urls.assign(2, config.page.url);

  Scheduler local("wubbleu");
  const WubbleUHandles ref = build_local(local, config);
  local.init();
  local.run();
  ASSERT_EQ(ref.ui->completed(), 2u);

  dist::NodeCluster cluster;
  dist::PiaNode& node = cluster.add_node("n");
  dist::Subsystem& handheld = node.add_subsystem("handheld");
  dist::Subsystem& chip = node.add_subsystem("chip");
  const dist::ChannelPair channels = cluster.connect_checked(
      handheld, chip, dist::ChannelMode::kConservative);
  const WubbleUHandles h = build_distributed(handheld, chip, channels, config);
  cluster.start_all();
  for (const auto& [name, outcome] : cluster.run_all())
    EXPECT_EQ(outcome, dist::Subsystem::RunOutcome::kQuiescent) << name;

  const auto& want = ref.ui->loads();
  const auto& got = h.ui->loads();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].url, want[i].url) << i;
    EXPECT_EQ(got[i].requested_at, want[i].requested_at) << i;
    EXPECT_EQ(got[i].completed_at, want[i].completed_at) << i;
    EXPECT_EQ(got[i].body_bytes, want[i].body_bytes) << i;
    EXPECT_EQ(got[i].images, want[i].images) << i;
  }
  // The second URL was typed before the first page finished loading.
  EXPECT_LT(want[1].requested_at, want[0].completed_at);
}

TEST(WubbleUDistributed, WordLevelMultipliesChannelTraffic) {
  auto run_level = [](const RunLevel& level) {
    dist::NodeCluster cluster;
    dist::PiaNode& node = cluster.add_node("n");
    dist::Subsystem& handheld = node.add_subsystem("handheld");
    dist::Subsystem& chip = node.add_subsystem("chip");
    const dist::ChannelPair channels = cluster.connect_checked(
        handheld, chip, dist::ChannelMode::kConservative);
    const WubbleUHandles h =
        build_distributed(handheld, chip, channels, small_config(level));
    cluster.start_all();
    cluster.run_all();
    EXPECT_EQ(h.ui->completed(), 1u);
    return chip.stats().events_sent;  // messages chip -> handheld
  };
  const auto packet_msgs = run_level(runlevels::kPacket);
  const auto word_msgs = run_level(runlevels::kWord);
  EXPECT_GT(word_msgs, 100 * packet_msgs);
}

TEST(WubbleUNative, ReferenceLoadDecodesEverything) {
  const PageSpec spec{.target_bytes = 16 * 1024, .image_count = 2};
  const NativeLoadResult result = native_page_load(spec);
  EXPECT_NEAR(static_cast<double>(result.body_bytes), 16.0 * 1024, 512);
  EXPECT_EQ(result.images_decoded, 2u);
}

}  // namespace
}  // namespace pia::wubbleu
