#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <future>
#include <limits>
#include <optional>
#include <thread>
#include <vector>

#include "base/error.hpp"
#include "base/rng.hpp"
#include "dist/node.hpp"
#include "dist/protocol.hpp"
#include "dist/subsystem.hpp"
#include "transport/crc32.hpp"
#include "transport/fault.hpp"
#include "transport/frame.hpp"
#include "transport/latency.hpp"
#include "transport/link.hpp"
#include "transport/ready.hpp"
#include "transport/tcp.hpp"

namespace pia::transport {
namespace {

using namespace std::chrono_literals;

TEST(Crc32, KnownVector) {
  // CRC-32("123456789") = 0xCBF43926 (IEEE 802.3 check value).
  EXPECT_EQ(crc32(to_bytes("123456789")), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(crc32({}), 0u); }

TEST(Frame, RoundTrip) {
  const Bytes payload = to_bytes("hello frames");
  FrameDecoder dec;
  dec.feed(encode_frame(payload));
  const auto out = dec.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, payload);
  EXPECT_FALSE(dec.next().has_value());
}

TEST(Frame, PartialFeedReassembles) {
  const Bytes frame = encode_frame(to_bytes("split across reads"));
  FrameDecoder dec;
  // Feed one byte at a time: the decoder must never yield early.
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    dec.feed(BytesView{&frame[i], 1});
    EXPECT_FALSE(dec.next().has_value());
  }
  dec.feed(BytesView{&frame.back(), 1});
  const auto out = dec.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(to_string(*out), "split across reads");
}

TEST(Frame, MultipleFramesInOneFeed) {
  Bytes stream = encode_frame(to_bytes("one"));
  const Bytes second = encode_frame(to_bytes("two"));
  stream.insert(stream.end(), second.begin(), second.end());
  FrameDecoder dec;
  dec.feed(stream);
  EXPECT_EQ(to_string(*dec.next()), "one");
  EXPECT_EQ(to_string(*dec.next()), "two");
  EXPECT_FALSE(dec.next().has_value());
}

TEST(Frame, CorruptMagicThrows) {
  Bytes frame = encode_frame(to_bytes("x"));
  frame[0] = std::byte{0xFF};
  FrameDecoder dec;
  dec.feed(frame);
  EXPECT_THROW(dec.next(), Error);
}

TEST(Frame, CorruptPayloadFailsCrc) {
  Bytes frame = encode_frame(to_bytes("payload"));
  frame[kFrameHeaderSize] ^= std::byte{0x01};
  FrameDecoder dec;
  dec.feed(frame);
  EXPECT_THROW(dec.next(), Error);
}

TEST(Loopback, FifoOrder) {
  auto [a, b] = make_loopback_pair();
  for (int i = 0; i < 100; ++i)
    a->send(to_bytes("msg" + std::to_string(i)));
  for (int i = 0; i < 100; ++i) {
    const auto msg = b->try_recv();
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(to_string(*msg), "msg" + std::to_string(i));
  }
  EXPECT_FALSE(b->try_recv().has_value());
}

TEST(Loopback, Duplex) {
  auto [a, b] = make_loopback_pair();
  a->send(to_bytes("ping"));
  b->send(to_bytes("pong"));
  EXPECT_EQ(to_string(*b->try_recv()), "ping");
  EXPECT_EQ(to_string(*a->try_recv()), "pong");
}

TEST(Loopback, RecvForTimesOut) {
  auto [a, b] = make_loopback_pair();
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(b->recv_for(30ms).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - t0, 25ms);
  (void)a;
}

TEST(Loopback, RecvForWakesOnSend) {
  auto pair = make_loopback_pair();
  auto sender = std::async(std::launch::async, [&] {
    std::this_thread::sleep_for(20ms);
    pair.a->send(to_bytes("late"));
  });
  const auto msg = pair.b->recv_for(2000ms);
  sender.get();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(to_string(*msg), "late");
}

TEST(Loopback, SendOnClosedThrows) {
  auto [a, b] = make_loopback_pair();
  b->close();
  EXPECT_THROW(a->send(to_bytes("x")), Error);
}

TEST(Loopback, StatsCount) {
  auto [a, b] = make_loopback_pair();
  a->send(to_bytes("abcd"));
  (void)b->try_recv();
  EXPECT_EQ(a->stats().messages_sent, 1u);
  EXPECT_EQ(a->stats().bytes_sent, 4u);
  EXPECT_EQ(b->stats().messages_received, 1u);
}

TEST(Tcp, ConnectSendReceive) {
  TcpListener listener(0);
  auto client_future = std::async(std::launch::async, [&] {
    return tcp_connect(listener.port());
  });
  LinkPtr server = listener.accept();
  LinkPtr client = client_future.get();

  client->send(to_bytes("over tcp"));
  const auto msg = server->recv_for(2000ms);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(to_string(*msg), "over tcp");

  server->send(to_bytes("reply"));
  const auto reply = client->recv_for(2000ms);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(to_string(*reply), "reply");
}

TEST(Tcp, ManySmallMessagesKeepOrder) {
  TcpListener listener(0);
  auto client_future = std::async(std::launch::async, [&] {
    return tcp_connect(listener.port());
  });
  LinkPtr server = listener.accept();
  LinkPtr client = client_future.get();

  constexpr int kCount = 500;
  for (int i = 0; i < kCount; ++i)
    client->send(to_bytes(std::to_string(i)));
  for (int i = 0; i < kCount; ++i) {
    const auto msg = server->recv_for(2000ms);
    ASSERT_TRUE(msg.has_value()) << "lost message " << i;
    EXPECT_EQ(to_string(*msg), std::to_string(i));
  }
}

TEST(Tcp, LargeMessage) {
  TcpListener listener(0);
  auto client_future = std::async(std::launch::async, [&] {
    return tcp_connect(listener.port());
  });
  LinkPtr server = listener.accept();
  LinkPtr client = client_future.get();

  Rng rng(3);
  Bytes big(256 * 1024);
  for (auto& b : big) b = static_cast<std::byte>(rng.below(256));
  client->send(big);
  const auto msg = server->recv_for(5000ms);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(*msg, big);
}

/// A loopback pipe whose fault plan carries only `model` (and `seed`).
LinkPair latency_pair(LatencyModel model, std::uint64_t seed = 1) {
  FaultPlan plan;
  plan.seed = seed;
  plan.latency = model;
  return make_fault_pair(plan);
}

TEST(Latency, DelaysDelivery) {
  auto pair = latency_pair(LatencyModel{.base = 50ms});
  pair.a->send(to_bytes("slow"));
  // Not visible immediately...
  EXPECT_FALSE(pair.b->try_recv().has_value());
  // ...but visible after the modeled delay.
  const auto t0 = std::chrono::steady_clock::now();
  const auto msg = pair.b->recv_for(2000ms);
  const auto waited = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(to_string(*msg), "slow");
  EXPECT_GE(waited, 40ms);
}

TEST(Latency, PerByteCostScales) {
  auto pair = latency_pair(
      LatencyModel{.per_byte = std::chrono::nanoseconds(20000)});  // 20 us/B
  pair.a->send(Bytes(1000));  // => ~20 ms
  const auto t0 = std::chrono::steady_clock::now();
  const auto msg = pair.b->recv_for(2000ms);
  const auto waited = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(msg.has_value());
  EXPECT_GE(waited, 15ms);
}

TEST(Latency, JitterPreservesFifo) {
  auto pair = latency_pair(LatencyModel{.base = 1ms, .jitter_max = 5ms}, 99);
  for (int i = 0; i < 50; ++i)
    pair.a->send(to_bytes(std::to_string(i)));
  for (int i = 0; i < 50; ++i) {
    const auto msg = pair.b->recv_for(2000ms);
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(to_string(*msg), std::to_string(i));
  }
}

// Connects a raw (frameless) socket so a test can inject partial frames and
// die mid-send, like a peer crashing.
int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

TEST(Tcp, ConnectFailureReportsConnectErrno) {
  // A port nothing listens on: bind one ephemerally, then close it.
  std::uint16_t dead_port = 0;
  {
    TcpListener probe(0);
    dead_port = probe.port();
  }
  try {
    tcp_connect(dead_port, /*deadline=*/std::chrono::milliseconds(0));
    FAIL() << "connect to a dead port must throw";
  } catch (const Error& e) {
    // Regression: the fd was closed before raising, so the message carried
    // close()'s errno ("Success") instead of the refused connection.
    const std::string message = e.what();
    EXPECT_NE(message.find("connect"), std::string::npos) << message;
    EXPECT_NE(message.find(std::strerror(ECONNREFUSED)), std::string::npos)
        << message;
  }
}

TEST(Tcp, PeerDeathMidFrameReportsClosed) {
  TcpListener listener(0);
  auto raw = std::async(std::launch::async,
                        [&] { return raw_connect(listener.port()); });
  LinkPtr server = listener.accept();
  const int fd = raw.get();

  const Bytes frame = encode_frame(to_bytes("never finished"));
  ASSERT_GT(frame.size(), 3u);
  ASSERT_EQ(::send(fd, frame.data(), frame.size() - 3, MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size() - 3));
  ::close(fd);

  EXPECT_FALSE(server->recv_for(2000ms).has_value());
  // Regression: with the fd dead but partial bytes buffered, closed()
  // returned false forever and pollers spun on the residue.
  EXPECT_TRUE(server->closed());
}

TEST(Tcp, CompleteFrameBufferedAtPeerDeathIsStillDelivered) {
  TcpListener listener(0);
  auto raw = std::async(std::launch::async,
                        [&] { return raw_connect(listener.port()); });
  LinkPtr server = listener.accept();
  const int fd = raw.get();

  // One whole frame followed by a truncated one, then the peer dies.
  Bytes stream = encode_frame(to_bytes("last words"));
  const Bytes partial = encode_frame(to_bytes("cut off"));
  stream.insert(stream.end(), partial.begin(), partial.end() - 3);
  ASSERT_EQ(::send(fd, stream.data(), stream.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(stream.size()));
  ::close(fd);

  const auto msg = server->recv_for(2000ms);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(to_string(*msg), "last words");
  EXPECT_FALSE(server->recv_for(100ms).has_value());
  EXPECT_TRUE(server->closed());
}

TEST(Tcp, RecvForHugeTimeoutDoesNotOverflowPoll) {
  TcpListener listener(0);
  auto client_future = std::async(std::launch::async, [&] {
    return tcp_connect(listener.port());
  });
  LinkPtr server = listener.accept();
  LinkPtr client = client_future.get();

  auto sender = std::async(std::launch::async, [&] {
    std::this_thread::sleep_for(50ms);
    client->send(to_bytes("eventually"));
  });
  // Regression: > INT_MAX ms wrapped negative in the narrowing cast, putting
  // the deadline in the past — recv_for returned nullopt immediately instead
  // of waiting, so this receive failed.
  const auto msg = server->recv_for(std::chrono::milliseconds(
      static_cast<std::int64_t>(std::numeric_limits<int>::max()) + 1));
  sender.get();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(to_string(*msg), "eventually");
}

TEST(Fault, ChaosPreservesFifoExactlyOnce) {
  auto pair = make_fault_pair(FaultPlan::chaos(7));
  constexpr int kCount = 200;
  for (int i = 0; i < kCount; ++i)
    pair.a->send(to_bytes(std::to_string(i)));
  for (int i = 0; i < kCount; ++i) {
    const auto msg = pair.b->recv_for(5000ms);
    ASSERT_TRUE(msg.has_value()) << "lost message " << i;
    EXPECT_EQ(to_string(*msg), std::to_string(i));
  }
  EXPECT_FALSE(pair.b->try_recv().has_value());
  // The plan actually did something.
  const LinkStats stats = pair.a->stats();
  EXPECT_GT(stats.faults_delayed + stats.faults_duplicated +
                stats.faults_dropped + stats.faults_partition_held,
            0u);
}

TEST(Fault, DuplicatesAreDiscardedBySequence) {
  FaultPlan plan;
  plan.seed = 11;
  plan.dup_probability = 1.0;  // every frame transmitted twice
  auto pair = make_fault_pair(plan);
  for (int i = 0; i < 20; ++i)
    pair.a->send(to_bytes(std::to_string(i)));
  for (int i = 0; i < 20; ++i) {
    const auto msg = pair.b->recv_for(2000ms);
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(to_string(*msg), std::to_string(i));
  }
  EXPECT_FALSE(pair.b->try_recv().has_value());
  EXPECT_EQ(pair.a->stats().faults_duplicated, 20u);
  EXPECT_EQ(pair.b->stats().faults_dup_discarded, 20u);
}

TEST(Fault, DropIsRetriedNotLost) {
  FaultPlan plan;
  plan.seed = 3;
  plan.drop_probability = 1.0;
  plan.retry_delay = std::chrono::microseconds(50'000);
  auto pair = make_fault_pair(plan);
  pair.a->send(to_bytes("resent"));
  // The first transmission was "lost": nothing visible immediately...
  EXPECT_FALSE(pair.b->try_recv().has_value());
  // ...but the retransmission delivers it, in order, without loss.
  const auto t0 = std::chrono::steady_clock::now();
  const auto msg = pair.b->recv_for(2000ms);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(to_string(*msg), "resent");
  EXPECT_GE(std::chrono::steady_clock::now() - t0, 40ms);
  EXPECT_EQ(pair.a->stats().faults_dropped, 1u);
}

TEST(Fault, PartitionHoldsTrafficUntilHeal) {
  auto pair = make_fault_pair(FaultPlan::partition(5, 0ms, 80ms));
  pair.a->send(to_bytes("across the partition"));
  EXPECT_FALSE(pair.b->try_recv().has_value());
  const auto t0 = std::chrono::steady_clock::now();
  const auto msg = pair.b->recv_for(2000ms);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(to_string(*msg), "across the partition");
  EXPECT_GE(std::chrono::steady_clock::now() - t0, 50ms);
  EXPECT_EQ(pair.a->stats().faults_partition_held, 1u);
}

TEST(Fault, AbruptCloseBehavesLikePeerCrash) {
  FaultPlan plan;
  plan.seed = 2;
  plan.close_after_sends = 2;
  auto inner = make_loopback_pair();
  auto a = make_fault_link(std::move(inner.a), plan);
  auto& b = inner.b;

  a->send(to_bytes("one"));
  a->send(to_bytes("two"));
  EXPECT_THROW(a->send(to_bytes("three")), Error);
  EXPECT_TRUE(a->closed());
  EXPECT_EQ(a->stats().faults_abrupt_closes, 1u);

  // The peer drains what made it out, then observes the close.
  EXPECT_TRUE(b->recv_for(2000ms).has_value());
  EXPECT_TRUE(b->recv_for(2000ms).has_value());
  EXPECT_FALSE(b->recv_for(50ms).has_value());
  EXPECT_TRUE(b->closed());
}

TEST(Fault, SameSeedSameFaults) {
  for (int round = 0; round < 2; ++round) {
    static LinkStats first;
    auto pair = make_fault_pair(FaultPlan::chaos(42));
    for (int i = 0; i < 50; ++i)
      pair.a->send(to_bytes(std::to_string(i)));
    for (int i = 0; i < 50; ++i)
      ASSERT_TRUE(pair.b->recv_for(5000ms).has_value());
    const LinkStats stats = pair.a->stats();
    if (round == 0) {
      first = stats;
    } else {
      EXPECT_EQ(stats.faults_delayed, first.faults_delayed);
      EXPECT_EQ(stats.faults_duplicated, first.faults_duplicated);
      EXPECT_EQ(stats.faults_dropped, first.faults_dropped);
    }
  }
}

TEST(Fault, RecvForWaitsOutTheFullTimeout) {
  // Regression: the remaining wait was truncated to whole milliseconds for
  // the inner link, so a quiet recv_for(3ms) gave up after about 2 ms.
  auto pair = make_fault_pair(FaultPlan{});
  for (const auto timeout : {1ms, 3ms}) {
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(pair.b->recv_for(timeout).has_value());
    EXPECT_GE(std::chrono::steady_clock::now() - t0, timeout);
  }
}

#ifdef __linux__
// Timer slack: Linux ends a timed sleep up to the thread's slack late (50 µs
// by default), so every library sleep runs with 1 ns.  These tests read the
// slack back instead of timing the wake-up, which would flake under load.

constexpr unsigned long kDefaultSlackNs = 50'000;

unsigned long timer_slack() {
  return static_cast<unsigned long>(
      ::prctl(PR_GET_TIMERSLACK, 0UL, 0UL, 0UL, 0UL));
}

/// Runs `body` on a fresh thread whose slack starts at the Linux default and
/// returns the thread's slack afterwards.  (A new thread inherits its
/// creator's slack, which an earlier library sleep may have lowered.)
unsigned long slack_after(const std::function<void()>& body) {
  unsigned long slack = 0;
  std::thread thread([&] {
    ::prctl(PR_SET_TIMERSLACK, kDefaultSlackNs, 0UL, 0UL, 0UL);
    ASSERT_EQ(timer_slack(), kDefaultSlackNs);
    body();
    slack = timer_slack();
  });
  thread.join();
  return slack;
}

TEST(TimerSlack, PollUntilSleepsWithOneNanosecondSlack) {
  // A past deadline is a non-blocking check and leaves the thread alone...
  const unsigned long after_check = slack_after(
      [] { poll_until({}, std::chrono::steady_clock::now() - 1ms); });
  EXPECT_EQ(after_check, kDefaultSlackNs);
  // ...a future one sleeps, and the thread keeps 1 ns slack afterwards.
  const unsigned long after_sleep = slack_after(
      [] { poll_until({}, std::chrono::steady_clock::now() + 1ms); });
  EXPECT_EQ(after_sleep, 1u);
}

TEST(TimerSlack, FaultLinkReleaseWaitSleepsWithOneNanosecondSlack) {
  // Both ways recv_for waits on a parked frame: out to its release stamp,
  // and out to the caller's deadline when the stamp lies beyond it.  (The
  // first arm assumes the thread gets from send to recv_for within 250 ms.)
  auto pair = latency_pair(LatencyModel{.base = 250ms});
  const unsigned long to_stamp = slack_after([&] {
    pair.a->send(to_bytes("hop"));
    const auto msg = pair.b->recv_for(5000ms);
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(to_string(*msg), "hop");
  });
  EXPECT_EQ(to_stamp, 1u);

  auto far = latency_pair(LatencyModel{.base = 60s});
  far.a->send(to_bytes("late"));
  const unsigned long to_deadline =
      slack_after([&] { EXPECT_FALSE(far.b->recv_for(2ms).has_value()); });
  EXPECT_EQ(to_deadline, 1u);
}

TEST(TimerSlack, FaultLinkNeverReleasesAFrameBeforeItsStamp) {
  // With 1 ns slack a wait ends closer to its deadline; it must still never
  // end before it.  Lower bounds only: each frame's stamp is at least its
  // send time plus the base latency.  Odd frames go through try_recv.
  auto pair = latency_pair(LatencyModel{.base = 2ms, .jitter_max = 1ms}, 7);
  const unsigned long slack = slack_after([&] {
    for (int i = 0; i < 20; ++i) {
      const auto sent = std::chrono::steady_clock::now();
      pair.a->send(to_bytes(std::to_string(i)));
      std::optional<Bytes> msg;
      if (i % 2 == 0) {
        msg = pair.b->recv_for(5000ms);
      } else {
        while (!(msg = pair.b->try_recv()))
          poll_until({}, std::chrono::steady_clock::now() + 50us);
      }
      ASSERT_TRUE(msg.has_value()) << "lost frame " << i;
      EXPECT_EQ(to_string(*msg), std::to_string(i));
      EXPECT_GE(std::chrono::steady_clock::now() - sent, 2ms)
          << "frame " << i << " released before its stamp";
    }
  });
  EXPECT_EQ(slack, 1u);
}
#endif

TEST(Fault, TcpLinkCanBeDecorated) {
  TcpListener listener(0);
  const FaultPlan plan = FaultPlan::chaos(13);
  auto client_future = std::async(std::launch::async, [&] {
    return make_fault_link(tcp_connect(listener.port()),
                           plan.for_endpoint(1));
  });
  auto server = make_fault_link(listener.accept(), plan.for_endpoint(2));
  auto client = client_future.get();
  for (int i = 0; i < 40; ++i)
    client->send(to_bytes(std::to_string(i)));
  for (int i = 0; i < 40; ++i) {
    const auto msg = server->recv_for(5000ms);
    ASSERT_TRUE(msg.has_value()) << "lost message " << i;
    EXPECT_EQ(to_string(*msg), std::to_string(i));
  }
}

TEST(Latency, TcpLinkCanBeDecorated) {
  TcpListener listener(0);
  auto client_future = std::async(std::launch::async, [&] {
    return make_latency_link(tcp_connect(listener.port()),
                             LatencyModel{.base = 5ms});
  });
  auto server = make_latency_link(listener.accept(), LatencyModel{.base = 5ms});
  auto client = client_future.get();
  client->send(to_bytes("wan"));
  const auto msg = server->recv_for(2000ms);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(to_string(*msg), "wan");
}

}  // namespace
}  // namespace pia::transport

// ---------------------------------------------------------------------------
// Mode-negotiation wire format (adaptive synchronization handshake)
// ---------------------------------------------------------------------------

namespace pia::dist {
namespace {

TEST(ModeWire, ProposalRoundTrip) {
  const ModeProposalMsg in{
      .nonce = (std::uint64_t{7} << 32) | 42,
      .epoch = 3,
      .target = static_cast<std::uint8_t>(ChannelMode::kOptimistic)};
  const auto out = std::get<ModeProposalMsg>(decode_message(encode_message(in)));
  EXPECT_EQ(out.nonce, in.nonce);
  EXPECT_EQ(out.epoch, in.epoch);
  EXPECT_EQ(out.target, in.target);
}

TEST(ModeWire, AckCommitResumeRoundTrip) {
  const ModeAckMsg ack{.nonce = 9, .phase = 1, .accept = true, .reason = 0};
  const auto ack_out = std::get<ModeAckMsg>(decode_message(encode_message(ack)));
  EXPECT_EQ(ack_out.nonce, 9u);
  EXPECT_EQ(ack_out.phase, 1);
  EXPECT_TRUE(ack_out.accept);

  const ModeCommitMsg commit{.nonce = 9, .token = 4};
  const auto commit_out =
      std::get<ModeCommitMsg>(decode_message(encode_message(commit)));
  EXPECT_EQ(commit_out.nonce, 9u);
  EXPECT_EQ(commit_out.token, 4u);

  const ModeResumeMsg resume{.nonce = 9};
  const auto resume_out =
      std::get<ModeResumeMsg>(decode_message(encode_message(resume)));
  EXPECT_EQ(resume_out.nonce, 9u);
}

TEST(ModeWire, HandshakeMessagesAreControlMessages) {
  // The termination probe balances event+retract counters; handshake
  // traffic must not disturb that ledger.
  EXPECT_TRUE(is_control_message(ChannelMessage{ModeProposalMsg{}}));
  EXPECT_TRUE(is_control_message(ChannelMessage{ModeAckMsg{}}));
  EXPECT_TRUE(is_control_message(ChannelMessage{ModeCommitMsg{}}));
  EXPECT_TRUE(is_control_message(ChannelMessage{ModeResumeMsg{}}));
}

// Drives two facades' run loops by hand until both go idle (no events are
// scheduled in these tests, so all progress is protocol traffic).
void pump(Subsystem& a, Subsystem& b) {
  const Subsystem::RunConfig cfg{};
  int quiet = 0;
  for (int i = 0; i < 400 && quiet < 8; ++i) {
    bool pa = false;
    bool pb = false;
    a.run_slice(cfg, pa);
    b.run_slice(cfg, pb);
    quiet = (pa || pb) ? 0 : quiet + 1;
  }
}

struct FacadePair {
  Subsystem a{"adapt_a", 1};
  Subsystem b{"adapt_b", 2};
  ChannelId ca;
  ChannelId cb;

  explicit FacadePair(ChannelMode mode) {
    auto link = transport::make_loopback_pair();
    ca = a.add_channel("ab", mode, std::move(link.a));
    cb = b.add_channel("ab", mode, std::move(link.b));
    a.start();
    b.start();
  }
};

TEST(ModeNegotiation, PeerWithoutCapabilityRejectsAndChannelStaysFixed) {
  FacadePair pair(ChannelMode::kConservative);
  // Only one side opts in: the peer must answer "unsupported" and the
  // channel must keep its configured mode on BOTH endpoints.
  pair.a.set_adaptive_sync();
  pair.a.request_mode_change(pair.ca, ChannelMode::kOptimistic);
  pump(pair.a, pair.b);

  EXPECT_EQ(pair.a.channel(pair.ca).mode(), ChannelMode::kConservative);
  EXPECT_EQ(pair.b.channel(pair.cb).mode(), ChannelMode::kConservative);
  EXPECT_EQ(pair.a.channel(pair.ca).mode_epoch(), 0u);
  EXPECT_EQ(pair.b.channel(pair.cb).mode_epoch(), 0u);
  EXPECT_EQ(pair.a.stats().proposals_sent, 1u);
  EXPECT_EQ(pair.a.stats().mode_changes, 0u);
  EXPECT_EQ(pair.b.stats().proposals_rejected, 1u);
  // The "unsupported" answer is remembered: no re-proposal storm.
  pump(pair.a, pair.b);
  EXPECT_EQ(pair.a.stats().proposals_sent, 1u);
}

TEST(ModeNegotiation, ForcedFlipLandsOnBothEndpointsAtTheCut) {
  FacadePair pair(ChannelMode::kConservative);
  pair.a.set_adaptive_sync();
  pair.b.set_adaptive_sync();
  pair.a.request_mode_change(pair.ca, ChannelMode::kOptimistic);
  pump(pair.a, pair.b);

  EXPECT_EQ(pair.a.channel(pair.ca).mode(), ChannelMode::kOptimistic);
  EXPECT_EQ(pair.b.channel(pair.cb).mode(), ChannelMode::kOptimistic);
  // The epoch fence advanced in lockstep.
  EXPECT_EQ(pair.a.channel(pair.ca).mode_epoch(), 1u);
  EXPECT_EQ(pair.b.channel(pair.cb).mode_epoch(), 1u);
  EXPECT_EQ(pair.a.stats().mode_changes, 1u);
  EXPECT_EQ(pair.b.stats().mode_changes, 1u);
  EXPECT_EQ(pair.a.stats().mode_changes, 1u);

  // And back again, symmetrically, proposed from the other side.
  pair.b.request_mode_change(pair.cb, ChannelMode::kConservative);
  pump(pair.a, pair.b);
  EXPECT_EQ(pair.a.channel(pair.ca).mode(), ChannelMode::kConservative);
  EXPECT_EQ(pair.b.channel(pair.cb).mode(), ChannelMode::kConservative);
  EXPECT_EQ(pair.a.channel(pair.ca).mode_epoch(), 2u);
  EXPECT_EQ(pair.b.channel(pair.cb).mode_epoch(), 2u);
}

// ---------------------------------------------------------------------------
// Channel wiring: one release-delay decorator per endpoint
// ---------------------------------------------------------------------------

TEST(Latency, ConnectStacksOneDecoratorPerEndpoint) {
  using namespace std::chrono_literals;
  // connect() folds the WAN latency model and the fault plan into a single
  // FaultLink per endpoint, so each frame waits out one release deadline.
  Subsystem a{"lat_a", 1};
  Subsystem b{"lat_b", 2};
  const transport::LatencyModel wan{.base = 20ms};
  const ChannelPair chans =
      connect(a, b, ChannelMode::kConservative, Wire::kLoopback, wan,
              transport::FaultPlan::jitter(5, 2000us));
  transport::Link& tx = a.channel(chans.a).link();
  transport::Link& rx = b.channel(chans.b).link();
  EXPECT_EQ(tx.describe(), "loopback+fault");
  EXPECT_EQ(rx.describe(), "loopback+fault");

  constexpr int kFrames = 20;
  std::vector<std::chrono::steady_clock::time_point> sent_at;
  for (int i = 0; i < kFrames; ++i) {
    sent_at.push_back(std::chrono::steady_clock::now());
    tx.send(to_bytes(std::to_string(i)));
  }
  for (int i = 0; i < kFrames; ++i) {
    const auto msg = rx.recv_for(5000ms);
    ASSERT_TRUE(msg.has_value()) << "lost frame " << i;
    EXPECT_EQ(to_string(*msg), std::to_string(i)) << "FIFO violated";
    EXPECT_GE(std::chrono::steady_clock::now() - sent_at[i], wan.base)
        << "frame " << i << " released early";
  }
  // The reverse direction carries the same model.
  const auto back_sent = std::chrono::steady_clock::now();
  rx.send(to_bytes("back"));
  const auto back = tx.recv_for(5000ms);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(to_string(*back), "back");
  EXPECT_GE(std::chrono::steady_clock::now() - back_sent, wan.base);
}

}  // namespace
}  // namespace pia::dist
