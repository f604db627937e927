#include "transport/fault.hpp"

#include <algorithm>
#include <cstring>

#include "base/error.hpp"
#include "base/rng.hpp"
#include "transport/ready.hpp"

namespace pia::transport {
namespace {

using Clock = std::chrono::steady_clock;

// Per-frame header stamped by the sending side: a sequence number (for
// receiver-side dedup of duplicated frames) and a release deadline (for
// latency and delay faults; monotone per link, so FIFO survives).
constexpr std::size_t kHeaderSize =
    sizeof(std::uint64_t) + sizeof(std::int64_t);

class FaultLink final : public Link {
 public:
  FaultLink(LinkPtr inner, FaultPlan plan)
      : inner_(std::move(inner)),
        plan_(std::move(plan)),
        jitter_rng_(plan_.seed ^ 0xD1B54A32D192ED03ULL),
        drop_rng_(plan_.seed ^ 0x8CB92BA72F3D8DD7ULL),
        dup_rng_(plan_.seed ^ 0x2545F4914F6CDD1DULL),
        epoch_(Clock::now()) {}

  void send(BytesView message, std::uint32_t message_count = 1) override {
    if (plan_.close_after_sends > 0 && sends_ >= plan_.close_after_sends) {
      trip();
      raise(ErrorKind::kTransport,
            "fault link closed (injected abrupt close)");
    }
    if (crash_due()) {
      trip();
      raise(ErrorKind::kTransport, "fault link crashed (injected crash_at)");
    }
    ++sends_;
    ++frames_seen_;

    // One release deadline per frame: modelled WAN latency plus every
    // injected delay, then partitions, then the monotone floor.
    const LatencyModel& latency = plan_.latency;
    auto delay = std::chrono::duration_cast<Clock::duration>(latency.base) +
                 latency.per_byte * static_cast<std::int64_t>(message.size());
    if (latency.jitter_max.count() > 0) {
      delay += std::chrono::microseconds(jitter_rng_.below(
          static_cast<std::uint64_t>(latency.jitter_max.count())));
    }
    if (plan_.delay_jitter_max.count() > 0) {
      const auto extra = std::chrono::microseconds(jitter_rng_.below(
          static_cast<std::uint64_t>(plan_.delay_jitter_max.count()) + 1));
      if (extra.count() > 0)
        stats_.faults_delayed.fetch_add(1, std::memory_order_relaxed);
      delay += std::chrono::duration_cast<Clock::duration>(extra);
    }
    if (plan_.drop_probability > 0.0 &&
        drop_rng_.chance(plan_.drop_probability)) {
      // First transmission lost; model the retransmission as extra latency.
      stats_.faults_dropped.fetch_add(1, std::memory_order_relaxed);
      delay += std::chrono::duration_cast<Clock::duration>(plan_.retry_delay);
    }

    auto release = apply_partitions(Clock::now() + delay);
    // FIFO: release deadlines must be monotone even with random delays.
    if (release < send_floor_) release = send_floor_;
    send_floor_ = release;

    const std::uint64_t seq = ++send_seq_;
    const std::int64_t stamp = release.time_since_epoch().count();
    send_scratch_.resize(kHeaderSize + message.size());
    std::memcpy(send_scratch_.data(), &seq, sizeof(seq));
    std::memcpy(send_scratch_.data() + sizeof(seq), &stamp, sizeof(stamp));
    std::memcpy(send_scratch_.data() + kHeaderSize, message.data(),
                message.size());
    inner_->send(send_scratch_, message_count);
    if (plan_.dup_probability > 0.0 &&
        dup_rng_.chance(plan_.dup_probability)) {
      stats_.faults_duplicated.fetch_add(1, std::memory_order_relaxed);
      inner_->send(send_scratch_, message_count);
    }
    stats_.count_send(message_count, message.size());
  }

  std::optional<Bytes> try_recv() override {
    while (!pending_) {
      auto raw = inner_->try_recv();
      if (!raw) return std::nullopt;
      accept(std::move(*raw));
    }
    return release_if_due(/*may_wait=*/false, {});
  }

  std::optional<Bytes> recv_for(std::chrono::milliseconds timeout) override {
    const auto deadline = Clock::now() + timeout;
    for (;;) {
      while (!pending_) {
        // The inner link takes whole milliseconds: round what is left of
        // the wait up, so the inner wait never ends before `deadline`.
        const auto remaining =
            std::chrono::ceil<std::chrono::milliseconds>(deadline -
                                                         Clock::now());
        if (remaining.count() <= 0) return std::nullopt;
        auto raw = inner_->recv_for(remaining);
        if (!raw) return std::nullopt;
        accept(std::move(*raw));
      }
      auto out = release_if_due(/*may_wait=*/true, deadline);
      if (out) return out;
      if (Clock::now() >= deadline) return std::nullopt;
    }
  }

  void close() override { inner_->close(); }
  bool closed() const override { return tripped_ || inner_->closed(); }

  LinkStats stats() const override {
    // Logical (post-fault) message counts plus the fault counters; the
    // inner link's own stats would double-count duplicated frames.
    return stats_.snapshot();
  }

  std::string describe() const override {
    return inner_->describe() + "+fault";
  }

  void set_ready_signal(ReadySignalPtr signal) override {
    inner_->set_ready_signal(std::move(signal));
  }

  int readable_fd() const override { return inner_->readable_fd(); }
  void poll_fds(std::vector<pollfd>& fds) const override {
    inner_->poll_fds(fds);
  }

  std::optional<Clock::time_point> next_ready_time() const override {
    // A frame parked in pending_ matures silently at its release stamp —
    // report it so a unified waiter does not sleep past it.
    if (pending_) return Clock::time_point{Clock::duration{pending_stamp_}};
    return inner_->next_ready_time();
  }

 private:
  /// The injected crash_at fault is due: this endpoint has handled its
  /// allotted frames (both directions combined) and dies on the next one.
  [[nodiscard]] bool crash_due() const {
    return plan_.crash_at_frames > 0 && frames_seen_ >= plan_.crash_at_frames;
  }

  void trip() {
    if (tripped_) return;
    tripped_ = true;
    stats_.faults_abrupt_closes.fetch_add(1, std::memory_order_relaxed);
    inner_->close();
  }

  Clock::time_point apply_partitions(Clock::time_point release) {
    for (const FaultPlan::Partition& window : plan_.partitions) {
      const auto start = epoch_ + window.start;
      const auto end = start + window.duration;
      if (release >= start && release < end) {
        release = end;
        stats_.faults_partition_held.fetch_add(1, std::memory_order_relaxed);
      }
    }
    return release;
  }

  /// Parses a framed message; false when it was a duplicate (discarded).
  bool accept(Bytes raw) {
    if (raw.size() < kHeaderSize)
      raise(ErrorKind::kProtocol, "fault link header missing");
    std::uint64_t seq = 0;
    std::memcpy(&seq, raw.data(), sizeof(seq));
    if (seq <= recv_seq_) {  // FIFO inner link => duplicate, not reorder
      stats_.faults_dup_discarded.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (crash_due()) {
      // The crash lands mid-receive: the frame is lost with the process.
      trip();
      pending_.reset();
      return false;
    }
    ++frames_seen_;
    recv_seq_ = seq;
    std::memcpy(&pending_stamp_, raw.data() + sizeof(seq),
                sizeof(pending_stamp_));
    pending_ = Bytes(raw.begin() + kHeaderSize, raw.end());
    return true;
  }

  std::optional<Bytes> release_if_due(bool may_wait,
                                      Clock::time_point deadline) {
    if (!pending_) return std::nullopt;
    const Clock::time_point release{Clock::duration{pending_stamp_}};
    const auto now = Clock::now();
    if (release > now) {
      if (!may_wait) return std::nullopt;
      if (release > deadline) {
        poll_until({}, deadline);
        return std::nullopt;
      }
      poll_until({}, release);
    }
    Bytes out = std::move(*pending_);
    pending_.reset();
    stats_.count_recv(out.size());
    return out;
  }

  LinkPtr inner_;
  FaultPlan plan_;
  Rng jitter_rng_;
  Rng drop_rng_;
  Rng dup_rng_;
  Clock::time_point epoch_;
  Clock::time_point send_floor_{};
  std::uint64_t sends_ = 0;
  std::uint64_t frames_seen_ = 0;  // both directions, for crash_at_frames
  std::uint64_t send_seq_ = 0;
  std::uint64_t recv_seq_ = 0;
  bool tripped_ = false;
  std::optional<Bytes> pending_;
  std::int64_t pending_stamp_ = 0;
  Bytes send_scratch_;  // reused seq+stamp header assembly buffer
  // stats() may be read while another thread drives the send or recv path;
  // the counters are lock-free atomics so the read needs no mutex.
  AtomicLinkStats stats_;
};

}  // namespace

LinkPtr make_fault_link(LinkPtr inner, FaultPlan plan) {
  return std::make_unique<FaultLink>(std::move(inner), std::move(plan));
}

LinkPtr make_latency_link(LinkPtr inner, LatencyModel model) {
  FaultPlan plan;
  plan.latency = model;
  return make_fault_link(std::move(inner), std::move(plan));
}

LinkPair make_fault_pair(FaultPlan plan) {
  LinkPair pair = make_loopback_pair();
  return LinkPair{
      .a = make_fault_link(std::move(pair.a), plan.for_endpoint(1)),
      .b = make_fault_link(std::move(pair.b), plan.for_endpoint(2)),
  };
}

}  // namespace pia::transport
