// pia_bench: runs one Pia benchmark workload for a fixed wall-clock budget and
// prints one JSON record as its last line (see piabench/NOTES.md).
//
//   pia_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (all conservative, one process, at most three busy threads):
//   wubbleu_local   the whole WubbleU system in one Scheduler, chip at word
//                   passage; one closed-loop user loads 66 KB pages.
//   wubbleu_remote  Table 1's remote word row: handheld and chip+server on
//                   two subsystems over TCP with 100 us injected WAN latency.
//   scaleout_fanin  100 closed-loop clients, one channel each into a gateway
//                   frontend, one shard, every node on a one-worker pool.
//
// A run is a sequence of sessions.  Each session builds the system (timed as
// set-up), runs it to quiescence (timed as the run), then checks every page
// load or fetch against the single-host oracle computed before timing
// starts.  --trace 0 reports the end-to-end metrics; --trace 1 spends half
// the budget untraced and half traced and reports per-layer accounts, taken
// from outside the library by timing calls into each module's public
// functions.
//
// The host is shared, and its speed changes by nearly 2x within seconds.  So a
// calibration kernel is timed around every session, and on the workloads
// whose sessions are pure computation the times are scaled to a reference
// host speed (see host_slowdown()).
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "base/error.hpp"
#include "dist/node.hpp"
#include "obs/json.hpp"
#include "transport/latency.hpp"
#include "wubbleu/scaleout.hpp"
#include "wubbleu/system.hpp"

using namespace pia;
using namespace std::chrono_literals;

namespace {

using Clock = std::chrono::steady_clock;
using RunOutcome = dist::Subsystem::RunOutcome;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

/// Peak resident set of this process image, from the kernel's VmHWM.
/// (getrusage's ru_maxrss would do, but exec carries the launching
/// process's peak over into it.)
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  PIA_CHECK(status != nullptr, "cannot read /proc/self/status");
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr)
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  std::fclose(status);
  PIA_CHECK(kib > 0, "no VmHWM in /proc/self/status");
  return kib / 1024.0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

// ---------------------------------------------------------------------------
// Host speed
// ---------------------------------------------------------------------------

/// Seconds the calibration kernel takes on a quiet 4-vCPU host (GCC 12.2,
/// Release).  Only the ratio to it matters: a host running at this speed
/// reports its times unchanged.
constexpr double kReferenceCalibrationS = 0.0075;

/// A fixed amount of work of the simulator's own kind -- a timed-event
/// priority queue, ordered-map lookups and small string allocations -- that
/// uses none of the simulator's code, so no change to it moves the result.
double calibration_kernel_s() {
  const Clock::time_point start = Clock::now();
  using Event = std::pair<std::uint64_t, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::map<std::uint32_t, std::string> table;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  std::uint64_t sum = 0;
  for (std::uint32_t i = 0; i < 20'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    queue.emplace(x % 1'000'000, i);
    table[static_cast<std::uint32_t>(x % 4096)] = std::to_string(x);
    if (queue.size() > 1024) {
      sum += queue.top().first;
      queue.pop();
    }
    sum += table.lower_bound(static_cast<std::uint32_t>(x >> 52))->second.size();
  }
  // Using the result keeps the compiler from dropping the work.
  PIA_CHECK(sum != 0, "calibration kernel computed nothing");
  return seconds_between(start, Clock::now());
}

/// How much slower than the reference host this one runs right now: the
/// median of a few calibration kernels over kReferenceCalibrationS.  Other
/// tenants of a shared host slow it by nearly 2x, for seconds to minutes.
double host_slowdown() {
  std::vector<double> samples;
  for (int i = 0; i < 5; ++i) samples.push_back(calibration_kernel_s());
  return median(samples) / kReferenceCalibrationS;
}

/// Runs the calling thread, and every thread it starts later, on core 0
/// only.  NodeExecutor pins one-worker pools there, so the calibration
/// kernel then times the core that did the work.
void pin_to_first_core() {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(0, &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
}

constexpr dist::Subsystem::RunConfig kRunConfig{.stall_timeout = 60'000ms};

// ---------------------------------------------------------------------------
// Accounts
// ---------------------------------------------------------------------------

/// Oracle comparison of one session: operations expected and how many of
/// them were missing or differed.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Host time per layer from a traced session, summed over subsystems.  The
/// `_s` fields are self times: link time spent inside a span is charged to
/// the transport layer, not to the span.
struct Layers {
  double core_s = 0;   // Scheduler::step / Subsystem::try_advance bursts
  double drain_s = 0;  // Subsystem::drain
  double push_s = 0;   // rest of Subsystem::run_slice (grants, status, probes)
  double send_s = 0;   // Link::send plus the batch flush that frames it
  double recv_s = 0;   // Link receive calls
  double wait_s = 0;   // ChannelSet::wait_any
  double thread_s = 0; // wall time of every driving thread
  std::uint64_t wait_calls = 0;
  std::uint64_t wait_empty = 0;  // the wait was followed by an empty drain

  Layers& operator+=(const Layers& o) {
    core_s += o.core_s;
    drain_s += o.drain_s;
    push_s += o.push_s;
    send_s += o.send_s;
    recv_s += o.recv_s;
    wait_s += o.wait_s;
    thread_s += o.thread_s;
    wait_calls += o.wait_calls;
    wait_empty += o.wait_empty;
    return *this;
  }
  [[nodiscard]] double covered_s() const {
    return core_s + drain_s + push_s + send_s + recv_s + wait_s;
  }
};

/// Counters read from the library's public stats after a session.
struct Counters {
  std::uint64_t events = 0;         // scheduler dispatches
  std::uint64_t frames_sent = 0;    // link frames
  std::uint64_t bytes_sent = 0;     // link payload bytes
  std::uint64_t messages_sent = 0;  // protocol messages in those frames
  std::uint64_t event_msgs = 0;     // EventMsgs sent
  std::uint64_t grants = 0;         // safe-time grants sent
  std::uint64_t requests = 0;       // safe-time requests sent
  std::uint64_t stalls = 0;         // loop iterations blocked on a grant

  Counters& operator+=(const Counters& o) {
    events += o.events;
    frames_sent += o.frames_sent;
    bytes_sent += o.bytes_sent;
    messages_sent += o.messages_sent;
    event_msgs += o.event_msgs;
    grants += o.grants;
    requests += o.requests;
    stalls += o.stalls;
    return *this;
  }
};

Counters subsystem_counters(const std::vector<dist::Subsystem*>& subsystems) {
  Counters c;
  for (dist::Subsystem* s : subsystems) {
    const dist::SubsystemStats stats = s->stats();
    c.events += s->scheduler().stats().events_dispatched;
    c.event_msgs += stats.events_sent;
    c.grants += stats.grants_sent;
    c.requests += stats.requests_sent;
    c.stalls += stats.stalls;
    for (const auto& channel : s->channel_set()) {
      const transport::LinkStats link = channel->link().stats();
      c.frames_sent += link.frames_sent;
      c.bytes_sent += link.bytes_sent;
      c.messages_sent += link.messages_sent;
    }
  }
  return c;
}

// ---------------------------------------------------------------------------
// Timing Link decorator
// ---------------------------------------------------------------------------

/// Adds the wall time of its scope to a nanosecond counter.
class ScopedTimer {
 public:
  explicit ScopedTimer(std::uint64_t& sink)
      : sink_(sink), start_(Clock::now()) {}
  ~ScopedTimer() {
    sink_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  std::uint64_t& sink_;
  Clock::time_point start_;
};

/// Forwards every Link virtual to the wrapped link and times the send and
/// receive calls.  Only the subsystem thread that owns the channel calls a
/// link, so the counters are plain; they are read after that thread joins.
class TimedLink final : public transport::Link {
 public:
  explicit TimedLink(transport::LinkPtr inner) : inner_(std::move(inner)) {}

  void send(BytesView frame, std::uint32_t message_count) override {
    const ScopedTimer timer(send_ns_);
    inner_->send(frame, message_count);
  }
  std::optional<Bytes> try_recv() override {
    const ScopedTimer timer(recv_ns_);
    return inner_->try_recv();
  }
  [[nodiscard]] bool supports_recv_view() const override {
    return inner_->supports_recv_view();
  }
  std::optional<BytesView> try_recv_view() override {
    const ScopedTimer timer(recv_ns_);
    return inner_->try_recv_view();
  }
  void release_recv_view() override {
    const ScopedTimer timer(recv_ns_);
    inner_->release_recv_view();
  }
  std::optional<Bytes> recv_for(std::chrono::milliseconds timeout) override {
    const ScopedTimer timer(recv_ns_);
    return inner_->recv_for(timeout);
  }
  void close() override { inner_->close(); }
  [[nodiscard]] bool closed() const override { return inner_->closed(); }
  [[nodiscard]] transport::LinkStats stats() const override {
    return inner_->stats();
  }
  [[nodiscard]] std::string describe() const override {
    return inner_->describe() + "+timed";
  }
  void set_ready_signal(transport::ReadySignalPtr signal) override {
    inner_->set_ready_signal(std::move(signal));
  }
  [[nodiscard]] int readable_fd() const override {
    return inner_->readable_fd();
  }
  [[nodiscard]] std::optional<Clock::time_point> next_ready_time()
      const override {
    return inner_->next_ready_time();
  }

  [[nodiscard]] std::uint64_t send_ns() const { return send_ns_; }
  [[nodiscard]] std::uint64_t recv_ns() const { return recv_ns_; }

 private:
  transport::LinkPtr inner_;
  std::uint64_t send_ns_ = 0;
  std::uint64_t recv_ns_ = 0;
};

/// Times one span of a traced loop and returns its self time: the span's
/// wall time minus the link time the decorator recorded inside it.
class Span {
 public:
  explicit Span(const TimedLink& link)
      : link_(link),
        start_(Clock::now()),
        link_ns_(link.send_ns() + link.recv_ns()) {}

  /// Self seconds since construction.
  [[nodiscard]] double self() const {
    const double inside =
        static_cast<double>(link_.send_ns() + link_.recv_ns() - link_ns_) *
        1e-9;
    return seconds_between(start_, Clock::now()) - inside;
  }

 private:
  const TimedLink& link_;
  Clock::time_point start_;
  std::uint64_t link_ns_;
};

/// Drives one subsystem to completion exactly as Subsystem::run does
/// (run_slice, then an idle wait on the channel set, with the same stall
/// timeout), splitting each slice into timed calls.  A bench-held FlushHold
/// spans the whole slice, so every message it emits still shares one frame.
RunOutcome traced_run(dist::Subsystem& sub, const TimedLink& link,
                      Layers& layers) {
  const Clock::time_point thread_start = Clock::now();
  Clock::time_point last_progress = thread_start;
  bool after_wait = false;
  std::optional<RunOutcome> outcome;
  while (!outcome) {
    bool progressed = false;
    {
      const Scheduler::ConfinementGuard confined(sub.scheduler());
      std::optional<dist::FlushHold> hold(std::in_place, sub.channel_set());

      const Span drain(link);
      progressed = sub.drain();
      layers.drain_s += drain.self();
      if (after_wait && !progressed) ++layers.wait_empty;
      after_wait = false;

      const Span burst(link);
      for (int i = 0; i < 256; ++i) {
        if (sub.try_advance(kRunConfig.horizon) !=
            dist::Subsystem::StepResult::kStepped)
          break;
        progressed = true;
      }
      layers.core_s += burst.self();

      const Span slice(link);
      bool slice_progressed = false;
      outcome = sub.run_slice(kRunConfig, slice_progressed);
      progressed |= slice_progressed;
      layers.push_s += slice.self();

      // Framing and sending the held batch is transport work, all of it.
      const Clock::time_point flush_start = Clock::now();
      const std::uint64_t send_before = link.send_ns();
      hold.reset();
      layers.send_s += seconds_between(flush_start, Clock::now()) -
                       static_cast<double>(link.send_ns() - send_before) * 1e-9;
    }
    if (outcome) break;
    if (progressed) {
      last_progress = Clock::now();
      continue;
    }
    const Span wait(link);
    const bool woke = sub.channel_set().wait_any(sub.idle_wait_hint());
    layers.wait_s += wait.self();
    ++layers.wait_calls;
    after_wait = true;
    if (woke) {
      last_progress = Clock::now();
      continue;
    }
    if (Clock::now() - last_progress > kRunConfig.stall_timeout)
      outcome = RunOutcome::kStalled;
  }
  layers.send_s += static_cast<double>(link.send_ns()) * 1e-9;
  layers.recv_s += static_cast<double>(link.recv_ns()) * 1e-9;
  layers.thread_s += seconds_between(thread_start, Clock::now());
  return *outcome;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One built system: set up by Workload::setup, then run once.
class Instance {
 public:
  virtual ~Instance() = default;
  /// Runs to quiescence; `layers` is null for an untraced run.
  virtual void run(Layers* layers) = 0;
  /// Compares the outputs with the oracle, or with a deliberately wrong
  /// copy of it when `wrong_oracle` is set (the check's own liveness test).
  [[nodiscard]] virtual Tally check(bool wrong_oracle) const = 0;
  [[nodiscard]] virtual Counters counters() = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual std::unique_ptr<Instance> setup(bool traced) = 0;
  /// Whether a session's wall time is host computation, which runs slower
  /// when the host does, rather than timed waits, which do not.
  [[nodiscard]] virtual bool host_bound() const { return true; }
};

bool all_quiescent(const std::map<std::string, RunOutcome>& outcomes) {
  for (const auto& [name, outcome] : outcomes)
    if (outcome != RunOutcome::kQuiescent) return false;
  return !outcomes.empty();
}

// --- WubbleU page sessions ---------------------------------------------------

/// A closed-loop browse session: `pages` loads of one page, chip at word
/// passage.  The stylus period is long enough that each URL finishes typing
/// after the previous page has loaded: with the default 200 k-tick period the
/// Ui requests the next page while the CPU still handles the last one, and a
/// long session aborts with a synchronous-delivery consistency error.
wubbleu::WubbleUConfig page_session(std::uint64_t seed, std::size_t page_bytes,
                                    std::size_t pages) {
  wubbleu::WubbleUConfig config;
  config.page.target_bytes = page_bytes;
  config.page.seed = seed;
  config.downlink_level = runlevels::kWord;
  config.urls.assign(pages, config.page.url);
  config.stroke_period = ticks(7'000'000);
  return config;
}

using Loads = std::vector<wubbleu::Ui::PageLoad>;

bool same_load(const wubbleu::Ui::PageLoad& a, const wubbleu::Ui::PageLoad& b) {
  return a.url == b.url && a.requested_at == b.requested_at &&
         a.completed_at == b.completed_at && a.body_bytes == b.body_bytes &&
         a.images == b.images;
}

/// Every expected load must be present and identical; a run that did not
/// end quiescent, or decoded an image wrongly, fails all of them.
Tally check_loads(const Loads& expected, const Loads& actual, bool healthy) {
  Tally t;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ++t.attempted;
    if (!healthy || i >= actual.size() || !same_load(expected[i], actual[i]))
      ++t.failed;
  }
  return t;
}

/// The single-host oracle: the same session in one Scheduler.  Its loads
/// must also match the page the gateway serves.
Loads reference_loads(const wubbleu::WubbleUConfig& config) {
  Scheduler sched("oracle");
  const wubbleu::WubbleUHandles h = wubbleu::build_local(sched, config);
  sched.init();
  sched.run();
  const wubbleu::HttpResponse page = wubbleu::make_page(config.page);
  Loads loads = h.ui->loads();
  PIA_CHECK(loads.size() == config.urls.size() &&
                h.cpu->image_pixel_errors() == 0,
            "oracle session did not load every page cleanly");
  for (const auto& load : loads)
    PIA_CHECK(load.body_bytes == page.body.size() &&
                  load.images == page.images.size() &&
                  load.completed_at > load.requested_at,
              "oracle load disagrees with the served page");
  return loads;
}

Loads wrong_copy(Loads loads) {
  loads.front().completed_at = loads.front().completed_at + ticks(1);
  return loads;
}

class LocalInstance final : public Instance {
 public:
  LocalInstance(const wubbleu::WubbleUConfig& config, const Loads& oracle)
      : oracle_(oracle), handles_(wubbleu::build_local(sched_, config)) {
    sched_.init();
  }

  void run(Layers* layers) override {
    if (layers == nullptr) {
      sched_.run();
      return;
    }
    const Clock::time_point start = Clock::now();
    while (sched_.step()) {
    }
    const double busy = seconds_between(start, Clock::now());
    layers->core_s += busy;
    layers->thread_s += busy;
  }

  [[nodiscard]] Tally check(bool wrong_oracle) const override {
    return check_loads(wrong_oracle ? wrong_copy(oracle_) : oracle_,
                       handles_.ui->loads(),
                       handles_.cpu->image_pixel_errors() == 0);
  }

  [[nodiscard]] Counters counters() override {
    Counters c;
    c.events = sched_.stats().events_dispatched;
    return c;
  }

 private:
  const Loads& oracle_;
  Scheduler sched_{"wubbleu"};
  wubbleu::WubbleUHandles handles_;
};

class LocalWorkload final : public Workload {
 public:
  explicit LocalWorkload(std::uint64_t seed)
      : config_(page_session(seed, 66 * 1024, 20)),
        oracle_(reference_loads(config_)) {}

  std::unique_ptr<Instance> setup(bool) override {
    return std::make_unique<LocalInstance>(config_, oracle_);
  }

 private:
  wubbleu::WubbleUConfig config_;
  Loads oracle_;
};

class RemoteInstance final : public Instance {
 public:
  RemoteInstance(const wubbleu::WubbleUConfig& config, const Loads& oracle,
                 bool traced)
      : oracle_(oracle),
        handheld_(
            cluster_.add_node("handheld-node").add_subsystem("handheld")),
        chip_(cluster_.add_node("chip-node").add_subsystem("chip")) {
    // The "Internet" of Fig. 1: TCP plus 100 us one-way latency, as in
    // bench_table1_wubbleu.
    const transport::LatencyModel wan{.base = 100us};
    dist::ChannelPair channels;
    if (!traced) {
      channels = cluster_.connect_checked(handheld_, chip_,
                                          dist::ChannelMode::kConservative,
                                          dist::Wire::kTcp, wan);
    } else {
      // connect_checked's wiring, with the timing decorator outermost.
      cluster_.register_logical_channel(handheld_.name(), chip_.name());
      transport::LinkPair pair = dist::make_wire_pair(dist::Wire::kTcp);
      auto a = std::make_unique<TimedLink>(
          transport::make_latency_link(std::move(pair.a), wan));
      auto b = std::make_unique<TimedLink>(
          transport::make_latency_link(std::move(pair.b), wan));
      links_ = {a.get(), b.get()};
      const std::string name = handheld_.name() + "<->" + chip_.name();
      channels.a = handheld_.add_channel(
          name, dist::ChannelMode::kConservative, std::move(a));
      channels.b =
          chip_.add_channel(name, dist::ChannelMode::kConservative,
                            std::move(b));
    }
    handles_ = wubbleu::build_distributed(handheld_, chip_, channels, config);
    // Declared reaction slack, as in bench_table1_wubbleu.
    handheld_.set_lookahead(channels.a, ticks(30'000));
    handheld_.set_reaction_lookahead(channels.a, ticks(30'000));
    chip_.set_lookahead(channels.b, ticks(100'000));
    chip_.set_reaction_lookahead(channels.b, ticks(100'000));
    cluster_.start_all();
  }

  void run(Layers* layers) override {
    if (layers == nullptr) {
      healthy_ = all_quiescent(cluster_.run_all(kRunConfig));
      return;
    }
    dist::Subsystem* subs[2] = {&handheld_, &chip_};
    Layers per_thread[2];
    RunOutcome outcomes[2] = {RunOutcome::kStalled, RunOutcome::kStalled};
    std::exception_ptr errors[2];
    {
      std::vector<std::jthread> threads;
      for (int i = 0; i < 2; ++i) {
        threads.emplace_back([&, i] {
          try {
            outcomes[i] = traced_run(*subs[i], *links_[i], per_thread[i]);
          } catch (...) {
            errors[i] = std::current_exception();
          }
        });
      }
    }
    for (const std::exception_ptr& e : errors)
      if (e) std::rethrow_exception(e);
    healthy_ = outcomes[0] == RunOutcome::kQuiescent &&
               outcomes[1] == RunOutcome::kQuiescent;
    *layers += per_thread[0];
    *layers += per_thread[1];
  }

  [[nodiscard]] Tally check(bool wrong_oracle) const override {
    return check_loads(wrong_oracle ? wrong_copy(oracle_) : oracle_,
                       handles_.ui->loads(),
                       healthy_ && handles_.cpu->image_pixel_errors() == 0);
  }

  [[nodiscard]] Counters counters() override {
    return subsystem_counters({&handheld_, &chip_});
  }

 private:
  const Loads& oracle_;
  dist::NodeCluster cluster_;
  dist::Subsystem& handheld_;
  dist::Subsystem& chip_;
  std::vector<TimedLink*> links_;  // owned by the channels; traced only
  wubbleu::WubbleUHandles handles_;
  bool healthy_ = false;
};

class RemoteWorkload final : public Workload {
 public:
  explicit RemoteWorkload(std::uint64_t seed)
      : config_(page_session(seed, 8 * 1024, 2)),
        oracle_(reference_loads(config_)) {}

  std::unique_ptr<Instance> setup(bool traced) override {
    return std::make_unique<RemoteInstance>(config_, oracle_, traced);
  }
  /// Timed waits on the wire govern a session, not computation.
  [[nodiscard]] bool host_bound() const override { return false; }

 private:
  wubbleu::WubbleUConfig config_;
  Loads oracle_;
};

// --- Scale-out fan-in --------------------------------------------------------

wubbleu::ScaleoutSpec fanin_spec(std::uint64_t seed) {
  wubbleu::ScaleoutSpec spec;
  spec.clients = 100;
  spec.shards = 1;
  spec.aggregated = false;
  spec.requests_per_client = 40;
  spec.catalog.pages = 64;
  spec.catalog.page_bytes = 512;
  spec.zipf_exponent = 1.1;
  spec.seed = seed;
  // One worker per node: NodeExecutor pins every one-worker pool to core 0,
  // so edge, frontend and shard share that core and the calibration kernel
  // times it.  A second edge worker on core 1 made the run depend on how
  // the host scheduled two busy cores.
  spec.worker_threads = 1;
  return spec;
}

class FaninInstance final : public Instance {
 public:
  FaninInstance(const wubbleu::ScaleoutSpec& spec,
                const wubbleu::ScaleoutResult& oracle)
      : oracle_(oracle), cluster_(spec) {}

  void run(Layers*) override {
    // The pooled executor cannot be driven from outside, so a traced run is
    // the untraced one; its per-layer record holds counters only.
    healthy_ = all_quiescent(cluster_.run(kRunConfig));
  }

  [[nodiscard]] Tally check(bool wrong_oracle) const override {
    wubbleu::ScaleoutResult expected = oracle_;
    if (wrong_oracle) expected.fetches.front().front().body_hash ^= 1;
    const wubbleu::ScaleoutResult actual = cluster_.result();
    Tally t;
    for (std::size_t c = 0; c < expected.fetches.size(); ++c) {
      for (std::size_t i = 0; i < expected.fetches[c].size(); ++i) {
        ++t.attempted;
        const bool present = c < actual.fetches.size() &&
                             i < actual.fetches[c].size();
        if (!healthy_ || !present ||
            !(actual.fetches[c][i] == expected.fetches[c][i]))
          ++t.failed;
      }
    }
    return t;
  }

  [[nodiscard]] Counters counters() override {
    return subsystem_counters(cluster_.cluster().all_subsystems());
  }

 private:
  const wubbleu::ScaleoutResult& oracle_;
  wubbleu::ScaleoutCluster cluster_;
  bool healthy_ = false;
};

class FaninWorkload final : public Workload {
 public:
  explicit FaninWorkload(std::uint64_t seed)
      : spec_(fanin_spec(seed)), oracle_(wubbleu::run_single_host(spec_)) {
    PIA_CHECK(oracle_.total_fetches() ==
                  spec_.clients * spec_.requests_per_client,
              "scale-out oracle is missing fetches");
  }

  std::unique_ptr<Instance> setup(bool) override {
    return std::make_unique<FaninInstance>(spec_, oracle_);
  }

 private:
  wubbleu::ScaleoutSpec spec_;
  wubbleu::ScaleoutResult oracle_;
};

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

/// Set-ups timed before the sessions, on top of each session's own.
constexpr int kExtraSetups = 15;

/// Samples are per session; rates are medians over sessions, so a session
/// slowed by another tenant of the host moves them little.  Set-up samples,
/// and on a host-bound workload the rate and CPU samples too, are scaled by
/// the host_slowdown() measured just before and just after them.
struct Measurement {
  std::vector<double> setup_s;
  std::vector<double> ops_per_s;      // oracle-checked operations per second
  std::vector<double> cpu_ms_per_op;  // process CPU per checked operation
  std::vector<double> raw_ops_per_s;  // as timed on this host, unadjusted
  std::vector<double> raw_cpu_ms_per_op;
  std::vector<double> raw_setup_s;
  std::vector<double> slowdown;       // host_slowdown() around each session
  std::vector<std::uint64_t> events;
  std::uint64_t sessions = 0;
  Tally tally;
  Counters counters;
  Layers layers;
  bool oracle_live = false;
};

/// Runs whole sessions until `budget_s` of wall time has passed (at least
/// one).  Only set-up and run are timed; oracle checks and tear-down are not.
Measurement measure(Workload& workload, double budget_s, bool traced) {
  Measurement m;
  double slowdown_before = host_slowdown();
  {
    std::vector<double> extra;
    for (int i = 0; i < kExtraSetups; ++i) {
      const Clock::time_point t0 = Clock::now();
      const std::unique_ptr<Instance> discarded = workload.setup(traced);
      extra.push_back(seconds_between(t0, Clock::now()));
    }
    const double slowdown_after = host_slowdown();
    const double slowdown = (slowdown_before + slowdown_after) / 2;
    for (const double s : extra) {
      m.setup_s.push_back(s / slowdown);
      m.raw_setup_s.push_back(s);
    }
    slowdown_before = slowdown_after;
  }
  const Clock::time_point start = Clock::now();
  std::unique_ptr<Instance> last;
  do {
    // Hand the last session's freed memory back, so the peak resident set
    // is the largest single session's, not an accumulation of allocator
    // arenas that differs from run to run.
    last.reset();
    malloc_trim(0);
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<Instance> instance = workload.setup(traced);
    const Clock::time_point t1 = Clock::now();
    const double cpu0 = cpu_seconds();
    instance->run(traced ? &m.layers : nullptr);
    const double cpu1 = cpu_seconds();
    const Clock::time_point t2 = Clock::now();
    const Tally t = instance->check(false);
    const double passed = static_cast<double>(t.attempted - t.failed);
    const double slowdown_after = host_slowdown();
    const double slowdown = (slowdown_before + slowdown_after) / 2;
    slowdown_before = slowdown_after;
    const double factor = workload.host_bound() ? slowdown : 1.0;
    const double raw_rate = passed / seconds_between(t1, t2);
    const double raw_cpu_ms = passed > 0 ? (cpu1 - cpu0) * 1e3 / passed : 0;
    m.setup_s.push_back(seconds_between(t0, t1) / slowdown);
    m.raw_setup_s.push_back(seconds_between(t0, t1));
    m.ops_per_s.push_back(raw_rate * factor);
    m.cpu_ms_per_op.push_back(raw_cpu_ms / factor);
    m.raw_ops_per_s.push_back(raw_rate);
    m.raw_cpu_ms_per_op.push_back(raw_cpu_ms);
    m.slowdown.push_back(slowdown);
    ++m.sessions;
    m.tally.attempted += t.attempted;
    m.tally.failed += t.failed;
    const Counters c = instance->counters();
    m.counters += c;
    m.events.push_back(c.events);
    last = std::move(instance);
  } while (seconds_between(start, Clock::now()) < budget_s);
  // The oracle check is live only if a deliberately wrong oracle fails it.
  m.oracle_live = last->check(true).failed > 0;
  return m;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

class JsonObject {
 public:
  JsonObject& add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return raw(key, buf);
  }
  JsonObject& add(const std::string& key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& add(const std::string& key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  JsonObject& add(const std::string& key, const std::string& value) {
    std::string quoted;
    obs::json_append_string(quoted, value);
    return raw(key, quoted);
  }
  JsonObject& add(const std::string& key, const JsonObject& value) {
    return raw(key, value.str());
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  JsonObject& raw(const std::string& key, const std::string& rendered) {
    if (!body_.empty()) body_ += ",";
    obs::json_append_string(body_, key);
    body_ += ":" + rendered;
    return *this;
  }
  std::string body_;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

JsonObject end_to_end(const Measurement& m) {
  JsonObject metrics;
  metrics.add("ops_per_s", median(m.ops_per_s))
      .add("setup_s", median(m.setup_s))
      .add("cpu_ms_per_op", median(m.cpu_ms_per_op))
      .add("peak_rss_mb", peak_rss_mb());
  return metrics;
}

/// Per-layer accounts of the traced half, per session (one session is the
/// workload's fixed input), so exact counters repeat exactly across runs.
JsonObject per_layer(const Measurement& untraced, const Measurement& traced) {
  const double n = static_cast<double>(traced.sessions);
  const Counters& c = traced.counters;
  const Layers& l = traced.layers;
  const auto per = [n](double v) { return v / n; };
  const auto per_op = [](const Measurement& m) {
    return ratio(1, median(m.ops_per_s));
  };
  JsonObject metrics;
  metrics.add("core.events", per(static_cast<double>(c.events)))
      .add("core.busy_s", per(l.core_s))
      .add("core.ns_per_event",
           ratio(l.core_s * 1e9, static_cast<double>(c.events)))
      .add("transport.frames_sent", per(static_cast<double>(c.frames_sent)))
      .add("transport.bytes_sent", per(static_cast<double>(c.bytes_sent)))
      .add("transport.msgs_per_frame",
           ratio(static_cast<double>(c.messages_sent),
                 static_cast<double>(c.frames_sent)))
      .add("transport.send_s", per(l.send_s))
      .add("transport.recv_s", per(l.recv_s))
      .add("sync.event_msgs", per(static_cast<double>(c.event_msgs)))
      .add("sync.grants", per(static_cast<double>(c.grants)))
      .add("sync.requests", per(static_cast<double>(c.requests)))
      .add("sync.grants_per_event_msg",
           ratio(static_cast<double>(c.grants),
                 static_cast<double>(c.event_msgs)))
      .add("sync.stalls", per(static_cast<double>(c.stalls)))
      .add("sync.drain_s", per(l.drain_s))
      .add("sync.push_s", per(l.push_s))
      .add("wait.s", per(l.wait_s))
      .add("wait.calls", per(static_cast<double>(l.wait_calls)))
      .add("wait.empty", per(static_cast<double>(l.wait_empty)))
      .add("wait.share", ratio(l.wait_s, l.thread_s))
      .add("trace.coverage", ratio(l.covered_s(), l.thread_s))
      .add("trace.overhead_frac",
           ratio(per_op(traced) - per_op(untraced), per_op(untraced)));
  return metrics;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || args.workload.empty() || !(args.seconds > 0))
    return std::nullopt;
  return args;
}

std::unique_ptr<Workload> make_workload(const Args& args) {
  if (args.workload == "wubbleu_local")
    return std::make_unique<LocalWorkload>(args.seed);
  if (args.workload == "wubbleu_remote")
    return std::make_unique<RemoteWorkload>(args.seed);
  if (args.workload == "scaleout_fanin")
    return std::make_unique<FaninWorkload>(args.seed);
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: pia_bench --workload <wubbleu_local|wubbleu_remote|"
                 "scaleout_fanin> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  wubbleu::raise_fd_limit();
  try {
    // The oracle is computed here, before any timed region.
    const std::unique_ptr<Workload> workload = make_workload(*args);
    if (!workload) {
      std::fprintf(stderr, "unknown workload '%s'\n", args->workload.c_str());
      return 2;
    }

    if (workload->host_bound()) pin_to_first_core();
    const double untraced_budget = args->trace ? args->seconds / 2 : args->seconds;
    const Measurement untraced = measure(*workload, untraced_budget, false);
    std::optional<Measurement> traced;
    if (args->trace) traced = measure(*workload, args->seconds / 2, true);

    Tally total = untraced.tally;
    bool oracle_live = untraced.oracle_live;
    std::vector<std::uint64_t> events = untraced.events;
    if (traced) {
      total.attempted += traced->tally.attempted;
      total.failed += traced->tally.failed;
      oracle_live = oracle_live && traced->oracle_live;
      events.insert(events.end(), traced->events.begin(), traced->events.end());
    }
    // Simulated results are deterministic: every session of a run, traced
    // or not, dispatches the same number of events.
    const bool events_repeat =
        std::adjacent_find(events.begin(), events.end(),
                           std::not_equal_to<>()) == events.end();

    JsonObject checks;
    checks.add("oracle_live", oracle_live).add("events_repeat", events_repeat);
    // This host's speed during the untraced sessions, and their times
    // before they were scaled by it.
    JsonObject host;
    host.add("slowdown", median(untraced.slowdown))
        .add("raw_ops_per_s", median(untraced.raw_ops_per_s))
        .add("raw_cpu_ms_per_op", median(untraced.raw_cpu_ms_per_op))
        .add("raw_setup_s", median(untraced.raw_setup_s));
    JsonObject record;
    record.add("workload", args->workload)
        .add("build_type", std::string(PIABENCH_BUILD_TYPE))
        .add("compiler", std::string(__VERSION__))
#ifdef NDEBUG
        .add("ndebug", true)
#else
        .add("ndebug", false)
#endif
        .add("sessions", untraced.sessions + (traced ? traced->sessions : 0))
        .add("attempted", total.attempted)
        .add("failed", total.failed)
        .add("checks", checks)
        .add("host", host)
        .add("correct", total.failed == 0 && oracle_live && events_repeat)
        .add("metrics",
             traced ? per_layer(untraced, *traced) : end_to_end(untraced));
    std::printf("%s\n", record.str().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pia_bench: %s\n", e.what());
    return 1;
  }
}
