// Determinism regression for the two-lane event queue.
//
// The scheduler's dispatch order — (time, seq), seq unique — is the anchor
// for checkpoint/rollback and the distributed fuzzer's single-host oracle.
// These tests drive EventQueue through randomized storms against the data
// structure it replaced (std::multiset) and require bit-identical behaviour
// through every operation the scheduler uses: push, pop, erase_if (and the
// drop_events_after cutoff built on it), sorted_snapshot and the
// clear-and-rebuild path replace_queue takes.  The pruned walk the
// conservative engine prices grants with, for_each_before, must visit
// exactly the events earlier than its bound.
//
// The queue splits pushes between a sorted run (in-order appends) and a
// heap (everything else).  The small-range storm mostly exercises the heap;
// the two-lane storm builds long monotone runs and mixes them with
// out-of-order pushes, equal-time ties across the lanes and far-future
// tails.  A streaming test checks that the run's consumed prefix is
// reclaimed, so storage follows the live event count.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <vector>

#include "base/rng.hpp"
#include "core/event_queue.hpp"
#include "core/scheduler.hpp"
#include "serial/archive.hpp"

namespace pia {
namespace {

Event make_event(VirtualTime time, std::uint64_t seq) {
  Event e;
  e.time = time;
  e.seq = seq;
  e.target = ComponentId{1};
  e.kind = EventKind::kWake;
  return e;
}

VirtualTime random_time(Rng& rng) {
  // A deliberately small range so simultaneous events (seq tie-breaks) are
  // common.
  return ticks(static_cast<VirtualTime::rep>(rng.below(40)));
}

TEST(EventQueue, RandomStormMatchesMultisetOracle) {
  Rng rng(0xE4E47u);
  for (int round = 0; round < 10; ++round) {
    EventQueue queue;
    std::multiset<Event> oracle;
    std::uint64_t next_seq = 0;

    for (int op = 0; op < 3000; ++op) {
      const std::uint64_t pick = rng.below(100);
      if (pick < 55 || oracle.empty()) {
        const Event e = make_event(random_time(rng), next_seq++);
        queue.push(e);
        oracle.insert(e);
      } else if (pick < 85) {
        const Event popped = queue.pop();
        const Event expected = *oracle.begin();
        oracle.erase(oracle.begin());
        ASSERT_EQ(popped.time, expected.time);
        ASSERT_EQ(popped.seq, expected.seq);
      } else if (pick < 93) {
        // The rollback shape: drop everything after a cutoff.
        const VirtualTime cutoff = random_time(rng);
        const auto pred = [cutoff](const Event& e) {
          return e.time > cutoff;
        };
        const std::size_t removed = queue.erase_if(pred);
        std::size_t expected_removed = 0;
        for (auto it = oracle.begin(); it != oracle.end();) {
          if (pred(*it)) {
            it = oracle.erase(it);
            ++expected_removed;
          } else {
            ++it;
          }
        }
        ASSERT_EQ(removed, expected_removed);
      } else {
        // The checkpoint shape: the snapshot must equal the multiset's
        // iteration order...
        const std::vector<Event> snap = queue.sorted_snapshot();
        ASSERT_EQ(snap.size(), oracle.size());
        std::size_t i = 0;
        for (const Event& e : oracle) {
          ASSERT_EQ(snap[i].time, e.time);
          ASSERT_EQ(snap[i].seq, e.seq);
          ++i;
        }
        // ...and rebuilding from it (the replace_queue path) must not
        // perturb anything downstream.
        if (rng.chance(0.3)) {
          queue.clear();
          for (const Event& e : snap) queue.push(e);
        }
      }
      if (!oracle.empty()) {
        ASSERT_EQ(queue.top().time, oracle.begin()->time);
        ASSERT_EQ(queue.top().seq, oracle.begin()->seq);
      }
    }

    // Full drain: pop order is exactly the multiset's iteration order.
    while (!oracle.empty()) {
      const Event popped = queue.pop();
      ASSERT_EQ(popped.time, oracle.begin()->time);
      ASSERT_EQ(popped.seq, oracle.begin()->seq);
      oracle.erase(oracle.begin());
    }
    EXPECT_TRUE(queue.empty());
  }
}

TEST(EventQueue, ForEachBeforeVisitsExactlyTheEarlierEvents) {
  Rng rng(0xB0B0u);
  for (int round = 0; round < 200; ++round) {
    EventQueue queue;
    std::uint64_t next_seq = 0;
    const int ops = static_cast<int>(rng.below(120));
    for (int op = 0; op < ops; ++op) {
      const std::uint64_t pick = rng.below(100);
      if (pick < 70 || queue.empty()) {
        queue.push(make_event(random_time(rng), next_seq++));
      } else if (pick < 90) {
        queue.pop();
      } else {
        const std::uint64_t mod = 2 + rng.below(4);
        queue.erase_if([mod](const Event& e) { return e.seq % mod == 0; });
      }
    }
    const std::vector<Event> all = queue.sorted_snapshot();
    for (int probe = 0; probe < 8; ++probe) {
      // Bounds below, inside and above the queued range, and infinity.
      const VirtualTime bound =
          probe == 7 ? VirtualTime::infinity()
                     : ticks(static_cast<VirtualTime::rep>(rng.below(45)));
      std::vector<Event> visited;
      queue.for_each_before(bound,
                            [&](const Event& e) { visited.push_back(e); });
      std::sort(visited.begin(), visited.end());
      std::vector<Event> expected;
      for (const Event& e : all)
        if (e.time < bound) expected.push_back(e);
      ASSERT_EQ(visited.size(), expected.size()) << "round " << round;
      for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(visited[i].time, expected[i].time);
        ASSERT_EQ(visited[i].seq, expected[i].seq);
      }
    }
  }
}

TEST(EventQueue, SchedulerQueueOpsPreserveDispatchOrder) {
  Scheduler sched;
  Rng rng(0x5EEDu);
  std::vector<Event> events;
  for (std::uint64_t k = 0; k < 500; ++k)
    events.push_back(make_event(random_time(rng), k));

  sched.replace_queue(events);
  std::vector<Event> snap = sched.snapshot_queue();
  ASSERT_EQ(snap.size(), events.size());
  for (std::size_t i = 1; i < snap.size(); ++i)
    ASSERT_TRUE(snap[i - 1] < snap[i]) << "snapshot not in dispatch order";
  EXPECT_EQ(sched.next_event_time(), snap.front().time);

  const VirtualTime cutoff = ticks(20);
  sched.drop_events_after(cutoff);
  std::vector<Event> kept = sched.snapshot_queue();
  std::size_t expected_kept = 0;
  for (const Event& e : snap)
    if (e.time <= cutoff) ++expected_kept;
  ASSERT_EQ(kept.size(), expected_kept);
  for (std::size_t i = 1; i < kept.size(); ++i)
    ASSERT_TRUE(kept[i - 1] < kept[i]);

  const std::size_t removed =
      sched.erase_events_if([](const Event& e) { return e.seq % 3 == 0; });
  std::size_t expected_removed = 0;
  for (const Event& e : kept)
    if (e.seq % 3 == 0) ++expected_removed;
  EXPECT_EQ(removed, expected_removed);
  const std::vector<Event> rest = sched.snapshot_queue();
  EXPECT_EQ(rest.size(), kept.size() - expected_removed);
  if (!rest.empty()) EXPECT_EQ(sched.next_event_time(), rest.front().time);
}

// Mirrors an EventQueue with the multiset oracle and checks both agree on
// the head after every operation.
class TwoLaneModel {
 public:
  void push(VirtualTime time) {
    const Event e = make_event(time, next_seq_++);
    queue_.push(e);
    oracle_.insert(e);
  }

  void pop() {
    const Event popped = queue_.pop();
    ASSERT_EQ(popped.time, oracle_.begin()->time);
    ASSERT_EQ(popped.seq, oracle_.begin()->seq);
    oracle_.erase(oracle_.begin());
  }

  template <typename Pred>
  void erase_if(const Pred& pred) {
    std::size_t expected = 0;
    for (auto it = oracle_.begin(); it != oracle_.end();) {
      if (pred(*it)) {
        it = oracle_.erase(it);
        ++expected;
      } else {
        ++it;
      }
    }
    ASSERT_EQ(queue_.erase_if(pred), expected);
  }

  void check_for_each_before(VirtualTime bound) const {
    std::vector<Event> visited;
    queue_.for_each_before(bound,
                           [&](const Event& e) { visited.push_back(e); });
    std::sort(visited.begin(), visited.end());
    auto it = oracle_.begin();
    for (const Event& e : visited) {
      ASSERT_NE(it, oracle_.end());
      ASSERT_EQ(e.time, it->time);
      ASSERT_EQ(e.seq, it->seq);
      ++it;
    }
    ASSERT_TRUE(it == oracle_.end() || !(it->time < bound));
  }

  /// sorted_snapshot, optionally followed by replace_queue's rebuild.
  void snapshot(bool rebuild) {
    const std::vector<Event> snap = queue_.sorted_snapshot();
    ASSERT_EQ(snap.size(), oracle_.size());
    std::size_t i = 0;
    for (const Event& e : oracle_) {
      ASSERT_EQ(snap[i].time, e.time);
      ASSERT_EQ(snap[i].seq, e.seq);
      ++i;
    }
    if (!rebuild) return;
    queue_.clear();
    queue_.reserve(snap.size());
    for (const Event& e : snap) queue_.push(e);
  }

  void check_head() const {
    ASSERT_EQ(queue_.size(), oracle_.size());
    ASSERT_EQ(queue_.empty(), oracle_.empty());
    if (oracle_.empty()) return;
    ASSERT_EQ(queue_.top().time, oracle_.begin()->time);
    ASSERT_EQ(queue_.top().seq, oracle_.begin()->seq);
  }

  [[nodiscard]] bool empty() const { return oracle_.empty(); }
  [[nodiscard]] std::size_t size() const { return oracle_.size(); }
  [[nodiscard]] VirtualTime::rep earliest() const {
    return oracle_.begin()->time.ticks();
  }
  [[nodiscard]] VirtualTime::rep latest() const {
    return oracle_.rbegin()->time.ticks();
  }
  /// The time of the i-th queued event in dispatch order.
  [[nodiscard]] VirtualTime time_at(std::size_t i) const {
    return std::next(oracle_.begin(), static_cast<std::ptrdiff_t>(i))->time;
  }

 private:
  EventQueue queue_;
  std::multiset<Event> oracle_;
  std::uint64_t next_seq_ = 0;
};

TEST(EventQueue, TwoLaneStormMatchesMultisetOracle) {
  Rng rng(0x7A0E5u);
  for (int round = 0; round < 12; ++round) {
    TwoLaneModel model;
    VirtualTime::rep now = 0;
    // A stamp in [now, latest queued stamp + slack).
    const auto queued_stamp = [&](VirtualTime::rep slack) {
      return ticks(now + static_cast<VirtualTime::rep>(rng.below(
                             static_cast<std::uint64_t>(
                                 model.latest() - now + slack))));
    };
    for (int op = 0; op < 400; ++op) {
      const std::uint64_t pick = rng.below(100);
      if (pick < 25 || model.empty()) {
        // A monotone burst, as a handler streaming a page word by word
        // schedules it: hundreds of rising stamps, with repeats.
        VirtualTime::rep t = now + static_cast<VirtualTime::rep>(
                                       rng.below(50));
        const std::uint64_t n = 100 + rng.below(400);
        for (std::uint64_t k = 0; k < n; ++k) {
          t += static_cast<VirtualTime::rep>(rng.below(3));
          model.push(ticks(t));
          ASSERT_NO_FATAL_FAILURE(model.check_head());
        }
      } else if (pick < 40) {
        // Out-of-order pushes inside the queued range.
        for (std::uint64_t k = 1 + rng.below(8); k > 0; --k) {
          model.push(queued_stamp(1));
          ASSERT_NO_FATAL_FAILURE(model.check_head());
        }
      } else if (pick < 48) {
        // Equal-time ties: a later seq at the stamp of a queued event, so
        // the tie is broken across the two lanes.
        model.push(model.time_at(rng.below(model.size())));
      } else if (pick < 53) {
        // A far-future tail: everything pushed after it below its stamp
        // leaves the run.
        model.push(ticks(model.latest() + 1'000'000 +
                         static_cast<VirtualTime::rep>(rng.below(1000))));
      } else if (pick < 75) {
        for (std::uint64_t k = 1 + rng.below(300); k > 0 && !model.empty();
             --k) {
          now = model.earliest();
          ASSERT_NO_FATAL_FAILURE(model.pop());
          ASSERT_NO_FATAL_FAILURE(model.check_head());
        }
      } else if (pick < 81) {
        // Rollback: drop_events_after's cutoff.
        const VirtualTime cutoff = queued_stamp(1);
        ASSERT_NO_FATAL_FAILURE(model.erase_if(
            [cutoff](const Event& e) { return e.time > cutoff; }));
      } else if (pick < 86) {
        const std::uint64_t mod = 2 + rng.below(5);
        ASSERT_NO_FATAL_FAILURE(model.erase_if(
            [mod](const Event& e) { return e.seq % mod == 0; }));
      } else if (pick < 93) {
        ASSERT_NO_FATAL_FAILURE(model.check_for_each_before(queued_stamp(2)));
        ASSERT_NO_FATAL_FAILURE(
            model.check_for_each_before(VirtualTime::infinity()));
      } else {
        ASSERT_NO_FATAL_FAILURE(model.snapshot(rng.chance(0.5)));
      }
      ASSERT_NO_FATAL_FAILURE(model.check_head()) << "round " << round;
    }
    while (!model.empty()) ASSERT_NO_FATAL_FAILURE(model.pop());
    ASSERT_NO_FATAL_FAILURE(model.check_head());
  }
}

TEST(EventQueue, StreamThatNeverDrainsKeepsStorageBounded) {
  // Push t+k, pop, repeat: the run always holds k live events and never
  // empties, so only prefix compaction keeps it from growing with the
  // stream's length.
  constexpr std::uint64_t kLive = 64;
  constexpr std::uint64_t kSteps = 100'000;
  EventQueue queue;
  std::uint64_t seq = 0;
  for (std::uint64_t t = 0; t < kLive; ++t)
    queue.push(make_event(ticks(static_cast<VirtualTime::rep>(t)), seq++));
  std::size_t peak = queue.capacity();
  for (std::uint64_t t = 0; t < kSteps; ++t) {
    queue.push(
        make_event(ticks(static_cast<VirtualTime::rep>(t + kLive)), seq++));
    const Event popped = queue.pop();
    ASSERT_EQ(popped.time, ticks(static_cast<VirtualTime::rep>(t)));
    ASSERT_EQ(queue.size(), kLive);
    peak = std::max(peak, queue.capacity());
  }
  EXPECT_LE(peak, 8 * kLive) << "consumed run prefix is not reclaimed";
}

// ---------------------------------------------------------------------------
// Event wire format: the compact port sentinel
// ---------------------------------------------------------------------------

TEST(EventSerialization, CompactPortSentinelRoundTrips) {
  Event wake = make_event(ticks(7), 42);  // port defaults to kNoPort
  serial::OutArchive compact;
  wake.save(compact);

  serial::InArchive in(compact.bytes());
  const Event restored = Event::load(in);
  EXPECT_EQ(restored.time, wake.time);
  EXPECT_EQ(restored.seq, wake.seq);
  EXPECT_EQ(restored.port, kNoPort);
  EXPECT_EQ(restored.kind, EventKind::kWake);

  Event deliver = make_event(ticks(9), 43);
  deliver.kind = EventKind::kDeliver;
  deliver.port = 3;
  serial::OutArchive ar2;
  deliver.save(ar2);
  serial::InArchive in2(ar2.bytes());
  EXPECT_EQ(Event::load(in2).port, 3u);

  // The sentinel is the whole point: a kWake event's port must cost one
  // byte, not the 5-byte varint the raw 0xFFFFFFFF encoding paid.
  serial::OutArchive legacy;
  serial::write(legacy, wake.time);
  legacy.put_varint(wake.seq);
  serial::write(legacy, wake.target);
  legacy.put_varint(static_cast<std::uint64_t>(kNoPort));  // old raw port
  legacy.put_varint(static_cast<std::uint64_t>(wake.kind));
  wake.value.save(legacy);
  serial::write(legacy, wake.source);
  EXPECT_EQ(compact.size() + 4, legacy.size());
}

}  // namespace
}  // namespace pia
