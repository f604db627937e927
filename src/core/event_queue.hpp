// Contiguous two-lane event priority queue.
//
// The scheduler's hot loop is push/pop on the pending-event set, keyed by
// (time, seq).  seq is a per-scheduler monotone counter, so keys are unique
// and there is exactly one dispatch order: the iteration order of the
// std::multiset this queue replaced.  Checkpoint/rollback and the
// distributed fuzzer's oracle comparisons depend on that order staying
// bit-identical.
//
// Most pushes arrive in order: a handler that streams a page word by word
// schedules each send after the last, so nearly every key lands at or past
// the newest queued one.  The queue therefore keeps two lanes:
//
//   * the run: a vector sorted by key, consumed from a head index.  A push
//     whose key is not below the run's last key is an append, and taking
//     the run's head is an index bump: O(1) each, no sift.
//   * the heap: a 4-ary min-heap over one vector for every other push.
//
// top()/pop() take the smaller of the two lane heads.  Each lane yields its
// events in exact key order and keys are unique, so the merged pop order is
// the multiset's order whichever lane an event sits in.
//
// Memory stays proportional to the live events: the run drops its consumed
// prefix when it empties and, while it never empties, as soon as the prefix
// is at least half the vector.  That compaction moves no more events than
// were popped since the last one, so it costs O(1) amortized per pop.
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

#include "core/event.hpp"

namespace pia {

class EventQueue {
 public:
  [[nodiscard]] bool empty() const { return heap_.empty() && run_.empty(); }
  [[nodiscard]] std::size_t size() const {
    return heap_.size() + run_.size() - head_;
  }
  /// Event slots allocated across both lanes (for memory-bound checks).
  [[nodiscard]] std::size_t capacity() const {
    return heap_.capacity() + run_.capacity();
  }
  /// The (time, seq)-minimal event.  Undefined when empty.
  [[nodiscard]] const Event& top() const {
    return run_is_next() ? run_[head_] : heap_.front();
  }
  /// Calls fn(event) for every pending event with time < bound, heap lane
  /// first, in no particular order.  A heap node is never earlier than its
  /// parent and the run is sorted, so both walks stop at the bound: the cost
  /// follows the number of early events, not the queue size.  The bound is
  /// re-read at every step, so fn may lower it to cut the walk short.
  template <typename Fn>
  void for_each_before(const VirtualTime& bound, const Fn& fn) const {
    visit_before(0, bound, fn);
    for (std::size_t i = head_; i < run_.size() && run_[i].time < bound; ++i)
      fn(run_[i]);
  }

  /// Bulk loads (replace_queue's restore of a sorted snapshot) arrive in
  /// key order, so they land in the run.
  void reserve(std::size_t n) { run_.reserve(n); }
  void clear() {
    heap_.clear();
    run_.clear();
    head_ = 0;
  }

  void push(Event event) {
    if (run_.empty() || !(event < run_.back())) {
      run_.push_back(std::move(event));
      return;
    }
    heap_.push_back(std::move(event));
    sift_up(heap_.size() - 1);
  }

  /// Removes and returns the minimal event.
  Event pop() {
    if (run_is_next()) {
      Event out = std::move(run_[head_++]);
      if (head_ == run_.size() ||
          (head_ >= kMinCompact && 2 * head_ >= run_.size()))
        drop_consumed();
      return out;
    }
    Event out = std::move(heap_.front());
    if (heap_.size() > 1) {
      heap_.front() = std::move(heap_.back());
      heap_.pop_back();
      sift_down(0);
    } else {
      heap_.pop_back();
    }
    return out;
  }

  /// Copy of the queue sorted by (time, seq) — the order the events would
  /// dispatch in, matching the old multiset's begin()..end() iteration.
  [[nodiscard]] std::vector<Event> sorted_snapshot() const {
    std::vector<Event> heap_sorted = heap_;
    std::sort(heap_sorted.begin(), heap_sorted.end());
    std::vector<Event> out;
    out.reserve(size());
    std::merge(heap_sorted.begin(), heap_sorted.end(),
               run_.begin() + static_cast<std::ptrdiff_t>(head_), run_.end(),
               std::back_inserter(out));
    return out;
  }

  /// Removes every event matching pred; returns how many were removed.
  template <typename Pred>
  std::size_t erase_if(const Pred& pred) {
    const std::size_t before = size();
    std::erase_if(heap_, pred);
    heapify();
    drop_consumed();
    std::erase_if(run_, pred);  // keeps the survivors in key order
    return before - size();
  }

 private:
  static constexpr std::size_t kArity = 4;
  /// Consumed run slots tolerated before compaction is considered.
  static constexpr std::size_t kMinCompact = 16;

  [[nodiscard]] bool run_is_next() const {
    return !run_.empty() && (heap_.empty() || run_[head_] < heap_.front());
  }

  void drop_consumed() {
    run_.erase(run_.begin(),
               run_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }

  template <typename Fn>
  void visit_before(std::size_t i, const VirtualTime& bound,
                    const Fn& fn) const {
    if (i >= heap_.size() || !(heap_[i].time < bound)) return;
    fn(heap_[i]);
    const std::size_t first_child = i * kArity + 1;
    const std::size_t last_child =
        std::min(first_child + kArity, heap_.size());
    for (std::size_t c = first_child; c < last_child; ++c)
      visit_before(c, bound, fn);
  }

  void sift_up(std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!(heap_[i] < heap_[parent])) break;
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first_child = i * kArity + 1;
      if (first_child >= n) break;
      const std::size_t last_child = std::min(first_child + kArity, n);
      std::size_t best = first_child;
      for (std::size_t c = first_child + 1; c < last_child; ++c)
        if (heap_[c] < heap_[best]) best = c;
      if (!(heap_[best] < heap_[i])) break;
      std::swap(heap_[i], heap_[best]);
      i = best;
    }
  }

  void heapify() {
    if (heap_.size() < 2) return;
    for (std::size_t i = (heap_.size() - 2) / kArity + 1; i-- > 0;)
      sift_down(i);
  }

  std::vector<Event> heap_;
  /// Sorted lane; run_[head_..] is live, run_[..head_] is moved-from.
  /// Invariant: head_ < run_.size() unless run_ is empty (then head_ == 0).
  std::vector<Event> run_;
  std::size_t head_ = 0;
};

}  // namespace pia
