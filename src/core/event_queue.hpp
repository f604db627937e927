// Contiguous event priority queue.
//
// The scheduler's hot loop is push/pop on the pending-event set.  A
// std::multiset pays a red-black-tree node allocation per event and chases
// pointers on every comparison; this 4-ary min-heap keeps all events in one
// vector, so pushes are an append + sift-up and pops touch at most a few
// cache lines per level.  Keys are the existing (time, seq) pair — seq is a
// per-scheduler monotone counter, so keys are unique and the heap's pop
// order is exactly the multiset's iteration order: dispatch stays
// bit-identical, which checkpoint/rollback and the distributed fuzzer's
// oracle comparisons depend on.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/event.hpp"

namespace pia {

class EventQueue {
 public:
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  /// The (time, seq)-minimal event.  Undefined when empty.
  [[nodiscard]] const Event& top() const { return heap_.front(); }
  /// Calls fn(event) for every pending event with time < bound, in heap
  /// order.  A heap node is never earlier than its parent, so the walk
  /// prunes every subtree whose root is at or past the bound: the cost
  /// follows the number of early events, not the queue size.
  template <typename Fn>
  void for_each_before(VirtualTime bound, const Fn& fn) const {
    visit_before(0, bound, fn);
  }

  void reserve(std::size_t n) { heap_.reserve(n); }
  void clear() { heap_.clear(); }

  void push(Event event) {
    heap_.push_back(std::move(event));
    sift_up(heap_.size() - 1);
  }

  /// Removes and returns the minimal event.
  Event pop() {
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
    std::vector<Event> out = heap_;
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Removes every event matching pred; returns how many were removed.
  template <typename Pred>
  std::size_t erase_if(const Pred& pred) {
    const std::size_t before = heap_.size();
    std::erase_if(heap_, pred);
    heapify();
    return before - heap_.size();
  }

 private:
  static constexpr std::size_t kArity = 4;

  template <typename Fn>
  void visit_before(std::size_t i, VirtualTime bound, const Fn& fn) const {
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
};

}  // namespace pia
