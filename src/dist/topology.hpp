// Subsystem-interconnection topology validation (paper §2.2.3).
//
// "A set of interconnected subsystems must make a directed graph with only
// simple cycles.  A simple cycle is simply a bidirectional edge.  The reason
// for this is that it is computationally hard to eliminate self-restriction
// on the fly for general graphs."
//
// In other words: treat each channel as one undirected edge between two
// subsystems; the resulting undirected multigraph must be acyclic (a forest)
// — the only permitted cycles are the trivial two-node ones formed by a
// single bidirectional channel.  The safe-time protocol's self-restriction
// removal is then exact, and deadlock-free.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace pia::dist {

class Topology {
 public:
  /// Declares a (bidirectional) channel between two subsystems.
  void add_channel(const std::string& a, const std::string& b);

  [[nodiscard]] std::size_t subsystem_count() const { return nodes_.size(); }
  [[nodiscard]] bool has_subsystem(const std::string& name) const {
    return nodes_.contains(name);
  }
  /// Channels declared with `name` at one end.
  [[nodiscard]] std::size_t degree(const std::string& name) const;
  [[nodiscard]] std::size_t channel_count() const { return edges_.size(); }

  /// Throws Error{kTopology} if the graph contains a cycle of length >= 3
  /// or parallel channels between the same pair (which also defeat
  /// self-restriction removal), or a channel from a subsystem to itself.
  void validate() const;

  /// True if validate() would succeed.
  [[nodiscard]] bool valid() const;

 private:
  std::set<std::string> nodes_;
  std::vector<std::pair<std::string, std::string>> edges_;
};

}  // namespace pia::dist
