#include "dist/topology.hpp"

#include "base/error.hpp"

namespace pia::dist {
namespace {

/// Union-find over subsystem names.
class DisjointSets {
 public:
  const std::string& find(const std::string& x) {
    auto it = parent_.find(x);
    if (it == parent_.end()) {
      parent_.emplace(x, x);
      return parent_.find(x)->first;
    }
    if (it->second == x) return it->first;
    const std::string root = find(it->second);  // path compression
    it->second = root;
    return parent_.find(root)->first;
  }

  /// Returns false if x and y were already connected.
  bool unite(const std::string& x, const std::string& y) {
    const std::string rx = find(x);
    const std::string ry = find(y);
    if (rx == ry) return false;
    parent_[rx] = ry;
    return true;
  }

 private:
  std::map<std::string, std::string> parent_;
};

}  // namespace

void Topology::add_channel(const std::string& a, const std::string& b) {
  nodes_.insert(a);
  nodes_.insert(b);
  edges_.emplace_back(a, b);
}

std::size_t Topology::degree(const std::string& name) const {
  std::size_t n = 0;
  for (const auto& [a, b] : edges_) n += (a == name) + (b == name);
  return n;
}

void Topology::validate() const {
  DisjointSets sets;
  std::set<std::pair<std::string, std::string>> seen;
  for (const auto& [a, b] : edges_) {
    if (a == b)
      raise(ErrorKind::kTopology,
            "channel from subsystem '" + a + "' to itself");
    const auto key = a < b ? std::make_pair(a, b) : std::make_pair(b, a);
    if (!seen.insert(key).second)
      raise(ErrorKind::kTopology,
            "parallel channels between '" + a + "' and '" + b +
                "' defeat self-restriction removal");
    if (!sets.unite(a, b))
      raise(ErrorKind::kTopology,
            "channel '" + a + "' <-> '" + b +
                "' closes a cycle of length >= 3; only simple "
                "(bidirectional-edge) cycles are allowed");
  }
}

bool Topology::valid() const {
  try {
    validate();
    return true;
  } catch (const Error&) {
    return false;
  }
}

}  // namespace pia::dist
