// Component registry — the native analogue of the Pia class loader
// (paper §3.2).
//
// The Java class loader let a user "recompile and reload a component without
// having to restart the simulator" and fetch components "on demand from
// arbitrary URLs".  In C++ the equivalent capability is a registry of named
// factories: tools register (or *re*-register, i.e. reload) a factory under
// a name, and simulations instantiate components by name.  Factories can be
// registered from anywhere — statically linked models, plugin init
// functions, or test doubles.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "core/component.hpp"

namespace pia {

class ComponentRegistry {
 public:
  /// A factory builds a component given its instance name.
  using Factory =
      std::function<std::unique_ptr<Component>(const std::string& instance)>;

  /// Registers a factory under `type_name`.  Re-registering replaces the
  /// previous factory ("reload") and bumps the generation counter.
  void register_factory(const std::string& type_name, Factory factory);

  [[nodiscard]] bool contains(const std::string& type_name) const;

  /// Instantiates a component; throws Error{kNotFound} for unknown types.
  [[nodiscard]] std::unique_ptr<Component> create(
      const std::string& type_name, const std::string& instance) const;

  /// How many times `type_name` has been (re)registered; 0 if never.
  [[nodiscard]] std::uint32_t generation(const std::string& type_name) const;

 private:
  struct Entry {
    Factory factory;
    std::uint32_t generation = 0;
  };
  std::map<std::string, Entry> entries_;
};

}  // namespace pia
