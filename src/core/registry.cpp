#include "core/registry.hpp"

#include "base/error.hpp"

namespace pia {

void ComponentRegistry::register_factory(const std::string& type_name,
                                         Factory factory) {
  PIA_REQUIRE(factory != nullptr, "null factory for '" + type_name + "'");
  Entry& entry = entries_[type_name];
  entry.factory = std::move(factory);
  entry.generation++;
}

bool ComponentRegistry::contains(const std::string& type_name) const {
  return entries_.contains(type_name);
}

std::unique_ptr<Component> ComponentRegistry::create(
    const std::string& type_name, const std::string& instance) const {
  const auto it = entries_.find(type_name);
  if (it == entries_.end())
    raise(ErrorKind::kNotFound,
          "no component type registered as '" + type_name + "'");
  auto component = it->second.factory(instance);
  PIA_CHECK(component != nullptr,
            "factory for '" + type_name + "' returned nullptr");
  return component;
}

std::uint32_t ComponentRegistry::generation(
    const std::string& type_name) const {
  const auto it = entries_.find(type_name);
  return it == entries_.end() ? 0 : it->second.generation;
}

}  // namespace pia
