// Element class registry: maps config-language class names ("Counter",
// "IPFilter", "IDSMatcher", ...) to factories. The click library
// registers its standard elements; src/elements registers the EndBox
// custom ones on top.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "click/element.hpp"

namespace endbox::click {

class ElementRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Element>()>;

  void register_class(const std::string& class_name, Factory factory);
  /// Creates an instance; nullptr for unknown classes.
  std::unique_ptr<Element> create(const std::string& class_name) const;

  /// Registry preloaded with the standard element classes.
  static ElementRegistry with_standard_elements();

 private:
  std::map<std::string, Factory> factories_;
};

/// Registers Counter, Discard, Tee, Queue, SetTos, RoundRobinSwitch,
/// CheckIPHeader, Paint, RatedLimiter and the device glue elements.
void register_standard_elements(ElementRegistry& registry);

}  // namespace endbox::click
