#include "click/registry.hpp"

#include "click/standard_elements.hpp"

namespace endbox::click {

void ElementRegistry::register_class(const std::string& class_name, Factory factory) {
  factories_[class_name] = std::move(factory);
}

std::unique_ptr<Element> ElementRegistry::create(const std::string& class_name) const {
  auto it = factories_.find(class_name);
  return it == factories_.end() ? nullptr : it->second();
}

ElementRegistry ElementRegistry::with_standard_elements() {
  ElementRegistry registry;
  register_standard_elements(registry);
  return registry;
}

}  // namespace endbox::click
