// Router: an instantiated, wired element graph. Runtime configuration
// updates (hot-swap with state transfer) live one level up, in
// ShardedRouter::hot_swap, which every data plane runs — one shard is
// the single-router case.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "click/element.hpp"
#include "click/parser.hpp"
#include "click/registry.hpp"

namespace endbox::click {

class Router {
 public:
  /// Parses `config_text`, instantiates elements via `registry`,
  /// configures and wires them. Fails on unknown classes, bad element
  /// configuration, duplicate names or references to undeclared names.
  static Result<std::unique_ptr<Router>> from_config(
      const std::string& config_text, const ElementRegistry& registry);

  /// Element lookup by config name; nullptr when absent.
  Element* find(const std::string& name);
  const Element* find(const std::string& name) const;

  template <typename T>
  T* find_as(const std::string& name) {
    return dynamic_cast<T*>(find(name));
  }

  /// Injects one packet, as a burst of one, into the input port 0 of
  /// the named element. Returns false when the element does not exist.
  bool push_to(const std::string& name, net::Packet&& packet);

  /// Injects a whole burst into the input port 0 of the named element
  /// (one virtual call per element for the entire burst). The batch is
  /// consumed. Returns false when the element does not exist.
  bool push_batch_to(const std::string& name, PacketBatch&& batch);

  std::size_t element_count() const { return owned_.size(); }
  std::size_t connection_count() const { return connection_count_; }
  const std::string& config_text() const { return config_text_; }

  /// Elements in declaration order (for state transfer and stats).
  const std::vector<Element*>& elements() const { return element_order_; }

 private:
  Router() = default;

  std::string config_text_;
  std::vector<std::unique_ptr<Element>> owned_;
  std::vector<Element*> element_order_;
  std::unordered_map<std::string, Element*> by_name_;
  std::size_t connection_count_ = 0;
};

}  // namespace endbox::click
