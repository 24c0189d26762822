#include "click/router.hpp"

namespace endbox::click {

Result<std::unique_ptr<Router>> Router::from_config(
    const std::string& config_text, const ElementRegistry& registry) {
  auto parsed = parse_config(config_text);
  if (!parsed.ok()) return err(parsed.error());

  auto router = std::unique_ptr<Router>(new Router());
  router->config_text_ = config_text;

  for (const auto& decl : parsed->declarations) {
    if (router->by_name_.count(decl.name))
      return err("duplicate element name '" + decl.name + "'");
    auto element = registry.create(decl.class_name);
    if (!element) return err("unknown element class '" + decl.class_name + "'");
    element->set_name(decl.name);
    auto status = element->configure(decl.args);
    if (!status.ok())
      return err("configuring '" + decl.name + "': " + status.error());
    router->by_name_[decl.name] = element.get();
    router->element_order_.push_back(element.get());
    router->owned_.push_back(std::move(element));
  }

  for (const auto& conn : parsed->connections) {
    auto* from = router->find(conn.from);
    auto* to = router->find(conn.to);
    if (!from) return err("connection references undeclared element '" + conn.from + "'");
    if (!to) return err("connection references undeclared element '" + conn.to + "'");
    if (conn.from_port >= from->n_outputs())
      return err("'" + conn.from + "' has no output port " + std::to_string(conn.from_port));
    if (conn.to_port >= to->n_inputs())
      return err("'" + conn.to + "' has no input port " + std::to_string(conn.to_port));
    from->connect_output(conn.from_port, to, conn.to_port);
    ++router->connection_count_;
  }
  return router;
}

Element* Router::find(const std::string& name) {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

const Element* Router::find(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

bool Router::push_to(const std::string& name, net::Packet&& packet) {
  auto* element = find(name);
  if (!element) return false;
  element->push(0, std::move(packet));
  return true;
}

bool Router::push_batch_to(const std::string& name, PacketBatch&& batch) {
  auto* element = find(name);
  if (!element) return false;
  element->push_batch(0, std::move(batch));
  batch.clear();
  return true;
}

}  // namespace endbox::click
