#include "click/element.hpp"

namespace endbox::click {

Status Element::configure(const std::vector<std::string>& args) {
  if (!args.empty())
    return err(std::string(class_name()) + " takes no configuration arguments");
  return {};
}

void Element::push(int port, net::Packet&& packet) {
  PacketBatch batch;
  batch.push_back(std::move(packet));
  push_batch(port, std::move(batch));
}

void Element::absorb_state(Element& /*old_element*/) {}

void Element::migrate_flows(
    const std::function<Element*(const net::FlowKey&)>& /*target_for*/) {}

void Element::connect_output(int port, Element* target, int target_port) {
  if (port < 0) throw std::invalid_argument("negative output port");
  if (outputs_.size() <= static_cast<std::size_t>(port))
    outputs_.resize(static_cast<std::size_t>(port) + 1);
  outputs_[static_cast<std::size_t>(port)] = Port{target, target_port};
}

bool Element::output_connected(int port) const {
  return port >= 0 && static_cast<std::size_t>(port) < outputs_.size() &&
         outputs_[static_cast<std::size_t>(port)].target != nullptr;
}

void Element::output_batch(int port, PacketBatch&& batch) {
  if (batch.empty()) return;
  if (!output_connected(port)) {
    batch.clear();
    return;
  }
  auto& out = outputs_[static_cast<std::size_t>(port)];
  out.target->push_batch(out.target_port, std::move(batch));
  batch.clear();
}

}  // namespace endbox::click
