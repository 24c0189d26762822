#include "elements/device.hpp"

namespace endbox::elements {

void FromDevice::push_batch(int /*port*/, click::PacketBatch&& batch) {
  packets_ += batch.size();
  output_batch(0, std::move(batch));
}

void FromDevice::absorb_state(Element& old_element) {
  packets_ += static_cast<FromDevice&>(old_element).packets_;
}

void ToDevice::push_batch(int port, click::PacketBatch&& batch) {
  // Terminal element: the per-packet delivery callback is the protocol
  // with the VPN layer, so the burst unrolls here (verdict order is the
  // order packets reached this element). A packet arriving on input 1,
  // or one marked dropped anywhere in the graph, was rejected by the
  // middlebox functions.
  for (net::Packet& packet : batch) {
    bool accepted = port == 0 && !packet.dropped;
    if (accepted) ++accepted_;
    else ++rejected_;
    if (context_.to_device) context_.to_device(std::move(packet), accepted);
  }
  batch.clear();
}

void ToDevice::absorb_state(Element& old_element) {
  auto& old = static_cast<ToDevice&>(old_element);
  accepted_ += old.accepted_;
  rejected_ += old.rejected_;
}

}  // namespace endbox::elements
