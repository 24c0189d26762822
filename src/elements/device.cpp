#include "elements/device.hpp"

namespace endbox::elements {

void FromDevice::push_batch(int /*port*/, click::PacketBatch&& batch) {
  count(kPackets, batch.size());
  output_batch(0, std::move(batch));
}

void ToDevice::push_batch(int port, click::PacketBatch&& batch) {
  // Terminal element: the per-packet delivery callback is the protocol
  // with the VPN layer, so the burst unrolls here (verdict order is the
  // order packets reached this element). A packet arriving on input 1,
  // or one marked dropped anywhere in the graph, was rejected by the
  // middlebox functions.
  for (net::Packet& packet : batch) {
    bool accepted = port == 0 && !packet.dropped;
    count(accepted ? kAccepted : kRejected);
    if (context_.to_device) context_.to_device(std::move(packet), accepted);
  }
  batch.clear();
}

}  // namespace endbox::elements
