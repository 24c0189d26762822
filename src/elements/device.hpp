// Device glue elements: the boundary between the VPN client and the
// Click graph running inside the enclave.
//
// FromDevice is the graph entry: the EndBox client pushes each packet
// into it after copying the packet into the enclave. ToDevice is the
// exit: per the paper's Click modification (i), it signals the VPN
// client whether the packet was accepted or rejected by the middlebox
// functions, via the context callback.
#pragma once

#include "click/element.hpp"
#include "elements/context.hpp"

namespace endbox::elements {

class FromDevice : public click::Element {
 public:
  std::string_view class_name() const override { return "FromDevice"; }
  void push_batch(int port, click::PacketBatch&& batch) override;
  std::uint64_t packets() const { return counter(kPackets); }

 private:
  enum Slot { kPackets };
};

class ToDevice : public click::Element {
 public:
  explicit ToDevice(ElementContext& context) : context_(context) {}

  std::string_view class_name() const override { return "ToDevice"; }
  void push_batch(int port, click::PacketBatch&& batch) override;
  int n_inputs() const override { return 2; }  ///< port 1 = reject path

  std::uint64_t accepted() const { return counter(kAccepted); }
  std::uint64_t rejected() const { return counter(kRejected); }

 private:
  enum Slot { kAccepted, kRejected };

  ElementContext& context_;
};

}  // namespace endbox::elements
