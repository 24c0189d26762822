#include "netsim/host.hpp"

namespace endbox::netsim {

Host::Host(std::string name, MachineClass machine_class, const sim::PerfModel& model)
    : name_(std::move(name)),
      machine_class_(machine_class),
      hz_(machine_class == MachineClass::A ? model.client_hz : model.server_hz) {}

sim::CpuAccount Host::make_single_core() const {
  return sim::CpuAccount(1, hz_);
}

}  // namespace endbox::netsim
