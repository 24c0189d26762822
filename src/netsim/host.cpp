#include "netsim/host.hpp"

namespace endbox::netsim {

namespace {
sim::CpuAccount make_cpu(MachineClass machine_class, const sim::PerfModel& model) {
  if (machine_class == MachineClass::A)
    return sim::CpuAccount(model.client_cores, model.client_hz);
  return sim::CpuAccount(model.server_cores, model.server_hz);
}
}  // namespace

Host::Host(std::string name, MachineClass machine_class, const sim::PerfModel& model)
    : name_(std::move(name)),
      machine_class_(machine_class),
      cpu_(make_cpu(machine_class, model)) {}

sim::CpuAccount Host::make_single_core() const {
  return sim::CpuAccount(1, cpu_.hz());
}

}  // namespace endbox::netsim
