#include "netsim/topology.hpp"

namespace endbox::netsim {

StarTopology::StarTopology(const sim::PerfModel& model, StarTopologyOptions options)
    : model_(model),
      options_(options),
      server_host_("server", MachineClass::B, model),
      uplink_(options.uplink_rate_bps, options.uplink_latency, "uplink") {}

std::size_t StarTopology::add_client(const std::string& name) {
  std::size_t index = client_hosts_.size();
  client_hosts_.push_back(std::make_unique<Host>(name, MachineClass::A, model_));
  access_links_.push_back(std::make_unique<Link>(
      options_.access_rate_bps, options_.access_latency, name + "-access"));
  if (have_shared_fault_plan_)
    access_links_.back()->set_fault_plan(shared_fault_plan_);
  return index;
}

void StarTopology::set_fault_plan_all(const FaultPlan& plan) {
  shared_fault_plan_ = plan;
  have_shared_fault_plan_ = plan.enabled();
  uplink_.set_fault_plan(plan);
  for (auto& link : access_links_) link->set_fault_plan(plan);
}

FaultOutcome StarTopology::deliver_to_server_faulty(std::size_t i,
                                                    sim::Time now,
                                                    std::size_t bytes) {
  FaultOutcome out;
  for (const Delivery& d :
       access_links_.at(i)->transmit_faulty(now, bytes))
    uplink_.extend_faulty(d, bytes, out);
  return out;
}

FaultOutcome StarTopology::deliver_to_client_faulty(std::size_t i,
                                                    sim::Time now,
                                                    std::size_t bytes) {
  FaultOutcome out;
  for (const Delivery& d : uplink_.transmit_faulty(now, bytes))
    access_links_.at(i)->extend_faulty(d, bytes, out);
  return out;
}

Path StarTopology::uplink_path(std::size_t i) {
  return Path({access_links_.at(i).get(), &uplink_});
}

Path StarTopology::downlink_path(std::size_t i) {
  return Path({&uplink_, access_links_.at(i).get()});
}

sim::Time StarTopology::deliver_to_server(std::size_t i, sim::Time now,
                                          std::size_t bytes) {
  // Per-packet hot path: hit the two links directly rather than
  // materialising a Path per call.
  sim::Time at_switch = access_links_.at(i)->transmit(now, bytes);
  return uplink_.transmit(at_switch, bytes);
}

void StarTopology::reset() {
  uplink_.reset();
  for (auto& link : access_links_) link->reset();
}

}  // namespace endbox::netsim
