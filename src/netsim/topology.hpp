// Star topology: N client hosts, each behind its own access link, all
// feeding one shared server uplink — the evaluation cluster's wiring
// (section V-B) generalised to a parameterisable client count so the
// scalability experiments (Fig 10) can grow the fleet without
// hand-assembling links.
//
//   client i --access_i--> [switch] --uplink--> server
//
// The shared uplink is where aggregation effects live: per-client
// access links never contend, the uplink serialises everything, so
// its utilisation and byte counters give the server-side view of the
// offered load.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "netsim/host.hpp"
#include "netsim/link.hpp"

namespace endbox::netsim {

struct StarTopologyOptions {
  double access_rate_bps = 10e9;            ///< per-client access link
  double uplink_rate_bps = 10e9;            ///< shared aggregation link
  sim::Duration access_latency = sim::from_millis(0.025);
  sim::Duration uplink_latency = sim::from_millis(0.025);
};

class StarTopology {
 public:
  StarTopology(const sim::PerfModel& model, StarTopologyOptions options = {});

  /// Adds one class-A client host with a dedicated access link;
  /// returns its index.
  std::size_t add_client(const std::string& name);

  std::size_t clients() const { return client_hosts_.size(); }
  Host& client_host(std::size_t i) { return *client_hosts_.at(i); }
  Host& server_host() { return server_host_; }
  Link& access_link(std::size_t i) { return *access_links_.at(i); }
  Link& uplink() { return uplink_; }
  const Link& uplink() const { return uplink_; }

  /// Path client i -> server (access link, then shared uplink).
  Path uplink_path(std::size_t i);
  /// Path server -> client i (shared uplink, then access link).
  Path downlink_path(std::size_t i);

  /// Delivers `bytes` from client `i` to the server; returns arrival
  /// time and updates per-link counters.
  sim::Time deliver_to_server(std::size_t i, sim::Time now, std::size_t bytes);

  /// Installs `plan` on every link (each forks its own stream from the
  /// plan seed and its name). Links added later inherit the plan.
  void set_fault_plan_all(const FaultPlan& plan);

  /// Delivers one frame from client `i` through the per-link fault
  /// plans (access link, then uplink).
  FaultOutcome deliver_to_server_faulty(std::size_t i, sim::Time now,
                                        std::size_t bytes);
  /// Delivers one frame from the server towards client `i` (uplink,
  /// then access link).
  FaultOutcome deliver_to_client_faulty(std::size_t i, sim::Time now,
                                        std::size_t bytes);

  /// Total bytes that crossed the shared uplink (the server-side
  /// aggregate the Fig 10 throughput curves measure).
  std::uint64_t aggregate_bytes() const { return uplink_.bytes(); }
  std::uint64_t aggregate_frames() const { return uplink_.frames(); }
  /// Bytes client i put on its access link.
  std::uint64_t client_bytes(std::size_t i) const { return access_links_.at(i)->bytes(); }

  void reset();

 private:
  const sim::PerfModel& model_;
  StarTopologyOptions options_;
  Host server_host_;
  Link uplink_;
  std::vector<std::unique_ptr<Host>> client_hosts_;
  std::vector<std::unique_ptr<Link>> access_links_;
  FaultPlan shared_fault_plan_;  ///< applied to links added later
  bool have_shared_fault_plan_ = false;
};

}  // namespace endbox::netsim
