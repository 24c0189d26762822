// CPU model: a MultiCoreAccount has N logical cores running at a fixed
// clock rate. Packet-processing work consumes cycles; the account
// converts cycles to virtual service time and tracks utilisation so the
// scalability experiments (Fig 10) can report server CPU usage. The
// testbeds build the accounts they charge: one per server and a
// one-core slice per client (netsim::Host::make_single_core).
//
// One charging shape, as in the paper's set-ups: each work item lands
// on the least-loaded core — a processor-sharing approximation that
// reproduces saturation behaviour without simulating an OS scheduler.
// A single-threaded process (an OpenVPN client, one server session's
// OpenVPN process, vanilla Click) is a one-core account or serialises
// its own items; lane parallelism is not modelled in virtual time.
#pragma once

#include <vector>

#include "sim/clock.hpp"

namespace endbox::sim {

class MultiCoreAccount {
 public:
  /// `cores` logical cores at `hz` cycles per second.
  MultiCoreAccount(unsigned cores, double hz);

  /// Charges `cycles` of work arriving at time `now`. Returns the time
  /// at which the work completes (>= now; later when the CPU is busy).
  Time charge(Time now, double cycles);

  /// Utilisation in [0,1] over the window [start, end): fraction of
  /// total core-time spent busy.
  double utilisation(Time start, Time end) const;

  /// Busy core-nanoseconds accumulated so far, across all cores.
  double busy_core_ns() const { return busy_core_ns_; }

  unsigned cores() const { return static_cast<unsigned>(core_free_at_.size()); }
  double hz() const { return hz_; }

  /// Converts cycles to nanoseconds of single-core service time.
  Duration cycles_to_ns(double cycles) const;

 private:
  double hz_;
  std::vector<Time> core_free_at_;
  double busy_core_ns_ = 0;
};

/// The single-counter account every host used before the multi-core
/// refactor; all call sites now share the richer model.
using CpuAccount = MultiCoreAccount;

}  // namespace endbox::sim
