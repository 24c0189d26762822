// CPU model: a host owns a MultiCoreAccount with N logical cores
// running at a fixed clock rate. Packet-processing work consumes
// cycles; the account converts cycles to virtual service time and
// tracks utilisation so the scalability experiments (Fig 10) can
// report server CPU usage.
//
// One charging shape, as in the paper's set-ups: each work item lands
// on the least-loaded core — a processor-sharing approximation that
// reproduces saturation behaviour without simulating an OS scheduler.
// A single-threaded process (an OpenVPN client, one server session's
// OpenVPN process, vanilla Click) is a one-core account or serialises
// its own items; lane parallelism is not modelled in virtual time.
#pragma once

#include <cstdint>
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

  /// Completion time if charged, without mutating state.
  Time peek_completion(Time now, double cycles) const;

  /// Utilisation in [0,1] over the window [start, end): fraction of
  /// total core-time spent busy.
  double utilisation(Time start, Time end) const;

  /// Busy core-nanoseconds accumulated so far, across all cores.
  double busy_core_ns() const { return busy_core_ns_; }

  /// Work items charged so far (per-client accounting in scalability
  /// experiments: busy_core_ns / charges = mean service time).
  std::uint64_t charges() const { return charges_; }

  unsigned cores() const { return static_cast<unsigned>(core_free_at_.size()); }
  double hz() const { return hz_; }

  /// Converts cycles to nanoseconds of single-core service time.
  Duration cycles_to_ns(double cycles) const;

  void reset();

 private:
  double hz_;
  std::vector<Time> core_free_at_;
  double busy_core_ns_ = 0;
  std::uint64_t charges_ = 0;
};

/// The single-counter account every host used before the multi-core
/// refactor; all call sites now share the richer model.
using CpuAccount = MultiCoreAccount;

}  // namespace endbox::sim
