// CPU model: a host owns a MultiCoreAccount with N logical cores
// running at a fixed clock rate. Packet-processing work consumes
// cycles; the account converts cycles to virtual service time and
// tracks per-core utilisation so the scalability experiments (Fig 10)
// can report server CPU usage.
//
// Two charging shapes:
//
//  - charge(): one serial work item lands on the least-loaded core — a
//    processor-sharing approximation that reproduces saturation
//    behaviour without simulating an OS scheduler.
//  - charge_parallel(): one serial phase (the single-threaded part of
//    a sharded burst: tunnel crypto, lane dispatch) followed by
//    per-shard work items that run concurrently on distinct cores. The
//    burst completes at the critical path — the slowest shard — while
//    *every* shard's cycles count as busy core time, so sweeping shard
//    counts never under-reports the work actually done. When there are
//    more shards than cores the greedy per-core placement queues the
//    excess, which is exactly the contention between the dispatching
//    thread and the shard workers the honest model needs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
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

  /// Charges a sharded burst: `staging_cycles` run first on one core
  /// (the thread that parses/partitions the burst and later merges the
  /// results), then each entry of `shard_cycles` runs as its own job,
  /// greedily placed on the least-loaded core no earlier than staging
  /// completion. `shard_earliest`, when non-empty (same size as
  /// shard_cycles), additionally holds job i back until its own
  /// earliest start — e.g. a shard whose sessions are still busy from
  /// a previous burst — without delaying the other shards. Returns the
  /// completion time of the whole burst (the critical path);
  /// `shard_done`, when non-empty, receives each shard job's own
  /// completion time (must match shard_cycles' size). With one shard
  /// and an idle account this degenerates to
  /// charge(now, staging_cycles + shard_cycles[0]).
  Time charge_parallel(Time now, double staging_cycles,
                       std::span<const double> shard_cycles,
                       std::span<Time> shard_done = {},
                       std::span<const Time> shard_earliest = {});

  /// Completion time if charged, without mutating state.
  Time peek_completion(Time now, double cycles) const;

  /// Utilisation in [0,1] over the window [start, end): fraction of
  /// total core-time spent busy.
  double utilisation(Time start, Time end) const;

  /// Busy core-nanoseconds accumulated so far, across all cores.
  double busy_core_ns() const { return busy_core_ns_; }
  /// Busy nanoseconds accumulated by core `i` — the per-core view that
  /// tells a balanced sharded burst from one hot core.
  double core_busy_ns(unsigned i) const { return core_busy_ns_.at(i); }
  /// The busiest core's accumulated nanoseconds (load-imbalance probe).
  double max_core_busy_ns() const {
    return *std::max_element(core_busy_ns_.begin(), core_busy_ns_.end());
  }

  /// Work items charged so far (per-client accounting in scalability
  /// experiments: busy_core_ns / charges = mean service time). Each
  /// charge_parallel counts 1 + shard_cycles.size() items.
  std::uint64_t charges() const { return charges_; }

  unsigned cores() const { return static_cast<unsigned>(core_free_at_.size()); }
  double hz() const { return hz_; }

  /// Converts cycles to nanoseconds of single-core service time.
  Duration cycles_to_ns(double cycles) const;

  void reset();

 private:
  /// Places one work item on the least-loaded core, starting no
  /// earlier than `earliest`; returns its completion time.
  Time place(Time earliest, double cycles);

  double hz_;
  std::vector<Time> core_free_at_;
  std::vector<double> core_busy_ns_;
  double busy_core_ns_ = 0;
  std::uint64_t charges_ = 0;
};

/// The single-counter account every host used before the multi-core
/// refactor; all call sites now share the richer model.
using CpuAccount = MultiCoreAccount;

}  // namespace endbox::sim
