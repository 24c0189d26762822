// AdaptiveReshardController: the load monitor that finally drives the
// reshard machinery (EndBoxEnclave::ecall_reshard on clients,
// VpnServer::reshard_sessions on the server) instead of leaving it a
// manual knob.
//
// The controller is policy only — it owns no threads and touches no
// data plane. The driver feeds it one load observation per control
// interval (offered packets, queue depth, busy nanoseconds — any
// monotone load unit, as long as `shard_capacity` is stated in the
// same unit); the controller maintains an EWMA of the signal and
// answers with a target shard count. Decisions double or halve the
// count (the shapes the lossless reshard migrates cheapest) and are
// guarded three ways against oscillation:
//
//   - hysteresis band: grow above `grow_above` per-shard utilisation,
//     shrink below `shrink_below`, hold in between;
//   - projection guards: never grow into the shrink band or shrink
//     into the grow band — a steady load that triggered one decision
//     can never trigger the opposite one;
//   - cooldown: after any decision the controller holds for
//     `cooldown_intervals` observations, so the EWMA refills with
//     post-transition samples before the next move.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace endbox {

struct ReshardPolicy {
  std::size_t min_shards = 1;
  std::size_t max_shards = 8;
  /// Load units per interval one shard absorbs at full utilisation
  /// (the calibration constant tying the signal to the shard count).
  double shard_capacity = 1.0;
  /// EWMA smoothing factor in (0, 1]: weight of the newest sample.
  double ewma_alpha = 0.35;
  /// Per-shard utilisation above which the controller doubles.
  double grow_above = 0.85;
  /// Per-shard utilisation below which the controller halves. Must be
  /// <= grow_above / 2 (enforced at construction): with doubling and
  /// halving steps that invariant makes the projection guards provably
  /// never block a decision, so an overloaded controller can never be
  /// pinned below max_shards, and a doubling can never land in the
  /// shrink band.
  double shrink_below = 0.35;
  /// Observations to hold after any decision.
  unsigned cooldown_intervals = 2;
  /// Load units one LRU eviction adds to the observed signal (the
  /// two-argument observe()). Evictions mean the session tables are
  /// shedding idle-longest sessions to admit new ones — capacity
  /// pressure that queue depth alone can miss, because an admission
  /// storm of short-lived sessions keeps per-shard queues shallow
  /// while the tables thrash. 0 (the default) ignores the signal.
  double eviction_pressure = 0.0;
};

class AdaptiveReshardController {
 public:
  explicit AdaptiveReshardController(ReshardPolicy policy = {},
                                     std::size_t initial_shards = 1);

  /// Feeds one interval's load observation; returns the shard count
  /// the data plane should run with from now on (== shards() when
  /// nothing changes). The caller applies the transition (the
  /// controller assumes it succeeded; call note_applied() with the
  /// actual count if it did not).
  std::size_t observe(double offered_load);

  /// Overload fed from the server's session tables: `evictions` is the
  /// interval's LRU-eviction count (e.g. the delta of
  /// VpnServer::sessions_evicted_lru), folded into the load signal at
  /// `eviction_pressure` units each before the EWMA.
  std::size_t observe(double offered_load, std::uint64_t evictions);

  /// Imbalance-aware overload fed from the lane pipeline: one load
  /// figure per lane (backlog peaks, per-lane core_busy_ns — any
  /// monotone unit matching `shard_capacity`). Total load drives the
  /// mean-utilisation machinery exactly like observe(); the hottest
  /// lane feeds a second EWMA so the controller splits a hot lane
  /// (grows) when one lane saturates even while the mean sits inside
  /// the hold band, and refuses to shrink while merging lanes would
  /// push the hot lane's projected load into the grow band.
  std::size_t observe_lanes(std::span<const double> lane_loads);

  /// Re-anchors the controller on the data plane's actual shard count
  /// (e.g. when a reshard failed or something else changed it).
  void note_applied(std::size_t shards);

  std::size_t shards() const { return shards_; }
  double load_ewma() const { return ewma_; }
  /// Smoothed per-shard utilisation: load_ewma / (shards * capacity).
  double utilisation() const;
  /// Smoothed utilisation of the hottest lane against one lane's
  /// capacity — the signal that triggers an imbalance-driven split.
  double hot_lane_utilisation() const;
  std::uint64_t grow_decisions() const { return grows_; }
  std::uint64_t shrink_decisions() const { return shrinks_; }
  const ReshardPolicy& policy() const { return policy_; }

 private:
  double utilisation_at(std::size_t shards) const;
  /// Shared decision core: `total` is the interval's summed load,
  /// `hot` the hottest single lane's share of it.
  std::size_t decide(double total, double hot);

  ReshardPolicy policy_;
  std::size_t shards_;
  double ewma_ = 0;
  double hot_ewma_ = 0;        ///< hottest lane's smoothed load
  bool primed_ = false;        ///< first sample seeds the EWMA directly
  unsigned cooldown_left_ = 0;
  std::uint64_t grows_ = 0;
  std::uint64_t shrinks_ = 0;
};

}  // namespace endbox
