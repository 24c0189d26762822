// Network link and path models.
//
// A Link has a transmission rate, propagation latency and an implicit
// FIFO transmit queue: a frame starts serialising when the previous
// frame finished. A Path chains links (client -> switch -> server, or
// client -> ISP -> AWS region -> back) accumulating serialisation,
// queueing and propagation — this is what turns the paper's topology
// differences (local vs cloud redirection, Fig 7) into RTT differences.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "netsim/fault.hpp"
#include "sim/clock.hpp"

namespace endbox::netsim {

class Link {
 public:
  /// `rate_bps` transmission rate; `latency` one-way propagation delay.
  Link(double rate_bps, sim::Duration latency, std::string name = "link");

  /// Transmits `bytes` starting no earlier than `now`; returns arrival
  /// time at the far end (serialisation + queueing + propagation).
  sim::Time transmit(sim::Time now, std::size_t bytes);

  /// Arrival time if transmitted, without occupying the link.
  sim::Time peek(sim::Time now, std::size_t bytes) const;

  /// Installs (or, with a default-constructed plan, removes) a fault
  /// plan. The link forks its own random stream from the plan's seed
  /// and the link name, so per-link fault patterns are independent and
  /// reproducible for a fixed seed.
  void set_fault_plan(FaultPlan plan);
  bool fault_plan_enabled() const { return faults_ && faults_->plan.enabled(); }
  const FaultStats& fault_stats() const;

  /// Transmits one frame through the fault plan: serialisation and
  /// byte counters advance as for transmit() (the sender did put the
  /// frame on the wire), then the plan decides how many copies arrive,
  /// when, and with which corruptions. A frame offered during a down
  /// window is dropped without serialising — a dead transmitter sends
  /// nothing. Without a plan this degrades to exactly transmit().
  FaultOutcome transmit_faulty(sim::Time now, std::size_t bytes);

  /// Continues an in-flight copy across this link: the copy starts at
  /// `delivery.at`, inherits its corruptions, and this link's plan
  /// applies on top. Used by Path::deliver_faulty to chain hops.
  void extend_faulty(const Delivery& incoming, std::size_t bytes,
                     FaultOutcome& out);

  double rate_bps() const { return rate_bps_; }
  sim::Duration latency() const { return latency_; }
  const std::string& name() const { return name_; }
  std::uint64_t frames() const { return frames_; }
  std::uint64_t bytes() const { return bytes_; }
  /// Fraction of the window the transmitter was busy.
  double utilisation(sim::Time start, sim::Time end) const;

  void reset();

 private:
  // Fault state lives behind a pointer so fault-free links (the common
  // case, and every pre-existing caller) pay nothing.
  struct FaultState {
    FaultPlan plan;
    Rng rng;
    FaultStats stats;
    FaultState(FaultPlan p, Rng r) : plan(std::move(p)), rng(r) {}
  };

  sim::Duration serialisation(std::size_t bytes) const;
  bool down_at(sim::Time t) const;
  /// Applies the per-copy draws (corrupt, reorder) to a delivery.
  void impair_copy(Delivery& d);

  double rate_bps_;
  sim::Duration latency_;
  std::string name_;
  sim::Time free_at_ = 0;
  std::uint64_t frames_ = 0;
  std::uint64_t bytes_ = 0;
  double busy_ns_ = 0;
  std::unique_ptr<FaultState> faults_;
};

/// An ordered chain of links.
class Path {
 public:
  Path() = default;
  explicit Path(std::vector<Link*> links) : links_(std::move(links)) {}

  void add(Link* link) { links_.push_back(link); }
  std::size_t hops() const { return links_.size(); }

  /// Delivers `bytes` across all links in sequence.
  sim::Time deliver(sim::Time now, std::size_t bytes);

  /// Delivers one frame through every hop's fault plan. Each hop can
  /// drop, duplicate, corrupt or delay each surviving copy
  /// independently; the result is every copy that reaches the far end.
  FaultOutcome deliver_faulty(sim::Time now, std::size_t bytes);

  /// Total propagation latency (zero-load lower bound, excluding
  /// serialisation).
  sim::Duration base_latency() const;

 private:
  std::vector<Link*> links_;
};

}  // namespace endbox::netsim
