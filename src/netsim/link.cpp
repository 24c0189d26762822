#include "netsim/link.hpp"

#include <stdexcept>

#include "common/hash.hpp"

namespace endbox::netsim {

namespace {

const FaultStats kNoFaultStats{};

}  // namespace

Link::Link(double rate_bps, sim::Duration latency, std::string name)
    : rate_bps_(rate_bps), latency_(latency), name_(std::move(name)) {
  if (rate_bps <= 0 || latency < 0) throw std::invalid_argument("Link: bad parameters");
}

sim::Duration Link::serialisation(std::size_t bytes) const {
  return static_cast<sim::Duration>(static_cast<double>(bytes) * 8.0 / rate_bps_ * 1e9);
}

sim::Time Link::transmit(sim::Time now, std::size_t bytes) {
  sim::Time start = std::max(now, free_at_);
  sim::Duration ser = serialisation(bytes);
  free_at_ = start + static_cast<sim::Time>(ser);
  busy_ns_ += static_cast<double>(ser);
  ++frames_;
  bytes_ += bytes;
  return free_at_ + static_cast<sim::Time>(latency_);
}

sim::Time Link::peek(sim::Time now, std::size_t bytes) const {
  sim::Time start = std::max(now, free_at_);
  return start + static_cast<sim::Time>(serialisation(bytes)) +
         static_cast<sim::Time>(latency_);
}

double Link::utilisation(sim::Time start, sim::Time end) const {
  if (end <= start) return 0.0;
  return std::min(1.0, busy_ns_ / static_cast<double>(end - start));
}

void Link::reset() {
  free_at_ = 0;
  frames_ = 0;
  bytes_ = 0;
  busy_ns_ = 0;
  // Reinstall the plan so the fault stream restarts from the seed —
  // reset() means "rewind the experiment", and a rewound run must see
  // the same losses.
  if (faults_) set_fault_plan(faults_->plan);
}

void Link::set_fault_plan(FaultPlan plan) {
  if (!plan.enabled()) {
    faults_.reset();
    return;
  }
  // Fork the per-link stream from the plan seed and the link name, so
  // two links sharing one plan draw independently.
  Rng stream = Rng(plan.seed).fork(hash_bytes(name_.data(), name_.size()));
  faults_ = std::make_unique<FaultState>(std::move(plan), stream);
}

const FaultStats& Link::fault_stats() const {
  return faults_ ? faults_->stats : kNoFaultStats;
}

bool Link::down_at(sim::Time t) const {
  for (const FaultWindow& w : faults_->plan.down)
    if (w.contains(t)) return true;
  return false;
}

void Link::impair_copy(Delivery& d) {
  FaultState& fs = *faults_;
  if (fs.plan.corrupt > 0 && fs.rng.uniform01() < fs.plan.corrupt) {
    Corruption c;
    c.offset = fs.rng.next_u32();
    c.mask = static_cast<std::uint8_t>(1u << fs.rng.uniform(0, 7));
    d.add_corruption(c);
    ++fs.stats.frames_corrupted;
  }
  if (fs.plan.reorder > 0 && fs.rng.uniform01() < fs.plan.reorder) {
    d.at += static_cast<sim::Time>(fs.plan.reorder_delay);
    d.reordered = true;
    ++fs.stats.frames_reordered;
  }
}

FaultOutcome Link::transmit_faulty(sim::Time now, std::size_t bytes) {
  FaultOutcome out;
  Delivery start;
  start.at = now;
  extend_faulty(start, bytes, out);
  return out;
}

void Link::extend_faulty(const Delivery& incoming, std::size_t bytes,
                         FaultOutcome& out) {
  if (!faults_) {
    Delivery d = incoming;
    d.at = transmit(incoming.at, bytes);
    out.push(d);
    return;
  }
  FaultState& fs = *faults_;
  ++fs.stats.frames_offered;
  fs.stats.bytes_offered += bytes;
  if (down_at(incoming.at)) {
    ++fs.stats.frames_flap_dropped;
    ++fs.stats.frames_dropped;
    fs.stats.bytes_dropped += bytes;
    return;
  }
  // Fixed draw order (drop, duplicate, then per-copy impairments) so a
  // given frame sequence always consumes the stream identically.
  bool drop = fs.plan.drop > 0 && fs.rng.uniform01() < fs.plan.drop;
  bool dup = fs.plan.duplicate > 0 && fs.rng.uniform01() < fs.plan.duplicate;
  sim::Time arrival = transmit(incoming.at, bytes);
  if (drop) {
    ++fs.stats.frames_dropped;
    fs.stats.bytes_dropped += bytes;
  } else {
    Delivery d = incoming;
    d.at = arrival;
    d.reordered = incoming.reordered;
    impair_copy(d);
    out.push(d);
  }
  if (dup) {
    ++fs.stats.frames_duplicated;
    fs.stats.bytes_duplicated += bytes;
    Delivery d = incoming;
    d.at = transmit(incoming.at, bytes);
    impair_copy(d);
    out.push(d);
  }
}

sim::Time Path::deliver(sim::Time now, std::size_t bytes) {
  sim::Time t = now;
  for (Link* link : links_) t = link->transmit(t, bytes);
  return t;
}

FaultOutcome Path::deliver_faulty(sim::Time now, std::size_t bytes) {
  FaultOutcome copies;
  Delivery start;
  start.at = now;
  copies.push(start);
  for (Link* link : links_) {
    FaultOutcome next;
    for (const Delivery& d : copies) link->extend_faulty(d, bytes, next);
    copies = next;
    if (copies.dropped()) break;
  }
  return copies;
}

sim::Duration Path::base_latency() const {
  sim::Duration total = 0;
  for (const Link* link : links_) total += link->latency();
  return total;
}

}  // namespace endbox::netsim
