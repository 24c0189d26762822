#include "elements/ctx_manager.hpp"

#include <sstream>

namespace endbox::elements {

Status CTXManager::configure(const std::vector<std::string>& args) {
  std::size_t capacity = 4096;
  sim::Time idle_pkts = 8192;
  limits_ = StreamLimits{};
  for (const auto& arg : args) {
    std::istringstream in(arg);
    std::string key;
    std::uint64_t value = 0;
    in >> key;
    if (!(in >> value)) return err("CTXManager: " + key + " needs a number");
    if (key == "CAPACITY") {
      capacity = value;
    } else if (key == "IDLE_PKTS") {
      idle_pkts = value;
    } else if (key == "PARK_SEGS") {
      limits_.park_segments = value;
    } else if (key == "PARK_BYTES") {
      limits_.park_bytes = value;
    } else if (key == "PARK_AGE") {
      limits_.park_age = value;
    } else {
      return err("CTXManager: unknown argument '" + arg + "'");
    }
  }
  if (capacity == 0) return err("CTXManager: CAPACITY must be positive");
  LifecycleTable<net::FlowKey, FlowContext>::Options options;
  options.capacity = capacity;
  options.idle_timeout = idle_pkts;
  // The lane clock counts packets, not nanoseconds: one wheel tick per
  // packet, or every deadline would round down to tick zero.
  options.wheel.tick = 1;
  table_ = LifecycleTable<net::FlowKey, FlowContext>(options);
  return {};
}

void CTXManager::classify(net::Packet& packet) {
  sim::Time now = ++stats_.logical_now;  // lane packet clock
  table_.expire_idle(now, [&](const net::FlowKey&, FlowContext&& ctx) {
    // Parked bytes of an expired flow leave the lane with it.
    stats_.bytes_buffered -= ctx.parked_bytes;
    ++stats_.flows_expired;
  });
  // Only TCP carries a byte stream; everything else passes unannotated
  // and keeps the per-packet inspection path.
  if (packet.proto != net::IpProto::Tcp) return;
  net::FlowKey key = net::FlowKey::of(packet);
  auto* entry = table_.find_touch(key, now);
  if (!entry) {
    FlowContext fresh;
    fresh.stats = &stats_;
    fresh.limits = &limits_;
    entry = table_.insert(key, std::move(fresh), now);
    if (!entry) return;  // at capacity: per-packet fallback (rejected_full)
    ++stats_.flows_classified;
  }
  packet.flow_ctx = &entry->value;
}

void CTXManager::push_batch(int /*port*/, click::PacketBatch&& batch) {
  // Pure annotator: the burst passes through intact, each packet gains
  // its context pointer. Entry pointers are deque-stable, and expiry
  // only runs inside classify() *before* the packet is annotated, so a
  // context attached earlier in the burst is never invalidated by a
  // later packet of the same burst (a flow annotated this burst was
  // touched this burst, hence not idle).
  for (auto& packet : batch) classify(packet);
  output_batch(0, std::move(batch));
}

void CTXManager::adopt(net::FlowKey key, FlowContext&& ctx) {
  std::size_t parked = ctx.parked_bytes;
  ctx.stats = &stats_;
  ctx.limits = &limits_;
  // Migration counts as activity: the source lane's clock is unrelated
  // to ours, so the old stamp would expire the flow too early or far
  // too late. Re-stamping at this lane's clock (folded before the
  // migration runs) restarts the idle window — acceptable, since a
  // transition is rare and the flow was live enough to be migrated.
  table_.insert_migrated(key, std::move(ctx), stats_.logical_now);
  ++stats_.flows_migrated_in;
  stats_.bytes_buffered += parked;
  if (stats_.bytes_buffered > stats_.bytes_buffered_peak)
    stats_.bytes_buffered_peak = stats_.bytes_buffered;
}

void CTXManager::migrate_flows(
    const std::function<click::Element*(const net::FlowKey&)>& target_for) {
  table_.extract_all([&](net::FlowKey&& key, FlowContext&& ctx,
                         sim::Time /*last_activity*/) {
    // The bytes leave this lane whether or not a target exists.
    stats_.bytes_buffered -= ctx.parked_bytes;
    auto* target = dynamic_cast<CTXManager*>(target_for(key));
    if (target) target->adopt(std::move(key), std::move(ctx));
  });
}

void CTXManager::absorb_state(Element& old_element) {
  // Stats only: live contexts move afterwards, one by one, through
  // migrate_flows into this element's table (its CAPACITY and
  // IDLE_PKTS apply from then on).
  auto& old = static_cast<CTXManager&>(old_element);
  stats_.absorb(old.stats_);
  table_.absorb_stats(old.table_.stats());
}

}  // namespace endbox::elements
