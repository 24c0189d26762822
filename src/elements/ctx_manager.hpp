// CTXManager: head of the stream-aware chain (MiddleClick's context
// manager). Classifies each TCP packet to its per-flow context — one
// bounded, idle-expiring LifecycleTable lookup — and attaches the
// context as a packet annotation, so TCPIn and IDSMatcher downstream
// read per-flow state without their own tables or lookups.
//
//   CTXManager(CAPACITY 4096, IDLE_PKTS 8192,
//              PARK_SEGS 32, PARK_BYTES 65536, PARK_AGE 4096)
//
// All times are *lane-logical* (packets processed by this element),
// like RoundRobinSwitch's flow pins: deterministic, identical across
// runs, and free of in-enclave time ocalls. Flows beyond CAPACITY get
// no context and gracefully degrade to per-packet inspection
// (counted in table stats as rejected_full) — degraded, never wedged.
//
// Lane-locality: RSS pins a flow to one lane, so this table is only
// ever touched by its lane's worker. Hot-swap and reshard run the same
// transfer: absorb_state folds the stream and table stats (raising the
// lane clock to the predecessor's), then migrate_flows() moves every
// live context into the table of the new CTXManager on the lane its
// flow hashes to — a table built with the new element's CAPACITY and
// IDLE_PKTS. Mid-stream scan state (reassembly cursor, automaton
// states, content hits) survives both.
#pragma once

#include "click/element.hpp"
#include "common/lifecycle_table.hpp"
#include "elements/flow_context.hpp"

namespace endbox::elements {

class CTXManager : public click::Element {
 public:
  std::string_view class_name() const override { return "CTXManager"; }
  Status configure(const std::vector<std::string>& args) override;
  void push_batch(int port, click::PacketBatch&& batch) override;
  void absorb_state(Element& old_element) override;
  void migrate_flows(const std::function<click::Element*(const net::FlowKey&)>&
                         target_for) override;

  // ---- Introspection -------------------------------------------------
  std::size_t flows_tracked() const { return table_.size(); }
  const StreamStats& stream_stats() const { return stats_; }
  const LifecycleTable<net::FlowKey, FlowContext>::Stats& table_stats() const {
    return table_.stats();
  }
  const StreamLimits& limits() const { return limits_; }
  /// Direct context access (tests): nullptr when the flow is unknown.
  FlowContext* find(const net::FlowKey& key) {
    auto* entry = table_.find(key);
    return entry ? &entry->value : nullptr;
  }

 private:
  /// Advances the lane clock, runs idle expiry, and annotates one
  /// packet with its (possibly fresh) flow context.
  void classify(net::Packet& packet);
  /// Adopts one migrated context (re-points lane plumbing, re-stamps
  /// activity to this lane's clock, fixes buffered-bytes accounting).
  void adopt(net::FlowKey key, FlowContext&& ctx);

  LifecycleTable<net::FlowKey, FlowContext> table_;
  StreamStats stats_;
  StreamLimits limits_;
};

}  // namespace endbox::elements
