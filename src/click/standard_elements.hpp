// Standard Click elements used by the EndBox middlebox configurations:
// counting, discarding, duplication, queueing, header mutation,
// round-robin load balancing (the LB use case) and IPFilter (the FW use
// case). EndBox-specific elements (IDSMatcher, TrustedSplitter,
// TLSDecrypt, device glue) live in src/elements.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>

#include "click/element.hpp"
#include "common/lifecycle_table.hpp"
#include "net/ip.hpp"
#include "net/packet.hpp"

namespace endbox::click {

/// Counts packets and bytes flowing through; state survives hot-swap.
class Counter : public Element {
 public:
  std::string_view class_name() const override { return "Counter"; }
  void push_batch(int port, PacketBatch&& batch) override;

  std::uint64_t packets() const { return counter(kPackets); }
  std::uint64_t bytes() const { return counter(kBytes); }

 private:
  enum Slot { kPackets, kBytes };
};

/// Silently drops every packet.
class Discard : public Element {
 public:
  std::string_view class_name() const override { return "Discard"; }
  void push_batch(int port, PacketBatch&& batch) override;
  std::uint64_t discarded() const { return counter(kDiscarded); }

 private:
  enum Slot { kDiscarded };
};

/// Duplicates each packet to all N outputs. `Tee(3)` has 3 outputs.
class Tee : public Element {
 public:
  std::string_view class_name() const override { return "Tee"; }
  Status configure(const std::vector<std::string>& args) override;
  void push_batch(int port, PacketBatch&& batch) override;
  int n_outputs() const override { return n_outputs_; }

 private:
  int n_outputs_ = 2;
  PacketBatch dup_scratch_;  ///< reused copy burst for outputs 1..N-1
};

/// Bounded FIFO; drops at the tail when full. `Queue(capacity)`.
class Queue : public Element {
 public:
  std::string_view class_name() const override { return "Queue"; }
  Status configure(const std::vector<std::string>& args) override;
  void push_batch(int port, PacketBatch&& batch) override;

  /// Dequeues the head packet, if any (pull side).
  std::optional<net::Packet> pop();
  std::size_t size() const { return queue_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t drops() const { return counter(kDrops); }

 private:
  enum Slot { kDrops };

  std::size_t capacity_ = 1000;
  std::deque<net::Packet> queue_;
};

/// Sets the IP TOS byte: `SetTos(0xeb)` or decimal.
class SetTos : public Element {
 public:
  std::string_view class_name() const override { return "SetTos"; }
  Status configure(const std::vector<std::string>& args) override;
  void push_batch(int port, PacketBatch&& batch) override;

 private:
  std::uint8_t tos_ = 0;
};

/// Annotates packets with a colour in flow_hint: `Paint(7)`.
class Paint : public Element {
 public:
  std::string_view class_name() const override { return "Paint"; }
  Status configure(const std::vector<std::string>& args) override;
  void push_batch(int port, PacketBatch&& batch) override;

 private:
  std::uint32_t color_ = 0;
};

/// The LB use case (section V-B): balances packets or flows across N
/// outputs. `RoundRobinSwitch(N)` is per-packet; an optional second
/// argument FLOW pins each 5-tuple flow to one output, as stateful
/// middleboxes require (section II-B).
///
/// The flow table is bounded lifecycle state (cf. FastClick's bounded
/// flow managers): `RoundRobinSwitch(N, FLOW, MAX_FLOWS, IDLE_PKTS)`
/// caps the table at MAX_FLOWS pins (overflow traffic still balances
/// round-robin, it just loses stickiness — counted in
/// unpinned_flows()) and expires pins idle for IDLE_PKTS packets of
/// element time (a packet-count timer wheel; 0 = never). Defaults keep
/// the former unbounded-feeling behaviour at a 64k cap.
///
/// Hot-swap and reshard keep the round-robin cursor (absorb_state) and
/// move each pin to the shard its flow hashes to (migrate_flows), so a
/// flow keeps its output across both.
class RoundRobinSwitch : public Element {
 public:
  std::string_view class_name() const override { return "RoundRobinSwitch"; }
  Status configure(const std::vector<std::string>& args) override;
  void push_batch(int port, PacketBatch&& batch) override;
  void absorb_state(Element& old_element) override;
  void migrate_flows(const std::function<Element*(const net::FlowKey&)>&
                         target_for) override;
  int n_outputs() const override { return n_outputs_; }

  std::size_t tracked_flows() const { return flow_table_.size(); }
  std::size_t max_flows() const { return flow_table_.capacity(); }
  std::uint64_t expired_flows() const { return flow_table_.stats().expired_idle; }
  std::uint64_t unpinned_flows() const { return unpinned_; }

 private:
  /// Flow pins live in a bounded LifecycleTable whose "clock" is the
  /// element's packet count (tick = 1 packet).
  using FlowTable = LifecycleTable<net::FlowKey, int>;

  /// Output port for one packet (advances round-robin/flow state).
  int route(const net::Packet& packet);

  int n_outputs_ = 2;
  bool flow_mode_ = false;
  int next_ = 0;
  FlowTable flow_table_;
  std::uint64_t logical_now_ = 0;  ///< packets routed (flow-table time)
  std::uint64_t unpinned_ = 0;     ///< routed without a pin: table full
  std::vector<PacketBatch> port_scratch_;  ///< per-output re-batch buffers
};

/// Drops packets with implausible IP headers (zero TTL, bad/zero
/// addresses); forwards good packets to output 0 and, when connected,
/// bad ones to output 1.
class CheckIPHeader : public Element {
 public:
  std::string_view class_name() const override { return "CheckIPHeader"; }
  void push_batch(int port, PacketBatch&& batch) override;
  int n_outputs() const override { return 2; }
  std::uint64_t bad_packets() const { return counter(kBad); }

 private:
  enum Slot { kBad };

  PacketBatch reject_scratch_;  ///< reused bad-packet burst for output 1
};

/// The FW use case: rule-based packet filter. Each configuration
/// argument is one rule:
///
///   (allow|drop) all
///   (allow|drop) [src IP[/LEN]] [dst IP[/LEN]] [proto tcp|udp|icmp]
///                [src port N] [dst port N]
///
/// Rules are evaluated in order; the first match decides. Unmatched
/// packets are allowed (the paper's 16-rule set matches no evaluation
/// traffic, isolating pure rule-evaluation cost). Allowed packets exit
/// output 0; dropped packets are marked and exit output 1 if connected.
class IPFilter : public Element {
 public:
  struct Rule {
    bool allow = false;
    bool match_all = false;
    std::optional<net::Ipv4> src;
    unsigned src_prefix = 32;
    std::optional<net::Ipv4> dst;
    unsigned dst_prefix = 32;
    std::optional<net::IpProto> proto;
    std::optional<std::uint16_t> src_port;
    std::optional<std::uint16_t> dst_port;

    bool matches(const net::Packet& p) const;
  };

  std::string_view class_name() const override { return "IPFilter"; }
  Status configure(const std::vector<std::string>& args) override;
  void push_batch(int port, PacketBatch&& batch) override;
  int n_outputs() const override { return 2; }

  std::size_t rule_count() const { return rules_.size(); }
  std::uint64_t dropped() const { return counter(kDropped); }
  std::uint64_t rules_evaluated() const { return counter(kRulesEvaluated); }

  /// Parses one rule string (exposed for tests).
  static Result<Rule> parse_rule(const std::string& text);

 private:
  enum Slot { kDropped, kRulesEvaluated };

  /// First-match verdict for one packet (tallies rules evaluated).
  bool allows(const net::Packet& packet);

  std::vector<Rule> rules_;
  PacketBatch reject_scratch_;  ///< reused dropped-packet burst for output 1
};

}  // namespace endbox::click
