#include "click/standard_elements.hpp"

#include <charconv>
#include <sstream>

#include "click/registry.hpp"

namespace endbox::click {

namespace {

Result<long> parse_int(const std::string& text) {
  long value = 0;
  // Accept 0x-prefixed hex (SetTos(0xeb)) and decimal.
  int base = 10;
  std::string_view sv = text;
  if (sv.starts_with("0x") || sv.starts_with("0X")) {
    base = 16;
    sv.remove_prefix(2);
  }
  auto [ptr, ec] = std::from_chars(sv.data(), sv.data() + sv.size(), value, base);
  if (ec != std::errc() || ptr != sv.data() + sv.size())
    return err("expected a number, got '" + text + "'");
  return value;
}

}  // namespace

// ---- Counter ----------------------------------------------------------

void Counter::push_batch(int /*port*/, PacketBatch&& batch) {
  count(kPackets, batch.size());
  for (const net::Packet& packet : batch) count(kBytes, packet.wire_size());
  output_batch(0, std::move(batch));
}

// ---- Discard ----------------------------------------------------------

void Discard::push_batch(int /*port*/, PacketBatch&& batch) {
  count(kDiscarded, batch.size());
  batch.clear();
}

// ---- Tee --------------------------------------------------------------

Status Tee::configure(const std::vector<std::string>& args) {
  if (args.empty()) return {};
  if (args.size() > 1) return err("Tee takes at most one argument");
  auto n = parse_int(args[0]);
  if (!n.ok()) return err(n.error());
  if (*n < 1 || *n > 64) return err("Tee output count out of range");
  n_outputs_ = static_cast<int>(*n);
  return {};
}

void Tee::push_batch(int /*port*/, PacketBatch&& batch) {
  for (int i = 1; i < n_outputs_; ++i) {
    for (const net::Packet& packet : batch) {
      net::Packet copy = packet;
      dup_scratch_.push_back(std::move(copy));
    }
    output_batch(i, std::move(dup_scratch_));
    dup_scratch_.clear();
  }
  output_batch(0, std::move(batch));
}

// ---- Queue ------------------------------------------------------------

Status Queue::configure(const std::vector<std::string>& args) {
  if (args.empty()) return {};
  if (args.size() > 1) return err("Queue takes at most one argument");
  auto n = parse_int(args[0]);
  if (!n.ok()) return err(n.error());
  if (*n < 1) return err("Queue capacity must be positive");
  capacity_ = static_cast<std::size_t>(*n);
  return {};
}

void Queue::push_batch(int /*port*/, PacketBatch&& batch) {
  for (net::Packet& packet : batch) {
    if (queue_.size() >= capacity_) {
      count(kDrops);
      continue;
    }
    queue_.push_back(std::move(packet));
  }
  batch.clear();
}

std::optional<net::Packet> Queue::pop() {
  if (queue_.empty()) return std::nullopt;
  net::Packet p = std::move(queue_.front());
  queue_.pop_front();
  return p;
}

// ---- SetTos -----------------------------------------------------------

Status SetTos::configure(const std::vector<std::string>& args) {
  if (args.size() != 1) return err("SetTos requires exactly one argument");
  auto n = parse_int(args[0]);
  if (!n.ok()) return err(n.error());
  if (*n < 0 || *n > 255) return err("TOS value out of range");
  tos_ = static_cast<std::uint8_t>(*n);
  return {};
}

void SetTos::push_batch(int /*port*/, PacketBatch&& batch) {
  for (net::Packet& packet : batch) packet.tos = tos_;
  output_batch(0, std::move(batch));
}

// ---- Paint ------------------------------------------------------------

Status Paint::configure(const std::vector<std::string>& args) {
  if (args.size() != 1) return err("Paint requires exactly one argument");
  auto n = parse_int(args[0]);
  if (!n.ok()) return err(n.error());
  color_ = static_cast<std::uint32_t>(*n);
  return {};
}

void Paint::push_batch(int /*port*/, PacketBatch&& batch) {
  for (net::Packet& packet : batch) packet.flow_hint = color_;
  output_batch(0, std::move(batch));
}

// ---- RoundRobinSwitch ---------------------------------------------------

Status RoundRobinSwitch::configure(const std::vector<std::string>& args) {
  if (args.empty() || args.size() > 4)
    return err("RoundRobinSwitch requires 1 to 4 arguments");
  auto n = parse_int(args[0]);
  if (!n.ok()) return err(n.error());
  if (*n < 1 || *n > 256) return err("RoundRobinSwitch output count out of range");
  n_outputs_ = static_cast<int>(*n);
  if (args.size() >= 2) {
    if (args[1] == "FLOW") {
      flow_mode_ = true;
    } else if (args[1] == "PACKET") {
      flow_mode_ = false;
    } else {
      return err("RoundRobinSwitch mode must be FLOW or PACKET");
    }
  }
  FlowTable::Options options;
  options.capacity = std::size_t{1} << 16;
  options.wheel.tick = 1;  // flow-table time is the element packet count
  if (args.size() >= 3) {
    auto max_flows = parse_int(args[2]);
    if (!max_flows.ok()) return err(max_flows.error());
    if (*max_flows < 1) return err("RoundRobinSwitch MAX_FLOWS must be positive");
    options.capacity = static_cast<std::size_t>(*max_flows);
  }
  if (args.size() == 4) {
    auto idle = parse_int(args[3]);
    if (!idle.ok()) return err(idle.error());
    if (*idle < 0) return err("RoundRobinSwitch IDLE_PKTS must be non-negative");
    options.idle_timeout = static_cast<sim::Time>(*idle);
  }
  flow_table_ = FlowTable(options);
  return {};
}

int RoundRobinSwitch::route(const net::Packet& packet) {
  if (flow_mode_) {
    ++logical_now_;
    flow_table_.expire_idle(logical_now_, [](const net::FlowKey&, int&&) {});
    auto key = net::FlowKey::of(packet);
    if (auto* entry = flow_table_.find_touch(key, logical_now_))
      return entry->value;
    int out = next_;
    next_ = (next_ + 1) % n_outputs_;
    // A full table routes without pinning: bounded memory, the flow
    // merely loses stickiness until older pins expire.
    if (!flow_table_.insert(key, int{out}, logical_now_)) ++unpinned_;
    return out;
  }
  int out = next_;
  next_ = (next_ + 1) % n_outputs_;
  return out;
}

void RoundRobinSwitch::push_batch(int /*port*/, PacketBatch&& batch) {
  // Re-batch per output port (allocated once, reused across bursts) so
  // every downstream element still sees one virtual call per burst.
  if (port_scratch_.size() < static_cast<std::size_t>(n_outputs_))
    port_scratch_.resize(static_cast<std::size_t>(n_outputs_));
  for (net::Packet& packet : batch)
    port_scratch_[static_cast<std::size_t>(route(packet))].push_back(std::move(packet));
  batch.clear();
  for (int out = 0; out < n_outputs_; ++out) {
    output_batch(out, std::move(port_scratch_[static_cast<std::size_t>(out)]));
    port_scratch_[static_cast<std::size_t>(out)].clear();
  }
}

void RoundRobinSwitch::absorb_state(Element& old_element) {
  // Pins move in migrate_flows; only the cursor folds here (the last
  // old shard folded into this one wins).
  next_ = static_cast<RoundRobinSwitch&>(old_element).next_ % n_outputs_;
}

void RoundRobinSwitch::migrate_flows(
    const std::function<Element*(const net::FlowKey&)>& target_for) {
  // Each pin follows its flow to the target, so the flow keeps its
  // output. Pins whose port survives move, first assignment winning on
  // a key collision; ages restart at the target's clock (this
  // element's packet count is a different timeline). The capacity
  // bound holds: an over-full target sheds the excess as unpinned.
  flow_table_.extract_all([&](net::FlowKey&& key, int&& out, sim::Time) {
    auto* target = dynamic_cast<RoundRobinSwitch*>(target_for(key));
    if (!target || out >= target->n_outputs_ || target->flow_table_.contains(key))
      return;
    if (!target->flow_table_.insert(key, int{out}, target->logical_now_))
      ++target->unpinned_;
  });
}

// ---- CheckIPHeader -------------------------------------------------------

namespace {
bool implausible_header(const net::Packet& packet) {
  return packet.ttl == 0 || packet.src == net::Ipv4() || packet.dst == net::Ipv4();
}
}  // namespace

void CheckIPHeader::push_batch(int /*port*/, PacketBatch&& batch) {
  partition_batch(batch, reject_scratch_, [this](net::Packet& packet) {
    if (!implausible_header(packet)) return true;
    count(kBad);
    packet.dropped = true;
    return false;
  });
  output_batch(0, std::move(batch));
  output_batch(1, std::move(reject_scratch_));
  reject_scratch_.clear();
}

// ---- IPFilter -------------------------------------------------------------

bool IPFilter::Rule::matches(const net::Packet& p) const {
  if (match_all) return true;
  if (src && !p.src.in_subnet(*src, src_prefix)) return false;
  if (dst && !p.dst.in_subnet(*dst, dst_prefix)) return false;
  if (proto && p.proto != *proto) return false;
  if (src_port && p.src_port != *src_port) return false;
  if (dst_port && p.dst_port != *dst_port) return false;
  return true;
}

Result<IPFilter::Rule> IPFilter::parse_rule(const std::string& text) {
  std::istringstream in(text);
  std::string word;
  if (!(in >> word)) return err("empty rule");

  Rule rule;
  if (word == "allow") {
    rule.allow = true;
  } else if (word == "drop" || word == "deny") {
    rule.allow = false;
  } else {
    return err("rule must start with allow/drop: '" + text + "'");
  }

  bool any_condition = false;
  while (in >> word) {
    if (word == "all") {
      rule.match_all = true;
      any_condition = true;
    } else if (word == "src" || word == "dst") {
      bool is_src = word == "src";
      std::string next;
      if (!(in >> next)) return err("dangling '" + word + "' in rule");
      if (next == "port") {
        std::string port_text;
        if (!(in >> port_text)) return err("missing port number");
        auto port = parse_int(port_text);
        if (!port.ok() || *port < 0 || *port > 65535)
          return err("bad port '" + port_text + "'");
        (is_src ? rule.src_port : rule.dst_port) = static_cast<std::uint16_t>(*port);
      } else {
        // IP[/prefix]
        unsigned prefix = 32;
        std::string addr_text = next;
        if (auto slash = next.find('/'); slash != std::string::npos) {
          addr_text = next.substr(0, slash);
          auto p = parse_int(next.substr(slash + 1));
          if (!p.ok() || *p < 0 || *p > 32) return err("bad prefix in '" + next + "'");
          prefix = static_cast<unsigned>(*p);
        }
        auto addr = net::Ipv4::parse(addr_text);
        if (!addr) return err("bad IP address '" + addr_text + "'");
        if (is_src) {
          rule.src = *addr;
          rule.src_prefix = prefix;
        } else {
          rule.dst = *addr;
          rule.dst_prefix = prefix;
        }
      }
      any_condition = true;
    } else if (word == "proto") {
      std::string proto_text;
      if (!(in >> proto_text)) return err("missing protocol");
      if (proto_text == "tcp") rule.proto = net::IpProto::Tcp;
      else if (proto_text == "udp") rule.proto = net::IpProto::Udp;
      else if (proto_text == "icmp") rule.proto = net::IpProto::Icmp;
      else return err("unknown protocol '" + proto_text + "'");
      any_condition = true;
    } else {
      return err("unknown rule token '" + word + "'");
    }
  }
  if (!any_condition) return err("rule has no conditions: '" + text + "'");
  return rule;
}

Status IPFilter::configure(const std::vector<std::string>& args) {
  if (args.empty()) return err("IPFilter requires at least one rule");
  rules_.clear();
  for (const auto& arg : args) {
    auto rule = parse_rule(arg);
    if (!rule.ok()) return err(rule.error());
    rules_.push_back(*rule);
  }
  return {};
}

bool IPFilter::allows(const net::Packet& packet) {
  for (const auto& rule : rules_) {
    count(kRulesEvaluated);
    if (rule.matches(packet)) return rule.allow;
  }
  return true;  // unmatched packets are allowed
}

void IPFilter::push_batch(int /*port*/, PacketBatch&& batch) {
  partition_batch(batch, reject_scratch_, [this](net::Packet& packet) {
    if (allows(packet)) return true;
    count(kDropped);
    packet.dropped = true;
    return false;
  });
  output_batch(0, std::move(batch));
  output_batch(1, std::move(reject_scratch_));
  reject_scratch_.clear();
}

// ---- Registration ------------------------------------------------------

void register_standard_elements(ElementRegistry& registry) {
  registry.register_class("Counter", [] { return std::make_unique<Counter>(); });
  registry.register_class("Discard", [] { return std::make_unique<Discard>(); });
  registry.register_class("Tee", [] { return std::make_unique<Tee>(); });
  registry.register_class("Queue", [] { return std::make_unique<Queue>(); });
  registry.register_class("SetTos", [] { return std::make_unique<SetTos>(); });
  registry.register_class("Paint", [] { return std::make_unique<Paint>(); });
  registry.register_class("RoundRobinSwitch",
                          [] { return std::make_unique<RoundRobinSwitch>(); });
  registry.register_class("CheckIPHeader",
                          [] { return std::make_unique<CheckIPHeader>(); });
  registry.register_class("IPFilter", [] { return std::make_unique<IPFilter>(); });
}

}  // namespace endbox::click
