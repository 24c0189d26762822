// Test oracle for IPFilter: first-match rule evaluation written on the
// raw 32-bit address values, sharing no code with IPFilter::Rule or
// Ipv4::in_subnet. A rule without conditions matches every packet;
// unmatched packets pass.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/packet.hpp"

namespace endbox::oracle {

struct FilterRule {
  struct Prefix {
    std::uint32_t address = 0;
    unsigned length = 32;  ///< 0..32
  };
  bool allow = false;
  std::optional<Prefix> src, dst;
  std::optional<net::IpProto> proto;
  std::optional<std::uint16_t> src_port, dst_port;
};

/// True when the top `p.length` bits of `address` equal the prefix's.
inline bool in_prefix(std::uint32_t address, const FilterRule::Prefix& p) {
  return (std::uint64_t{address ^ p.address} >> (32 - p.length)) == 0;
}

/// The verdict of the first rule matching `packet`; true when none does.
inline bool ip_filter_allows(const std::vector<FilterRule>& rules,
                             const net::Packet& packet) {
  for (const FilterRule& rule : rules) {
    if (rule.src && !in_prefix(packet.src.value(), *rule.src)) continue;
    if (rule.dst && !in_prefix(packet.dst.value(), *rule.dst)) continue;
    if (rule.proto && packet.proto != *rule.proto) continue;
    if (rule.src_port && packet.src_port != *rule.src_port) continue;
    if (rule.dst_port && packet.dst_port != *rule.dst_port) continue;
    return rule.allow;
  }
  return true;
}

}  // namespace endbox::oracle
