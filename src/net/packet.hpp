// IP packet representation used everywhere inside EndBox.
//
// Packets flow application -> tun device -> Click graph -> VPN data
// channel, so the same object must support header inspection and
// mutation (firewall, QoS flagging), payload access (IDPS, TLS
// decryption) and serialisation to wire bytes (VPN encryption).
//
// The representation keeps parsed header fields plus the L4 payload; it
// serialises to a real IPv4 header (+ TCP/UDP/ICMP header) with valid
// checksums, and parses back. No options support — the paper's
// middlebox functions never use IP options.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/bytes.hpp"
#include "common/hash.hpp"
#include "common/result.hpp"
#include "net/ip.hpp"

namespace endbox::elements {
struct FlowContext;  // per-flow stream state (elements/flow_context.hpp)
}

namespace endbox::net {

inline constexpr std::size_t kIpv4HeaderSize = 20;
inline constexpr std::size_t kTcpHeaderSize = 20;
inline constexpr std::size_t kUdpHeaderSize = 8;
inline constexpr std::size_t kIcmpHeaderSize = 8;

/// QoS/DSCP value EndBox clients set on packets that already traversed
/// a Click graph, so the receiving client can skip reprocessing
/// (section IV-A, client-to-client optimisation).
inline constexpr std::uint8_t kProcessedQosFlag = 0xeb;

struct Packet {
  // --- IP header ---
  Ipv4 src;
  Ipv4 dst;
  IpProto proto = IpProto::Udp;
  std::uint8_t tos = 0;    ///< type-of-service / QoS byte
  std::uint8_t ttl = 64;
  std::uint16_t ip_id = 0;

  // --- L4 header (interpretation depends on proto) ---
  std::uint16_t src_port = 0;   ///< TCP/UDP source port
  std::uint16_t dst_port = 0;   ///< TCP/UDP destination port
  std::uint32_t seq = 0;        ///< TCP sequence number
  std::uint32_t ack = 0;        ///< TCP ack number
  std::uint8_t tcp_flags = 0;   ///< TCP flags (SYN=0x02, ACK=0x10, ...)
  std::uint8_t icmp_type = 0;   ///< ICMP type (8=echo request, 0=reply)
  std::uint8_t icmp_code = 0;
  std::uint16_t icmp_id = 0;
  std::uint16_t icmp_seq = 0;

  // --- Payload ---
  Bytes payload;

  // --- Metadata (not serialised; used by elements and the simulator) ---
  bool dropped = false;             ///< marked for discard by an element
  std::uint32_t flow_hint = 0;      ///< LB flow assignment annotation
  std::uint32_t burst_tag = 0;      ///< arrival index within a burst: the
                                    ///< per-flow order witness across lanes
  Bytes decrypted_payload;          ///< plaintext attached by TLSDecrypt for
                                    ///< downstream inspection (never sent)
  /// Per-flow stream context, set by CTXManager for classified TCP
  /// flows and cleared by TCPOut before the packet leaves the graph.
  /// Valid only within one burst (contexts are lane-local and can
  /// idle-expire between bursts); never dereferenced outside it.
  elements::FlowContext* flow_ctx = nullptr;
  /// Stream window annotation, set by TCPIn: payload[stream_off,
  /// stream_off+stream_len) is the run of *new in-order stream bytes*
  /// this packet contributes (retransmitted/overlapping prefixes
  /// excluded). stream_scan marks that TCPIn processed the packet, so
  /// a zero-length window means "nothing new to scan" rather than "no
  /// stream path present".
  std::uint32_t stream_off = 0;
  std::uint32_t stream_len = 0;
  bool stream_scan = false;

  std::size_t l4_header_size() const;
  /// Total serialised length (IP header + L4 header + payload).
  std::size_t wire_size() const { return kIpv4HeaderSize + l4_header_size() + payload.size(); }

  bool processed_flag() const { return tos == kProcessedQosFlag; }
  void set_processed_flag() { tos = kProcessedQosFlag; }
  void clear_processed_flag() { tos = 0; }

  /// Serialises to wire bytes with correct IP/L4 checksums.
  Bytes serialize() const;
  /// Serialises into `out` (cleared, reserved to the exact wire size);
  /// reusing one Bytes across packets of similar size never reallocates.
  void serialize_into(Bytes& out) const;
  /// Parses wire bytes; verifies lengths and the IP header checksum.
  static Result<Packet> parse(ByteView wire);
  /// Parses into an existing packet, reusing its payload capacity (the
  /// pooled ingress path parses without allocating). All fields are
  /// overwritten; on error `out` is left in an unspecified state.
  static Status parse_into(ByteView wire, Packet& out);

  std::string summary() const;

  // Convenience constructors -------------------------------------------
  static Packet udp(Ipv4 src, Ipv4 dst, std::uint16_t sport, std::uint16_t dport,
                    Bytes payload);
  static Packet tcp(Ipv4 src, Ipv4 dst, std::uint16_t sport, std::uint16_t dport,
                    std::uint32_t seq, std::uint32_t ack, std::uint8_t flags,
                    Bytes payload);
  static Packet icmp_echo_request(Ipv4 src, Ipv4 dst, std::uint16_t id,
                                  std::uint16_t seq, Bytes payload = {});
  static Packet icmp_echo_reply(const Packet& request);
};

/// 5-tuple flow identity used by stateful elements (LB, DDoS limiter).
struct FlowKey {
  Ipv4 src, dst;
  std::uint16_t src_port = 0, dst_port = 0;
  IpProto proto = IpProto::Udp;

  bool operator==(const FlowKey&) const = default;
  static FlowKey of(const Packet& p) {
    return FlowKey{p.src, p.dst, p.src_port, p.dst_port, p.proto};
  }
};

}  // namespace endbox::net

template <>
struct std::hash<endbox::net::FlowKey> {
  std::size_t operator()(const endbox::net::FlowKey& k) const noexcept {
    // splitmix64 finaliser over the packed 5-tuple. A multiplicative
    // h*31 combine leaves the low bits dominated by the ports, so flow
    // tables degrade under adversarial (sequential or strided) port
    // patterns; the finaliser diffuses every input bit into every
    // output bit.
    std::uint64_t addrs = (static_cast<std::uint64_t>(k.src.value()) << 32) |
                          k.dst.value();
    std::uint64_t rest = (static_cast<std::uint64_t>(k.src_port) << 24) |
                         (static_cast<std::uint64_t>(k.dst_port) << 8) |
                         static_cast<std::uint64_t>(k.proto);
    return static_cast<std::size_t>(
        endbox::splitmix64(addrs ^ endbox::splitmix64(rest)));
  }
};
