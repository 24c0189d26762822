// VPN wire format.
//
//   message   := [type:1][session_id:4][body]
//   Data body := [packet_id:8][frag_id:4][index:2][count:2]
//                [iv:16][ciphertext][mac:32]            (encrypted mode)
//   Integ body:= [packet_id:8][frag_id:4][index:2][count:2]
//                [plaintext][mac:32]                    (ISP integrity-only)
//   Ping body := [seq:8][config_version:4][grace_secs:4][mac:32]
//
// MACs are HMAC-SHA-256 over the body prefix plus a direction label,
// keyed with the session MAC key — crafted pings from outside the
// enclave fail authentication (section III-E).
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "common/result.hpp"

namespace endbox::vpn {

/// Protocol version constants (mirroring the TLS versions OpenVPN's
/// control channel negotiates).
inline constexpr std::uint16_t kVersionTls12 = 0x0303;
inline constexpr std::uint16_t kVersionTls13 = 0x0304;

enum class MsgType : std::uint8_t {
  HandshakeInit = 1,
  HandshakeReply = 2,
  Data = 3,
  DataIntegrityOnly = 4,
  Ping = 5,
};

struct WireMessage {
  MsgType type = MsgType::Data;
  std::uint32_t session_id = 0;
  Bytes body;

  Bytes serialize() const;
  /// Serialises into `out` (cleared, reserved to the exact frame size);
  /// reuse of one Bytes never reallocates in steady state.
  void serialize_into(Bytes& out) const;
  static Result<WireMessage> parse(ByteView wire);
};

/// Size of the wire header in front of every message body.
inline constexpr std::size_t kWireHeaderSize = 5;

/// Checks the wire header in place and returns the message type, with
/// the errors WireMessage::parse reports; copies nothing.
Result<MsgType> parse_wire_type(ByteView wire);

/// Parsed fields of a ping message (authenticated keep-alive carrying
/// the configuration version and grace period, section III-E).
struct PingInfo {
  std::uint64_t seq = 0;
  std::uint32_t config_version = 0;
  std::uint32_t grace_period_secs = 0;
};

/// Fragment header carried by every data message.
struct FragmentHeader {
  std::uint64_t packet_id = 0;
  std::uint32_t frag_id = 0;
  std::uint16_t index = 0;
  std::uint16_t count = 1;
};

}  // namespace endbox::vpn
