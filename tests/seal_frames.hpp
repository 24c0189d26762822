// Test helpers over the tunnel endpoints' one seal entry point: seal a
// packet (or a ping) into fresh complete wire frames, for tests that
// handle frames one at a time and do not care about buffer reuse; and
// seal one message body with given keys through the seal body
// (vpn::SealRun), for tests that forge or compare bodies.
#pragma once

#include <cstdint>
#include <vector>

#include "vpn/client.hpp"
#include "vpn/server.hpp"

namespace endbox::vpn {

inline std::vector<Bytes> seal_frames(VpnClientSession& client, ByteView ip_packet) {
  std::vector<Bytes> frames;
  client.seal_packet_wire_at(ip_packet, frames, 0);
  return frames;
}

inline std::vector<Bytes> seal_frames(VpnServer& server, std::uint32_t session_id,
                                      ByteView ip_packet) {
  std::vector<Bytes> frames;
  server.seal_packet_wire_at(session_id, ip_packet, frames, 0);
  return frames;
}

inline Bytes ping_frame(VpnClientSession& client) {
  Bytes frame;
  client.create_ping_wire(frame);
  return frame;
}

/// The body of a wire frame: everything after [type][session_id].
inline Bytes body_of(const Bytes& frame) {
  return Bytes(frame.begin() + kWireHeaderSize, frame.end());
}

/// One fragment sealed as a run of one, returned without its wire header.
inline Bytes seal_body(const SessionKeys& keys, MsgType type, const FragmentHeader& frag,
                       ByteView payload, Rng& rng) {
  Bytes frame;
  SealRun run(keys, type, 0, rng);
  run.add(frag, payload, frame);
  run.flush();
  return body_of(frame);
}

inline Bytes seal_data_body(const SessionKeys& keys, const FragmentHeader& frag,
                            ByteView payload, Rng& rng) {
  return seal_body(keys, MsgType::Data, frag, payload, rng);
}

inline Bytes seal_integrity_body(const SessionKeys& keys, const FragmentHeader& frag,
                                 ByteView payload) {
  Rng unused(0);  // integrity-only bodies draw no IV
  return seal_body(keys, MsgType::DataIntegrityOnly, frag, payload, unused);
}

inline Bytes seal_ping_body(const SessionKeys& keys, const PingInfo& info) {
  Bytes frame;
  Rng unused(0);
  SealRun run(keys, MsgType::Ping, 0, unused);
  run.add(info, frame);
  run.flush();
  return body_of(frame);
}

}  // namespace endbox::vpn
