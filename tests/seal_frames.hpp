// Test helpers over the tunnel endpoints' one seal entry point: seal a
// packet (or a ping) into fresh complete wire frames, for tests that
// handle frames one at a time and do not care about buffer reuse.
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

}  // namespace endbox::vpn
