// Test oracle for the gateway's batched open: the same burst fed frame
// by frame through VpnServer::handle() on a twin server. Completed
// packets surface in arrival order (burst_tag = arrival index), every
// error is one rejected frame, and every frame that authenticated —
// whether it completed a packet or left a fragment pending — lists its
// session in opened_sessions, as open_batch reports them.
#pragma once

#include <span>
#include <utility>
#include <variant>

#include "vpn/server.hpp"

namespace endbox::oracle {

inline void open_by_handle(vpn::VpnServer& server, std::span<const Bytes> wires,
                           sim::Time now, vpn::VpnServer::OpenBatch& out) {
  out = {};
  for (std::size_t i = 0; i < wires.size(); ++i) {
    auto event = server.handle(wires[i], now);
    if (!event.ok()) {
      ++out.rejected;
    } else if (auto* in = std::get_if<vpn::VpnServer::PacketIn>(&*event)) {
      ++out.complete;
      out.opened_sessions.push_back(in->session_id);
      out.packets.push_back({in->session_id, static_cast<std::uint32_t>(i),
                             in->was_encrypted, std::move(in->ip_packet)});
    } else if (auto* pending = std::get_if<vpn::VpnServer::FragmentPending>(&*event)) {
      ++out.pending;
      out.opened_sessions.push_back(pending->session_id);
    } else {
      ++out.rejected;  // handshakes and pings are not data frames
    }
  }
  out.packet_count = out.packets.size();
}

}  // namespace endbox::oracle
