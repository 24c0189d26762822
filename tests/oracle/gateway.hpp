// Test oracle for the gateway's data-frame open: a model that needs no
// server. From what a test sealed into a burst and how it tampered with
// the frames, it works out the OpenBatch a correct gateway returns when
// it opens the burst in arrival order (one lane, or frame by frame
// through VpnServer::handle()), and the MAC and replay failures the
// burst adds to the server's counters:
//  - a packet completes at its last frame (burst_tag = that frame's
//    arrival index) when none of its frames was corrupted;
//  - every other intact frame leaves its fragment group pending: the
//    frames before the last, and all intact frames of a packet with a
//    corrupted frame;
//  - a corrupted frame fails its MAC and a replayed frame its replay
//    check; junk and unknown-session frames reject without a count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "vpn/server.hpp"

namespace endbox::oracle {

/// One packet a test sealed into a burst; its frames are contiguous.
struct SealedPacket {
  std::uint32_t session_id = 0;
  Bytes payload;
  std::size_t first_frame = 0;  ///< arrival index of its first frame
  std::size_t frame_count = 0;
};

/// Everything a test put into one burst.
struct TamperedBurst {
  std::vector<SealedPacket> packets;   ///< in seal order
  std::vector<std::size_t> corrupted;  ///< frames whose MAC no longer verifies
  std::size_t junk = 0;                ///< appended frames that are not data
  std::size_t replayed = 0;            ///< appended copies of opened frames
  std::size_t unknown = 0;             ///< appended frames naming no session
  bool encrypted = true;
};

struct GatewayVerdict {
  vpn::VpnServer::OpenBatch batch;
  std::uint64_t auth_failures = 0;
  std::uint64_t replays = 0;
};

inline GatewayVerdict expected_open(const TamperedBurst& burst) {
  GatewayVerdict verdict;
  vpn::VpnServer::OpenBatch& out = verdict.batch;
  for (const SealedPacket& packet : burst.packets) {
    auto bad = static_cast<std::uint32_t>(std::count_if(
        burst.corrupted.begin(), burst.corrupted.end(), [&](std::size_t f) {
          return f >= packet.first_frame &&
                 f < packet.first_frame + packet.frame_count;
        }));
    out.pending += static_cast<std::uint32_t>(packet.frame_count) - bad;
    if (bad > 0) continue;
    --out.pending;  // the last frame completes the packet
    ++out.complete;
    auto last = static_cast<std::uint32_t>(packet.first_frame + packet.frame_count - 1);
    out.packets.push_back({packet.session_id, last, burst.encrypted, packet.payload});
  }
  out.packet_count = out.packets.size();
  out.rejected = static_cast<std::uint32_t>(burst.corrupted.size() + burst.junk +
                                            burst.replayed + burst.unknown);
  verdict.auth_failures = burst.corrupted.size();
  verdict.replays = burst.replayed;
  return verdict;
}

}  // namespace endbox::oracle
