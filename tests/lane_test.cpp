// Run-to-completion lane pipeline suite: the VpnServer lane pipeline
// end to end (per-session ordering at 1/2/4/8 lanes, lossless 1→8→2
// reshard, starved-lane pool adoption, and the per-lane backlog peak,
// which is a max over bursts, not a sum, and resets with
// reset_lane_stats). Multi-lane bursts run on real worker threads; CI
// runs this suite under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "ca/authority.hpp"
#include "common/rng.hpp"
#include "sgx/enclave.hpp"
#include "sgx/platform.hpp"
#include "vpn/client.hpp"
#include "vpn/server.hpp"

namespace endbox {
namespace {

// ---- VpnServer lane pipeline ---------------------------------------

Bytes to_bytes(std::string_view s) { return Bytes(s.begin(), s.end()); }

// Same twin-rig pattern as server_shard_test: shared PKI, fixed seeds.
struct Pki {
  Rng rng{0x5eed5a};
  sim::Clock clock;
  sgx::AttestationService ias{rng};
  ca::CertificateAuthority authority{rng, ias};
  sgx::SgxPlatform platform{"client-1", rng, clock};
  sgx::Enclave enclave{platform, "endbox-v1", sgx::SgxMode::Hardware};
  crypto::RsaKeyPair enclave_key = crypto::rsa_generate(rng);
  ca::Certificate certificate;

  Pki() {
    ias.register_platform("client-1", platform.attestation_key().pub);
    authority.allow_measurement(enclave.measurement());
    sgx::QuotingEnclave qe(platform);
    auto quote = qe.quote(enclave.create_report(
        sgx::bind_report_data(enclave_key.pub.serialize())));
    auto response = authority.provision(quote->serialize(), enclave_key.pub);
    certificate = response->certificate;
  }
};

struct LaneRig {
  Rng server_rng;
  vpn::VpnServer server;
  std::vector<std::unique_ptr<Rng>> client_rngs;
  std::vector<vpn::VpnClientSession> clients;

  LaneRig(Pki& pki, std::size_t lanes, std::size_t sessions,
          std::uint64_t seed = 0xfeed01)
      : server_rng(seed),
        server(server_rng, pki.authority.public_key(), [&] {
          vpn::VpnServerConfig config;
          config.session_shards = lanes;
          return config;
        }()) {
    clients.reserve(sessions);
    for (std::size_t i = 0; i < sessions; ++i) {
      client_rngs.push_back(std::make_unique<Rng>(seed ^ (0x1000 + i)));
      clients.emplace_back(*client_rngs.back(), pki.certificate,
                           pki.enclave_key, server.public_key(),
                           vpn::VpnClientConfig{});
      auto init = clients.back().create_handshake_init();
      auto event = server.handle(init.serialize(), 0);
      EXPECT_TRUE(event.ok()) << event.error();
      auto& done = std::get<vpn::VpnServer::HandshakeDone>(*event);
      auto reply = vpn::WireMessage::parse(done.reply_wire);
      EXPECT_TRUE(reply.ok());
      auto status = clients.back().process_handshake_reply(*reply);
      EXPECT_TRUE(status.ok()) << status.error();
    }
  }

  /// Seals `per_session` payloads per client, session-interleaved
  /// (s0 f0, s1 f0, ..., s0 f1, ...), so lanes interleave at dispatch.
  std::vector<Bytes> interleaved_burst(std::size_t per_session,
                                       int round = 0) {
    std::vector<Bytes> frames;
    for (std::size_t f = 0; f < per_session; ++f)
      for (std::size_t i = 0; i < clients.size(); ++i)
        clients[i].seal_packet_wire_at(
            to_bytes("lane payload r" + std::to_string(round) + " f" +
                     std::to_string(f) + " s" + std::to_string(i)),
            frames, frames.size());
    return frames;
  }
};

void expect_per_session_order(const vpn::VpnServer::OpenBatch& batch,
                              const char* what) {
  std::map<std::uint32_t, std::uint32_t> last_tag;
  for (std::size_t i = 0; i < batch.packet_count; ++i) {
    const auto& packet = batch.packets[i];
    auto it = last_tag.find(packet.session_id);
    if (it != last_tag.end()) {
      EXPECT_LT(it->second, packet.burst_tag)
          << what << ": session " << packet.session_id << " reordered at #"
          << i;
    }
    last_tag[packet.session_id] = packet.burst_tag;
  }
}

TEST(LanePipeline, PerSessionOrderHoldsAtEveryLaneCount) {
  Pki pki;
  for (std::size_t lanes : {1u, 2u, 4u, 8u}) {
    LaneRig rig(pki, lanes, 12, 0xabc000 + lanes);
    auto frames = rig.interleaved_burst(5);
    vpn::VpnServer::OpenBatch out;
    rig.server.open_batch(frames, 0, out);
    EXPECT_EQ(out.complete, frames.size()) << lanes << " lanes";
    EXPECT_EQ(out.rejected, 0u) << lanes << " lanes";
    EXPECT_EQ(out.packet_count, frames.size()) << lanes << " lanes";
    expect_per_session_order(out, "lane pipeline");
  }
}

TEST(LanePipeline, Reshard1To8To2LlosslessUnderTraffic) {
  Pki pki;
  LaneRig rig(pki, 1, 10);
  std::map<std::uint32_t, std::uint32_t> last_tag;
  int round = 0;
  for (std::size_t lanes : {1u, 8u, 2u}) {
    ASSERT_TRUE(rig.server.reshard_sessions(lanes).ok());
    EXPECT_EQ(rig.server.session_shard_count(), lanes);
    // Replay windows, session keys and per-session ordering must all
    // survive the migration: the next burst opens completely.
    auto frames = rig.interleaved_burst(4, round++);
    vpn::VpnServer::OpenBatch out;
    rig.server.open_batch(frames, 0, out);
    EXPECT_EQ(out.complete, frames.size()) << "at " << lanes << " lanes";
    EXPECT_EQ(out.rejected, 0u) << "at " << lanes << " lanes";
    expect_per_session_order(out, "resharded lane pipeline");
  }
  EXPECT_EQ(rig.server.session_count(), 10u);
}

TEST(LanePipeline, StarvedLaneAdoptsBuffersFromRichestSibling) {
  Pki pki;
  LaneRig rig(pki, 4, 12, 0xfeed22);
  // Find one lane with sessions and at least one populated sibling.
  std::vector<std::vector<std::size_t>> by_lane(4);
  for (std::size_t i = 0; i < rig.clients.size(); ++i)
    by_lane[rig.server.shard_of_session(rig.clients[i].session_id())]
        .push_back(i);
  std::size_t hot = 4;
  for (std::size_t l = 0; l < 4; ++l) {
    if (!by_lane[l].empty() && hot == 4) hot = l;
  }
  ASSERT_LT(hot, 4u);

  // Warm the sibling lanes' pools with fragmenting payloads: a
  // 3-fragment packet acquires three bodies but completes into one,
  // and the reassembler returns the surplus to the lane-local pool —
  // the only net pool growth in steady state. The hot lane's pool
  // stays cold because its sessions stay silent.
  vpn::VpnServer::OpenBatch out;
  for (int warm = 0; warm < 3; ++warm) {
    std::vector<Bytes> frames;
    for (std::size_t l = 0; l < 4; ++l) {
      if (l == hot) continue;
      for (std::size_t i : by_lane[l])
        for (int f = 0; f < 2; ++f)
          rig.clients[i].seal_packet_wire_at(
              Bytes(20000, static_cast<unsigned char>('a' + warm * 2 + f)),
              frames, frames.size());
    }
    rig.server.open_batch(frames, 0, out);
    ASSERT_EQ(out.rejected, 0u);
  }
  std::size_t richest = 0;
  for (std::size_t l = 0; l < 4; ++l) {
    if (l == hot) continue;
    richest = std::max(richest, rig.server.lane_pool_buffers(l));
  }
  ASSERT_GT(richest, 1u) << "warm-up must leave a donor with spare buffers";

  // Now flood the cold lane only: its first frames miss the empty pool
  // (pool_starved counts each heap fallback), and the end-of-burst
  // rebalance makes it adopt half the richest sibling's buffers
  // instead of staying on the heap forever.
  std::uint64_t refills_before = rig.server.pool_refills(hot);
  std::vector<Bytes> flood;
  for (std::size_t i : by_lane[hot])
    for (int f = 0; f < 8; ++f)
      rig.clients[i].seal_packet_wire_at(
          to_bytes("flood " + std::to_string(f)), flood, flood.size());
  rig.server.open_batch(flood, 0, out);
  EXPECT_EQ(out.rejected, 0u);
  EXPECT_GT(rig.server.pool_starved(hot), 0u);
  EXPECT_GT(rig.server.pool_refills(hot), refills_before)
      << "a starved lane must adopt buffers, not heap-allocate forever";
  EXPECT_GT(rig.server.lane_pool_buffers(hot), 0u);
}

TEST(LanePipeline, ServerLaneStatsDriveHotLaneSplit) {
  // End to end: a skewed burst leaves one lane's backlog peak far above
  // its siblings'. The peak is a high-water mark over bursts, not a
  // running sum; reset_lane_stats zeroes it, and the skewed server
  // then reshards to 8 lanes.
  Pki pki;
  LaneRig rig(pki, 4, 12, 0xfeed33);
  std::vector<std::vector<std::size_t>> by_lane(4);
  for (std::size_t i = 0; i < rig.clients.size(); ++i)
    by_lane[rig.server.shard_of_session(rig.clients[i].session_id())]
        .push_back(i);
  std::size_t hot = 0;
  for (std::size_t l = 1; l < 4; ++l)
    if (by_lane[l].size() > by_lane[hot].size()) hot = l;
  ASSERT_FALSE(by_lane[hot].empty());

  // 40 frames to the hot lane, ≤2 to each other lane.
  rig.server.reset_lane_stats();
  std::vector<Bytes> frames;
  for (int f = 0; f < 40; ++f)
    rig.clients[by_lane[hot][static_cast<std::size_t>(f) %
                            by_lane[hot].size()]]
        .seal_packet_wire_at(to_bytes("hot " + std::to_string(f)), frames,
                             frames.size());
  for (std::size_t l = 0; l < 4; ++l) {
    if (l == hot || by_lane[l].empty()) continue;
    for (int f = 0; f < 2; ++f)
      rig.clients[by_lane[l][0]].seal_packet_wire_at(
          to_bytes("cold " + std::to_string(f)), frames, frames.size());
  }
  vpn::VpnServer::OpenBatch out;
  rig.server.open_batch(frames, 0, out);
  ASSERT_EQ(out.rejected, 0u);
  EXPECT_EQ(rig.server.lane_ring_peak(hot), 40u);
  for (std::size_t l = 0; l < 4; ++l) {
    if (l == hot) continue;
    EXPECT_LE(rig.server.lane_ring_peak(l), 2u);
  }

  // A second, smaller burst on the hot lane leaves the peak at the
  // larger burst's.
  frames.clear();
  for (int f = 0; f < 10; ++f)
    rig.clients[by_lane[hot][0]].seal_packet_wire_at(
        to_bytes("warm " + std::to_string(f)), frames, frames.size());
  rig.server.open_batch(frames, 0, out);
  ASSERT_EQ(out.rejected, 0u);
  EXPECT_EQ(rig.server.lane_ring_peak(hot), 40u);

  rig.server.reset_lane_stats();
  for (std::size_t l = 0; l < 4; ++l) EXPECT_EQ(rig.server.lane_ring_peak(l), 0u);
  ASSERT_TRUE(rig.server.reshard_sessions(8).ok());
  EXPECT_EQ(rig.server.session_shard_count(), 8u);
}

}  // namespace
}  // namespace endbox
