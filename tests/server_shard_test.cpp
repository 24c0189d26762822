// Server data-plane sharding suite: 1-lane and N-lane open_batch and
// the per-frame handle() checked against the gateway model
// (tests/oracle/gateway.hpp), seal_jobs byte-identical across lane
// counts and to sequential seals, the shared lane body's pool
// circulation, lossless reshard under load (replay windows, pending
// fragment groups and expiry deadlines migrate intact) and worker pool
// reuse across reshards.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <variant>
#include <vector>

#include "ca/authority.hpp"
#include "common/rng.hpp"
#include "oracle/gateway.hpp"
#include "seal_frames.hpp"
#include "sgx/enclave.hpp"
#include "sgx/platform.hpp"
#include "vpn/client.hpp"
#include "vpn/server.hpp"

namespace endbox::vpn {
namespace {

Bytes to_bytes(std::string_view s);
Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

// Shared PKI: one CA and one enclave certificate every twin reuses, so
// the only randomness distinguishing two servers is their own Rng.
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

// One server plus its fleet of client sessions, all built from fixed
// seeds: two rigs constructed with the same seeds and session count are
// byte-for-byte twins (same server key, same session keys, same IV
// streams), differing only in how the server shards its sessions.
struct ServerRig {
  Rng server_rng;
  VpnServer server;
  std::vector<std::unique_ptr<Rng>> client_rngs;
  std::vector<VpnClientSession> clients;

  ServerRig(Pki& pki, std::size_t shards, std::size_t sessions,
            std::uint64_t seed = 0xfeed01, VpnServerConfig config = {})
      : server_rng(seed),
        server(server_rng, pki.authority.public_key(),
               [&] {
                 config.session_shards = shards;
                 return config;
               }()) {
    clients.reserve(sessions);
    for (std::size_t i = 0; i < sessions; ++i) {
      client_rngs.push_back(std::make_unique<Rng>(seed ^ (0x1000 + i)));
      VpnClientConfig client_config;
      client_config.mtu = config.mtu;
      clients.emplace_back(*client_rngs.back(), pki.certificate,
                           pki.enclave_key, server.public_key(), client_config);
      auto init = clients.back().create_handshake_init();
      auto event = server.handle(init.serialize(), 0);
      EXPECT_TRUE(event.ok()) << event.error();
      auto& done = std::get<VpnServer::HandshakeDone>(*event);
      auto reply = WireMessage::parse(done.reply_wire);
      EXPECT_TRUE(reply.ok());
      auto status = clients.back().process_handshake_reply(*reply);
      EXPECT_TRUE(status.ok()) << status.error();
    }
  }
};

void expect_batches_equal(const VpnServer::OpenBatch& a,
                          const VpnServer::OpenBatch& b, const char* what) {
  EXPECT_EQ(a.complete, b.complete) << what;
  EXPECT_EQ(a.pending, b.pending) << what;
  EXPECT_EQ(a.rejected, b.rejected) << what;
  ASSERT_EQ(a.packet_count, b.packet_count) << what;
  for (std::size_t i = 0; i < a.packet_count; ++i) {
    EXPECT_EQ(a.packets[i].session_id, b.packets[i].session_id) << what << " #" << i;
    EXPECT_EQ(a.packets[i].burst_tag, b.packets[i].burst_tag) << what << " #" << i;
    EXPECT_EQ(a.packets[i].was_encrypted, b.packets[i].was_encrypted);
    EXPECT_EQ(a.packets[i].ip_packet, b.packets[i].ip_packet) << what << " #" << i;
  }
}

/// Asserts the per-session burst_tag sequence is strictly increasing —
/// the run-to-completion lane pipeline's ordering contract: within one
/// flow/session arrival order is preserved, globally packets surface in
/// lane-concatenation order.
void expect_per_session_order(const VpnServer::OpenBatch& batch,
                              const char* what) {
  std::map<std::uint32_t, std::uint32_t> last_tag;
  for (std::size_t i = 0; i < batch.packet_count; ++i) {
    const auto& packet = batch.packets[i];
    auto it = last_tag.find(packet.session_id);
    if (it != last_tag.end()) {
      EXPECT_LT(it->second, packet.burst_tag)
          << what << ": session " << packet.session_id << " reordered at #" << i;
    }
    last_tag[packet.session_id] = packet.burst_tag;
  }
}

/// Lane-pipeline equivalence: same counters and the same packets (keyed
/// by burst_tag — the arrival index, unique per burst), but packets may
/// surface in a different global order when the lane counts differ.
/// Per-session order must hold in both batches.
void expect_batches_equivalent(const VpnServer::OpenBatch& a,
                               const VpnServer::OpenBatch& b,
                               const char* what) {
  EXPECT_EQ(a.complete, b.complete) << what;
  EXPECT_EQ(a.pending, b.pending) << what;
  EXPECT_EQ(a.rejected, b.rejected) << what;
  ASSERT_EQ(a.packet_count, b.packet_count) << what;
  auto by_tag = [](const VpnServer::OpenBatch& batch) {
    std::vector<std::size_t> order(batch.packet_count);
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
      return batch.packets[x].burst_tag < batch.packets[y].burst_tag;
    });
    return order;
  };
  std::vector<std::size_t> order_a = by_tag(a), order_b = by_tag(b);
  for (std::size_t i = 0; i < a.packet_count; ++i) {
    const auto& pa = a.packets[order_a[i]];
    const auto& pb = b.packets[order_b[i]];
    EXPECT_EQ(pa.burst_tag, pb.burst_tag) << what << " #" << i;
    EXPECT_EQ(pa.session_id, pb.session_id) << what << " #" << i;
    EXPECT_EQ(pa.was_encrypted, pb.was_encrypted) << what << " #" << i;
    EXPECT_EQ(pa.ip_packet, pb.ip_packet) << what << " #" << i;
  }
  expect_per_session_order(a, what);
  expect_per_session_order(b, what);
}

/// Every frame of a burst is accounted for exactly once.
void expect_conserved(const VpnServer::OpenBatch& batch, std::size_t frames,
                      const char* what) {
  EXPECT_EQ(std::size_t{batch.complete} + batch.pending + batch.rejected, frames)
      << what;
}

/// The per-frame path: each frame through handle(), tallied like an
/// open_batch result (burst_tag = arrival index).
VpnServer::OpenBatch open_by_handle(VpnServer& server, std::span<const Bytes> wires,
                                    sim::Time now) {
  VpnServer::OpenBatch out;
  for (std::size_t i = 0; i < wires.size(); ++i) {
    auto event = server.handle(wires[i], now);
    if (!event.ok()) {
      ++out.rejected;
    } else if (auto* in = std::get_if<VpnServer::PacketIn>(&*event)) {
      ++out.complete;
      out.packets.push_back({in->session_id, static_cast<std::uint32_t>(i),
                             in->was_encrypted, std::move(in->ip_packet)});
    } else if (std::holds_alternative<VpnServer::FragmentPending>(*event)) {
      ++out.pending;
    } else {
      ++out.rejected;  // handshakes and pings are not data frames
    }
  }
  out.packet_count = out.packets.size();
  return out;
}

TEST(ServerShard, SessionsPinToShardsAndBalance) {
  Pki pki;
  ServerRig rig(pki, 4, 32);
  EXPECT_EQ(rig.server.session_shard_count(), 4u);
  EXPECT_EQ(rig.server.session_count(), 32u);
  std::size_t total = 0;
  for (std::size_t s = 0; s < 4; ++s) {
    std::size_t n = rig.server.shard_session_count(s);
    total += n;
    // splitmix64 spread: no shard owns more than half of a 32-session
    // fleet (a sequential-id pin like id % N would be exactly 8 each;
    // the hash keeps it in the same ballpark without that structure).
    EXPECT_GT(n, 0u);
    EXPECT_LE(n, 16u);
  }
  EXPECT_EQ(total, 32u);
  for (const auto& client : rig.clients) {
    std::size_t s = rig.server.shard_of_session(client.session_id());
    EXPECT_LT(s, 4u);
  }
}

// The gateway property: a mixed-session burst (in-order data, MTU
// fragmentation, corrupt frames, replays, garbage, unknown sessions)
// opens as the gateway model says it must, at 1 lane in exact arrival
// order, at 4 lanes in lane-concatenation order with per-session order
// intact (the run-to-completion contract), and frame by frame through
// handle() on a twin server.
TEST(ServerShard, OpenBatchEquivalentAcrossShardCountsProperty) {
  Pki pki;
  VpnServerConfig config;
  config.mtu = 200;  // small tunnel MTU so payloads fragment
  constexpr std::size_t kSessions = 12;
  ServerRig one(pki, 1, kSessions, 0xabc123, config);
  ServerRig four(pki, 4, kSessions, 0xabc123, config);
  ServerRig twin(pki, 1, kSessions, 0xabc123, config);

  Rng gen(0x900df00d);
  VpnServer::OpenBatch out_one, out_four;
  std::vector<Bytes> frames_one, frames_four, frames_twin;
  Bytes replay_frame_one, replay_frame_four, replay_frame_twin;
  bool replay_frame_corrupt = false;
  std::uint64_t auth_expected = 0, replays_expected = 0;

  for (int round = 0; round < 12; ++round) {
    frames_one.clear();
    frames_four.clear();
    frames_twin.clear();
    oracle::TamperedBurst burst;
    std::size_t packets = 3 + gen.uniform(0, 8);
    for (std::size_t p = 0; p < packets; ++p) {
      std::size_t k = gen.uniform(0, kSessions - 1);
      Bytes payload = gen.bytes(gen.uniform(10, 450));  // up to 3 fragments
      std::size_t first = frames_one.size();
      std::size_t n1 = one.clients[k].seal_packet_wire_at(
          payload, frames_one, frames_one.size());
      std::size_t n4 = four.clients[k].seal_packet_wire_at(
          payload, frames_four, frames_four.size());
      std::size_t nt = twin.clients[k].seal_packet_wire_at(
          payload, frames_twin, frames_twin.size());
      ASSERT_EQ(n1, n4);
      ASSERT_EQ(n1, nt);
      // Twin clients must produce byte-identical wire frames — the
      // precondition for comparing the servers at all.
      ASSERT_EQ(frames_one.back(), frames_four.back());
      ASSERT_EQ(frames_one.back(), frames_twin.back());
      burst.packets.push_back(
          {one.clients[k].session_id(), std::move(payload), first, n1 - first});
    }
    // Adversarial frames: corrupt a MAC, replay an old frame, inject
    // garbage and an unknown session id at random positions.
    bool corrupted_first = false;
    if (round > 0) {
      std::size_t corrupt = gen.uniform(0, frames_one.size() - 1);
      frames_one[corrupt].back() ^= 0x01;
      frames_four[corrupt].back() ^= 0x01;
      frames_twin[corrupt].back() ^= 0x01;
      burst.corrupted.push_back(corrupt);
      corrupted_first = corrupt == 0;
      frames_one.push_back(replay_frame_one);
      frames_four.push_back(replay_frame_four);
      frames_twin.push_back(replay_frame_twin);
      // A replay of a frame that was itself corrupted fails its MAC.
      if (replay_frame_corrupt)
        burst.corrupted.push_back(frames_one.size() - 1);
      else
        ++burst.replayed;
      Bytes junk = gen.bytes(gen.uniform(0, 40));
      frames_one.push_back(junk);
      frames_four.push_back(junk);
      frames_twin.push_back(junk);
      ++burst.junk;
      Bytes unknown = frames_one[0];
      put_u32(unknown.data() + 1, 0xdeadbeef);
      frames_one.push_back(unknown);
      frames_four.push_back(unknown);
      frames_twin.push_back(unknown);
      ++burst.unknown;
    }
    replay_frame_one = frames_one[0];
    replay_frame_four = frames_four[0];
    replay_frame_twin = frames_twin[0];
    replay_frame_corrupt = corrupted_first;

    oracle::GatewayVerdict expected = oracle::expected_open(burst);
    auth_expected += expected.auth_failures;
    replays_expected += expected.replays;
    one.server.open_batch(frames_one, 0, out_one);
    four.server.open_batch(frames_four, 0, out_four);
    VpnServer::OpenBatch out_twin = open_by_handle(twin.server, frames_twin, 0);
    // One lane = one FIFO list: exact arrival order.
    expect_batches_equal(out_one, expected.batch, "1-lane vs model");
    // Four lanes: same packets, lane-concatenation order, per-session
    // order intact.
    expect_batches_equivalent(out_four, expected.batch, "4-lane vs model");
    expect_batches_equal(out_twin, expected.batch, "handle() vs model");
    expect_conserved(out_one, frames_one.size(), "1-lane");
    expect_conserved(out_four, frames_four.size(), "4-lane");
    expect_conserved(out_twin, frames_twin.size(), "handle()");
    for (const ServerRig* rig : {&one, &four, &twin}) {
      EXPECT_EQ(rig->server.auth_failures(), auth_expected) << "round " << round;
      EXPECT_EQ(rig->server.replays_rejected(), replays_expected) << "round " << round;
    }
  }
  EXPECT_GT(one.server.replays_rejected(), 0u);
  EXPECT_GT(one.server.auth_failures(), 0u);
}

// handle() runs open_batch's lane body and copies each completed packet
// out of the lane's scratch slot: the slot keeps its buffer for the
// lane's next frame to recycle, so the lane pool neither starves nor
// shrinks however many frames arrive one at a time.
TEST(ServerShard, HandleKeepsTheLanePoolWhole) {
  Pki pki;
  constexpr std::size_t kSessions = 3;
  ServerRig rig(pki, 1, kSessions, 0x9001);
  Rng gen(0x9002);
  auto handle_one = [&](std::size_t k) {
    Bytes payload = gen.bytes(gen.uniform(20, 1200));
    std::vector<Bytes> frames = seal_frames(rig.clients[k], payload);
    EXPECT_EQ(frames.size(), 1u);
    auto event = rig.server.handle(frames[0], 0);
    ASSERT_TRUE(event.ok()) << event.error();
    auto* in = std::get_if<VpnServer::PacketIn>(&*event);
    ASSERT_NE(in, nullptr);
    EXPECT_EQ(in->session_id, rig.clients[k].session_id());
    EXPECT_EQ(in->ip_packet, payload);
  };
  for (std::size_t i = 0; i < 4; ++i) handle_one(i % kSessions);  // warm-up

  std::uint64_t starved = rig.server.pool_starved(0);
  std::size_t pooled = rig.server.lane_pool_buffers(0);
  for (std::size_t i = 0; i < 36; ++i) handle_one(i % kSessions);
  EXPECT_EQ(rig.server.pool_starved(0), starved);
  EXPECT_EQ(rig.server.lane_pool_buffers(0), pooled);
}

TEST(ServerShard, SealJobsEquivalentAcrossShardCountsAndSequentialSeal) {
  Pki pki;
  VpnServerConfig config;
  config.mtu = 150;
  constexpr std::size_t kSessions = 9;
  ServerRig one(pki, 1, kSessions, 0x5ea15eed, config);
  ServerRig four(pki, 4, kSessions, 0x5ea15eed, config);
  ServerRig seq(pki, 1, kSessions, 0x5ea15eed, config);

  Rng gen(0xc0ffee);
  std::vector<Bytes> payloads;
  std::vector<VpnServer::SealJob> jobs;
  for (int p = 0; p < 24; ++p) {
    payloads.push_back(gen.bytes(gen.uniform(1, 400)));
    std::uint32_t sid = one.clients[gen.uniform(0, kSessions - 1)].session_id();
    jobs.push_back({sid, payloads.back()});
  }

  std::vector<Bytes> frames_one, frames_four, frames_seq;
  std::size_t n1 = one.server.seal_jobs(jobs, frames_one);
  std::size_t n4 = four.server.seal_jobs(jobs, frames_four);
  std::size_t ns = 0;
  for (const auto& job : jobs)
    ns = seq.server.seal_packet_wire_at(job.session_id, job.ip_packet,
                                        frames_seq, ns);
  ASSERT_EQ(n1, n4);
  ASSERT_EQ(n1, ns);
  for (std::size_t f = 0; f < n1; ++f) {
    EXPECT_EQ(frames_one[f], frames_four[f]) << "frame " << f;
    EXPECT_EQ(frames_one[f], frames_seq[f]) << "frame " << f;
  }
  // And the downlink actually opens at the clients, in order.
  for (std::size_t f = 0; f < n1; ++f) {
    auto msg = WireMessage::parse(frames_four[f]);
    ASSERT_TRUE(msg.ok());
    std::size_t k = 0;
    for (; k < kSessions; ++k)
      if (four.clients[k].session_id() == msg->session_id) break;
    ASSERT_LT(k, kSessions);
    auto opened = four.clients[k].open_data_frame(frames_four[f], {});
    ASSERT_TRUE(opened.ok()) << opened.error();
  }
  std::vector<VpnServer::SealJob> bad_jobs{{0xdeadbeefu, payloads[0]}};
  EXPECT_THROW((void)four.server.seal_jobs(bad_jobs, frames_four),
               std::logic_error);
}

TEST(ServerShard, ReshardUnderLoadKeepsReplayWindowsAndFragments) {
  Pki pki;
  VpnServerConfig config;
  config.mtu = 100;
  constexpr std::size_t kSessions = 6;
  ServerRig rig(pki, 1, kSessions, 0xfeedbee, config);
  VpnServer& server = rig.server;

  // Warm every session and keep one frame around for a later replay.
  std::vector<Bytes> frames;
  for (std::size_t k = 0; k < kSessions; ++k)
    rig.clients[k].seal_packet_wire_at(to_bytes("warm-up"), frames, frames.size());
  VpnServer::OpenBatch out;
  server.open_batch(frames, 0, out);
  ASSERT_EQ(out.complete, kSessions);
  Bytes replayed = frames[0];

  // Leave session 0 with a fragment group mid-flight: 3 fragments, send 2.
  Rng gen(31);
  Bytes big = gen.bytes(250);
  std::vector<Bytes> frag_frames;
  ASSERT_EQ(rig.clients[0].seal_packet_wire_at(big, frag_frames, 0), 3u);
  std::vector<Bytes> first_two{frag_frames[0], frag_frames[1]};
  server.open_batch(first_two, 0, out);
  EXPECT_EQ(out.pending, 2u);

  // Grow 1 -> 4 mid-stream.
  ASSERT_TRUE(server.reshard_sessions(4).ok());
  EXPECT_EQ(server.session_shard_count(), 4u);
  EXPECT_EQ(server.session_count(), kSessions);
  EXPECT_EQ(server.reshard_count(), 1u);

  // The pending fragment group survived the migration: the last
  // fragment completes the packet.
  std::vector<Bytes> last{frag_frames[2]};
  server.open_batch(last, 0, out);
  EXPECT_EQ(out.complete, 1u);
  ASSERT_EQ(out.packet_count, 1u);
  EXPECT_EQ(out.packets[0].ip_packet, big);

  // Replay windows survived too: the warm-up frame is still a replay.
  std::uint64_t replays_before = server.replays_rejected();
  std::vector<Bytes> replay_burst{replayed};
  server.open_batch(replay_burst, 0, out);
  EXPECT_EQ(out.rejected, 1u);
  EXPECT_EQ(server.replays_rejected(), replays_before + 1);

  // Fresh traffic still flows for every session after the reshard, and
  // per-session packet ids keep advancing where they left off.
  frames.clear();
  for (std::size_t k = 0; k < kSessions; ++k)
    rig.clients[k].seal_packet_wire_at(to_bytes("post-reshard"), frames,
                                       frames.size());
  server.open_batch(frames, 0, out);
  EXPECT_EQ(out.complete, kSessions);
  EXPECT_EQ(out.rejected, 0u);

  // Shrink 4 -> 2: the worker pool is reused (satellite: no thread
  // teardown on a shrink), and statistics fold without double counting.
  std::uint64_t replays_total = server.replays_rejected();
  EXPECT_EQ(server.worker_threads(), 4u);
  ASSERT_TRUE(server.reshard_sessions(2).ok());
  EXPECT_EQ(server.worker_threads(), 4u) << "shrink must reuse the pool";
  EXPECT_EQ(server.replays_rejected(), replays_total);
  EXPECT_EQ(server.session_count(), kSessions);

  frames.clear();
  for (std::size_t k = 0; k < kSessions; ++k)
    rig.clients[k].seal_packet_wire_at(to_bytes("after-shrink"), frames,
                                       frames.size());
  server.open_batch(frames, 0, out);
  EXPECT_EQ(out.complete, kSessions);

  // Growing past the pool's size rebuilds it.
  ASSERT_TRUE(server.reshard_sessions(6).ok());
  EXPECT_EQ(server.worker_threads(), 6u);
  ASSERT_TRUE(server.reshard_sessions(0).ok() == false);
}

TEST(ServerShard, ReshardMigratesExpiryDeadlinesExactly) {
  // Property: reshard_sessions(n) must migrate idle-expiry state
  // losslessly — every surviving session keeps its exact last-activity
  // stamp (no early expiry, no immortalised sessions) and the expiry
  // statistics fold o -> o%n without double counting.
  Pki pki;
  VpnServerConfig config;
  config.session_idle_timeout = 30 * sim::kSecond;
  constexpr std::size_t kSessions = 12;
  ServerRig rig(pki, 1, kSessions, 0xfeedf00d, config);
  VpnServer& server = rig.server;

  // Distinct stamps: session k last talks at t = k seconds (session 0
  // keeps its handshake-time stamp of 0).
  for (std::size_t k = 1; k < kSessions; ++k) {
    auto wire = seal_frames(rig.clients[k], to_bytes("stamp"))[0];
    ASSERT_TRUE(server.handle(wire, k * sim::kSecond).ok());
  }
  // Session 0 expires on the old sharding; its count must fold through.
  EXPECT_EQ(server.expire_idle_sessions(30 * sim::kSecond - sim::kMillisecond),
            0u);
  EXPECT_EQ(server.expire_idle_sessions(30 * sim::kSecond), 1u);
  EXPECT_EQ(server.sessions_expired(), 1u);

  ASSERT_TRUE(server.reshard_sessions(4).ok());
  EXPECT_EQ(server.session_count(), kSessions - 1);
  EXPECT_EQ(server.sessions_expired(), 1u) << "stats must fold, not reset";

  // Activity stamps migrated exactly.
  for (std::size_t k = 1; k < kSessions; ++k)
    EXPECT_EQ(server.session_last_activity(rig.clients[k].session_id()),
              k * sim::kSecond)
        << "session " << k;

  std::vector<std::uint32_t> closed;
  server.set_session_close_hook([&](std::uint32_t id) { closed.push_back(id); });

  // No early expiry: one wheel tick before the earliest migrated
  // deadline (session 1 at t=31 s) nothing fires...
  EXPECT_EQ(server.expire_idle_sessions(31 * sim::kSecond - sim::kMillisecond),
            0u);
  // ...and no immortalised sessions: each deadline fires exactly on
  // time, one session per second, in order.
  for (std::size_t k = 1; k < kSessions; ++k) {
    EXPECT_EQ(server.expire_idle_sessions((30 + k) * sim::kSecond), 1u)
        << "session " << k;
    ASSERT_EQ(closed.size(), k);
    EXPECT_EQ(closed.back(), rig.clients[k].session_id());
  }
  EXPECT_EQ(server.session_count(), 0u);
  EXPECT_EQ(server.sessions_expired(), kSessions);
}

}  // namespace
}  // namespace endbox::vpn
