// Server data-plane sharding suite: twin-server equivalence properties
// (N-lane open_batch / seal_jobs byte-identical to per-frame handle()
// and to sequential seals, tests/oracle/gateway.hpp), the per-lane
// bench hooks, lossless reshard under load
// (replay windows and pending fragment groups migrate intact), worker
// pool reuse across reshards, the EndBoxServer ledger rule, and the
// AdaptiveReshardController's hysteresis behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "ca/authority.hpp"
#include "common/rng.hpp"
#include "endbox/reshard_controller.hpp"
#include "oracle/gateway.hpp"
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
  // opened_sessions is a membership multiset (per-shard concatenation
  // order, documented as unordered): compare sorted.
  std::vector<std::uint32_t> opened_a = a.opened_sessions;
  std::vector<std::uint32_t> opened_b = b.opened_sessions;
  std::sort(opened_a.begin(), opened_a.end());
  std::sort(opened_b.begin(), opened_b.end());
  EXPECT_EQ(opened_a, opened_b) << what;
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
  std::vector<std::uint32_t> opened_a = a.opened_sessions;
  std::vector<std::uint32_t> opened_b = b.opened_sessions;
  std::sort(opened_a.begin(), opened_a.end());
  std::sort(opened_b.begin(), opened_b.end());
  EXPECT_EQ(opened_a, opened_b) << what;
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
// opens byte-identically at 1 lane, at 4 lanes, and frame by frame
// through handle() on a twin server. One lane preserves exact arrival
// order; four lanes surface the same packets in lane-concatenation
// order with per-session order intact (the run-to-completion contract).
TEST(ServerShard, OpenBatchEquivalentAcrossShardCountsProperty) {
  Pki pki;
  VpnServerConfig config;
  config.mtu = 200;  // small tunnel MTU so payloads fragment
  constexpr std::size_t kSessions = 12;
  ServerRig one(pki, 1, kSessions, 0xabc123, config);
  ServerRig four(pki, 4, kSessions, 0xabc123, config);
  ServerRig twin(pki, 1, kSessions, 0xabc123, config);

  Rng gen(0x900df00d);
  VpnServer::OpenBatch out_one, out_four, out_twin;
  std::vector<Bytes> frames_one, frames_four, frames_twin;
  Bytes replay_frame_one, replay_frame_four, replay_frame_twin;

  for (int round = 0; round < 12; ++round) {
    frames_one.clear();
    frames_four.clear();
    frames_twin.clear();
    std::size_t packets = 3 + gen.uniform(0, 8);
    for (std::size_t p = 0; p < packets; ++p) {
      std::size_t k = gen.uniform(0, kSessions - 1);
      Bytes payload = gen.bytes(gen.uniform(10, 450));  // up to 3 fragments
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
    }
    // Adversarial frames: corrupt a MAC, replay an old frame, inject
    // garbage and an unknown session id at random positions.
    if (round > 0) {
      std::size_t corrupt = gen.uniform(0, frames_one.size() - 1);
      frames_one[corrupt].back() ^= 0x01;
      frames_four[corrupt].back() ^= 0x01;
      frames_twin[corrupt].back() ^= 0x01;
      frames_one.push_back(replay_frame_one);
      frames_four.push_back(replay_frame_four);
      frames_twin.push_back(replay_frame_twin);
      Bytes junk = gen.bytes(gen.uniform(0, 40));
      frames_one.push_back(junk);
      frames_four.push_back(junk);
      frames_twin.push_back(junk);
      Bytes unknown = frames_one[0];
      put_u32(unknown.data() + 1, 0xdeadbeef);
      frames_one.push_back(unknown);
      frames_four.push_back(unknown);
      frames_twin.push_back(unknown);
    }
    replay_frame_one = frames_one[0];
    replay_frame_four = frames_four[0];
    replay_frame_twin = frames_twin[0];

    one.server.open_batch(frames_one, 0, out_one);
    four.server.open_batch(frames_four, 0, out_four);
    oracle::open_by_handle(twin.server, frames_twin, 0, out_twin);
    // One lane = one FIFO ring: exact arrival order.
    expect_batches_equal(out_one, out_twin, "1-lane vs handle()");
    // Four lanes: same packets, lane-concatenation order, per-session
    // order intact.
    expect_batches_equivalent(out_four, out_twin, "4-lane vs handle()");
    EXPECT_EQ(one.server.auth_failures(), twin.server.auth_failures());
    EXPECT_EQ(four.server.auth_failures(), twin.server.auth_failures());
    EXPECT_EQ(one.server.replays_rejected(), twin.server.replays_rejected());
    EXPECT_EQ(four.server.replays_rejected(), twin.server.replays_rejected());
  }
  EXPECT_GT(one.server.replays_rejected(), 0u);
  EXPECT_GT(one.server.auth_failures(), 0u);
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
    auto opened = four.clients[k].open_data(*msg);
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
    auto wire = rig.clients[k].seal_packet(to_bytes("stamp"))[0].serialize();
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

TEST(ServerShard, OpenBatchShardHookCoversTheWholeBurst) {
  Pki pki;
  constexpr std::size_t kSessions = 8;
  ServerRig rig(pki, 4, kSessions, 0x7007);
  ServerRig twin(pki, 4, kSessions, 0x7007);

  std::vector<Bytes> frames, twin_frames;
  std::vector<VpnServer::SealJob> jobs;
  Bytes payload = to_bytes("hook-2");
  for (int p = 0; p < 24; ++p) {
    std::size_t k = static_cast<std::size_t>(p) % kSessions;
    rig.clients[k].seal_packet_wire_at(payload, frames, frames.size());
    twin.clients[k].seal_packet_wire_at(payload, twin_frames, twin_frames.size());
    jobs.push_back({rig.clients[k].session_id(), payload});
  }

  // Opening lane by lane through the bench hook covers every frame
  // exactly once, and the union of per-lane results equals one
  // open_batch on the twin.
  VpnServer::OpenBatch lane_out, twin_out;
  std::size_t complete = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> tagged;  // tag, session
  for (std::size_t l = 0; l < rig.server.session_shard_count(); ++l) {
    rig.server.open_batch_lane(l, frames, 0, lane_out);
    complete += lane_out.complete;
    for (std::size_t i = 0; i < lane_out.packet_count; ++i)
      tagged.emplace_back(lane_out.packets[i].burst_tag,
                          lane_out.packets[i].session_id);
  }
  EXPECT_EQ(complete, 24u);
  std::sort(tagged.begin(), tagged.end());
  twin.server.open_batch(twin_frames, 0, twin_out);
  ASSERT_EQ(twin_out.packet_count, tagged.size());
  // The lane pipeline surfaces packets in lane-concatenation order, so
  // the union compares as a sorted (tag, session) multiset; within each
  // session arrival order must hold.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> twin_tagged;
  for (std::size_t i = 0; i < twin_out.packet_count; ++i)
    twin_tagged.emplace_back(twin_out.packets[i].burst_tag,
                             twin_out.packets[i].session_id);
  std::sort(twin_tagged.begin(), twin_tagged.end());
  EXPECT_EQ(tagged, twin_tagged);
  expect_per_session_order(twin_out, "lane-hook twin");

  // The seal half: each lane fills exactly its jobs' precomputed slots,
  // so sealing lane by lane into one frame vector reproduces seal_jobs
  // byte for byte.
  std::vector<Bytes> lane_frames, twin_sealed;
  std::size_t total = 0;
  for (std::size_t l = 0; l < rig.server.session_shard_count(); ++l)
    total = rig.server.seal_jobs_lane(l, jobs, lane_frames);
  ASSERT_EQ(total, twin.server.seal_jobs(jobs, twin_sealed));
  for (std::size_t f = 0; f < total; ++f)
    EXPECT_EQ(lane_frames[f], twin_sealed[f]) << "frame " << f;

  // reset_replay_windows makes the identical burst fresh again — the
  // contract the bench relies on for repeatable timing.
  rig.server.reset_replay_windows();
  VpnServer::OpenBatch again;
  rig.server.open_batch(frames, 0, again);
  EXPECT_EQ(again.complete, 24u);
  EXPECT_EQ(again.rejected, 0u);
}

// ---- AdaptiveReshardController ------------------------------------------

ReshardPolicy test_policy() {
  ReshardPolicy policy;
  policy.min_shards = 1;
  policy.max_shards = 8;
  policy.shard_capacity = 100;  // load units per interval per shard
  policy.ewma_alpha = 0.5;
  policy.grow_above = 0.85;
  policy.shrink_below = 0.35;
  policy.cooldown_intervals = 2;
  return policy;
}

TEST(ReshardController, SteadyLoadNeverOscillates) {
  // Any steady offered load settles on one shard count and stays
  // there: the hysteresis band plus the projection guards make the
  // decision a fixed point.
  for (double load : {10.0, 60.0, 90.0, 150.0, 340.0, 700.0, 2000.0}) {
    AdaptiveReshardController ctl(test_policy(), 1);
    for (int i = 0; i < 30; ++i) ctl.observe(load);
    std::size_t settled = ctl.shards();
    std::uint64_t decisions = ctl.grow_decisions() + ctl.shrink_decisions();
    for (int i = 0; i < 50; ++i) EXPECT_EQ(ctl.observe(load), settled) << load;
    EXPECT_EQ(ctl.grow_decisions() + ctl.shrink_decisions(), decisions)
        << "controller kept resharding under steady load " << load;
  }
}

TEST(ReshardController, GrowsUnderRisingLoadAndShrinksBack) {
  AdaptiveReshardController ctl(test_policy(), 1);
  for (int i = 0; i < 10; ++i) ctl.observe(40);
  EXPECT_EQ(ctl.shards(), 1u);
  for (int i = 0; i < 20; ++i) ctl.observe(300);
  EXPECT_EQ(ctl.shards(), 4u);  // 300/100: 4 shards sit inside the band
  for (int i = 0; i < 20; ++i) ctl.observe(40);
  EXPECT_EQ(ctl.shards(), 1u);
  EXPECT_GE(ctl.grow_decisions(), 2u);
  EXPECT_GE(ctl.shrink_decisions(), 2u);
}

TEST(ReshardController, CooldownSpacesDecisions) {
  ReshardPolicy policy = test_policy();
  policy.cooldown_intervals = 3;
  AdaptiveReshardController ctl(policy, 1);
  // A huge step of load: the controller may only double every
  // cooldown+1 observations, not race straight to max_shards.
  EXPECT_EQ(ctl.observe(5000), 2u);
  EXPECT_EQ(ctl.observe(5000), 2u);  // cooldown
  EXPECT_EQ(ctl.observe(5000), 2u);  // cooldown
  EXPECT_EQ(ctl.observe(5000), 2u);  // cooldown
  EXPECT_EQ(ctl.observe(5000), 4u);
}

TEST(ReshardController, RespectsBoundsAndValidatesPolicy) {
  ReshardPolicy policy = test_policy();
  policy.max_shards = 4;
  AdaptiveReshardController ctl(policy, 1);
  for (int i = 0; i < 40; ++i) ctl.observe(100000);
  EXPECT_EQ(ctl.shards(), 4u);
  for (int i = 0; i < 40; ++i) ctl.observe(0);
  EXPECT_EQ(ctl.shards(), 1u);

  ctl.note_applied(3);
  EXPECT_EQ(ctl.shards(), 3u);

  ReshardPolicy bad = test_policy();
  bad.shard_capacity = 0;
  EXPECT_THROW(AdaptiveReshardController{bad}, std::invalid_argument);
  bad = test_policy();
  bad.shrink_below = bad.grow_above;
  EXPECT_THROW(AdaptiveReshardController{bad}, std::invalid_argument);
  // A narrow band (shrink_below > grow_above / 2) would let the grow
  // projection guard veto growth forever under sustained overload.
  bad = test_policy();
  bad.grow_above = 0.6;
  bad.shrink_below = 0.5;
  EXPECT_THROW(AdaptiveReshardController{bad}, std::invalid_argument);
  bad = test_policy();
  bad.ewma_alpha = 1.5;
  EXPECT_THROW(AdaptiveReshardController{bad}, std::invalid_argument);
}

}  // namespace
}  // namespace endbox::vpn
