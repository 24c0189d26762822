// Tests for the VPN substrate: replay window, fragmentation, wire
// formats, handshake, data channel, pings, config enforcement.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <span>

#include "ca/authority.hpp"
#include "common/rng.hpp"
#include "sgx/enclave.hpp"
#include "sgx/platform.hpp"
#include "seal_frames.hpp"
#include "vpn/client.hpp"
#include "vpn/replay.hpp"
#include "vpn/server.hpp"

namespace endbox::vpn {
namespace {

// ---- Replay window -------------------------------------------------------

TEST(Replay, AcceptsFreshRejectsDuplicate) {
  ReplayWindow window;
  EXPECT_TRUE(window.accept(1));
  EXPECT_TRUE(window.accept(2));
  EXPECT_FALSE(window.accept(2));
  EXPECT_FALSE(window.accept(1));
  EXPECT_EQ(window.replays_rejected(), 2u);
}

TEST(Replay, AcceptsOutOfOrderWithinWindow) {
  ReplayWindow window;
  EXPECT_TRUE(window.accept(10));
  EXPECT_TRUE(window.accept(5));
  EXPECT_TRUE(window.accept(7));
  EXPECT_FALSE(window.accept(5));
}

TEST(Replay, RejectsOlderThanWindow) {
  ReplayWindow window;
  EXPECT_TRUE(window.accept(100));
  EXPECT_FALSE(window.accept(100 - 64));  // age 64 >= window
  EXPECT_TRUE(window.accept(100 - 63));   // age 63 < window
}

TEST(Replay, LargeJumpClearsWindow) {
  ReplayWindow window;
  EXPECT_TRUE(window.accept(1));
  EXPECT_TRUE(window.accept(1000));
  EXPECT_TRUE(window.accept(999));
  EXPECT_FALSE(window.accept(1000));
}

TEST(Replay, DuplicateAtWindowEdge) {
  ReplayWindow window;
  EXPECT_TRUE(window.accept(100));
  // Oldest id still inside the 64-id window: accepted once, then a
  // replay of it must be caught (it sits on the last bitmap bit).
  EXPECT_TRUE(window.accept(100 - 63));
  EXPECT_FALSE(window.accept(100 - 63));
  // The id one past the edge is rejected outright, before and after.
  EXPECT_FALSE(window.accept(100 - 64));
  EXPECT_FALSE(window.accept(100 - 64));
  EXPECT_EQ(window.replays_rejected(), 3u);
}

TEST(Replay, AdvanceByExactlyWindowSizeClearsAllHistory) {
  ReplayWindow window;
  for (std::uint64_t id = 1; id <= 10; ++id) EXPECT_TRUE(window.accept(id));
  // shift == 64: every previously-seen id falls off the window; a
  // shift of exactly the window size must not invoke UB (x << 64).
  EXPECT_TRUE(window.accept(10 + 64));
  EXPECT_EQ(window.highest_seen(), 74u);
  // Old ids are now older-than-window, not "unseen".
  EXPECT_FALSE(window.accept(10));
  // The new highest itself is tracked.
  EXPECT_FALSE(window.accept(74));
}

TEST(Replay, AdvanceByWindowMinusOneKeepsTheOldHighest) {
  ReplayWindow window;
  EXPECT_TRUE(window.accept(10));
  EXPECT_TRUE(window.accept(10 + 63));  // old highest now at age 63
  EXPECT_FALSE(window.accept(10));      // still tracked: replay caught
  EXPECT_TRUE(window.accept(11));       // age 62, never seen: fresh
}

TEST(Replay, FarFutureSequenceNumberIsAcceptedOnceAndTracked) {
  ReplayWindow window;
  EXPECT_TRUE(window.accept(5));
  std::uint64_t far = 5 + (1ULL << 62);
  EXPECT_TRUE(window.accept(far));
  EXPECT_FALSE(window.accept(far));
  EXPECT_EQ(window.highest_seen(), far);
  // Everything between is now ancient and rejected.
  EXPECT_FALSE(window.accept(far - 64));
  EXPECT_TRUE(window.accept(far - 63));
}

TEST(Replay, WrapAroundNearMaxId) {
  // Ids close to 2^64 - 1: unsigned arithmetic on ages/shifts must not
  // wrap into false accepts.
  ReplayWindow window;
  std::uint64_t top = ~0ULL;
  EXPECT_TRUE(window.accept(top - 1));
  EXPECT_TRUE(window.accept(top));
  EXPECT_FALSE(window.accept(top));
  EXPECT_FALSE(window.accept(top - 1));
  EXPECT_TRUE(window.accept(top - 63));
  EXPECT_FALSE(window.accept(top - 64));
}

TEST(Replay, MatchesReferenceModelOverRandomStream) {
  // Property: the bitmap implementation agrees with an obvious
  // reference model (remember every id; accept iff unseen and within
  // the window of the running maximum).
  ReplayWindow window;
  Rng rng(0x5ea1);
  std::set<std::uint64_t> seen;
  std::uint64_t highest = 0;
  bool any = false;
  for (int i = 0; i < 2000; ++i) {
    std::uint64_t id = 1000 + rng.uniform(0, 200) + i / 4;
    bool expect;
    if (!any) {
      expect = true;
    } else {
      std::uint64_t top = std::max(highest, id);
      expect = (top - id < 64) && !seen.count(id);
    }
    EXPECT_EQ(window.accept(id), expect) << "id " << id << " step " << i;
    if (expect) {
      seen.insert(id);
      highest = std::max(highest, id);
      any = true;
    }
  }
}

// ---- Fragmentation ---------------------------------------------------------

TEST(Fragment, SplitSizes) {
  Bytes payload(10000, 7);
  auto frags = fragment_payload(payload, 4096);
  ASSERT_EQ(frags.size(), 3u);
  EXPECT_EQ(frags[0].size(), 4096u);
  EXPECT_EQ(frags[1].size(), 4096u);
  EXPECT_EQ(frags[2].size(), 10000u - 8192u);
}

TEST(Fragment, SmallPayloadSingleFragment) {
  auto frags = fragment_payload(Bytes(100), 9000);
  EXPECT_EQ(frags.size(), 1u);
  auto empty = fragment_payload({}, 9000);
  EXPECT_EQ(empty.size(), 1u);
  EXPECT_TRUE(empty[0].empty());
}

TEST(Fragment, ReassemblyInOrderAndOutOfOrder) {
  Rng rng(3);
  Bytes payload = rng.bytes(25000);
  auto frags = fragment_payload(payload, 9000);
  ASSERT_EQ(frags.size(), 3u);

  Reassembler reasm;
  // Out of order: 2, 0, 1.
  FragmentHeader h{1, 42, 2, 3};
  EXPECT_FALSE(reasm.add(h, Bytes(frags[2])).has_value());
  h.index = 0;
  EXPECT_FALSE(reasm.add(h, Bytes(frags[0])).has_value());
  h.index = 1;
  auto whole = reasm.add(h, Bytes(frags[1]));
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(*whole, payload);
  EXPECT_EQ(reasm.pending_groups(), 0u);
}

TEST(Fragment, DuplicateFragmentIgnored) {
  Reassembler reasm;
  FragmentHeader h{1, 7, 0, 2};
  EXPECT_FALSE(reasm.add(h, to_bytes("ab")).has_value());
  EXPECT_FALSE(reasm.add(h, to_bytes("ab")).has_value());  // dup
  h.index = 1;
  auto whole = reasm.add(h, to_bytes("cd"));
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(to_string(*whole), "abcd");
}

TEST(Fragment, InterleavedGroups) {
  Reassembler reasm;
  EXPECT_FALSE(reasm.add({1, 1, 0, 2}, to_bytes("A")).has_value());
  EXPECT_FALSE(reasm.add({2, 2, 0, 2}, to_bytes("X")).has_value());
  auto g1 = reasm.add({3, 1, 1, 2}, to_bytes("B"));
  ASSERT_TRUE(g1.has_value());
  EXPECT_EQ(to_string(*g1), "AB");
  auto g2 = reasm.add({4, 2, 1, 2}, to_bytes("Y"));
  ASSERT_TRUE(g2.has_value());
  EXPECT_EQ(to_string(*g2), "XY");
}

TEST(Fragment, EvictionBoundsMemory) {
  Reassembler reasm(4);
  for (std::uint32_t g = 0; g < 20; ++g)
    reasm.add({g, g, 0, 2}, to_bytes("x"));  // never completed
  EXPECT_LE(reasm.pending_groups(), 4u);
  EXPECT_EQ(reasm.evicted(), 16u);
}

TEST(Fragment, BogusHeadersRejected) {
  Reassembler reasm;
  EXPECT_FALSE(reasm.add({1, 1, 5, 3}, to_bytes("x")).has_value());  // index >= count
  EXPECT_FALSE(reasm.add({1, 1, 0, 0}, to_bytes("x")).has_value());  // count == 0
}

TEST(Fragment, FloodEvictsOldestFirstByThousands) {
  // Regression for the O(n) eviction scan: a fragment flood of
  // thousands of never-completed groups must evict strictly oldest
  // first (FIFO order) while the live set stays bounded. With the old
  // full-scan this test was O(n^2); the intrusive FIFO makes each
  // eviction O(1).
  constexpr std::uint32_t kFlood = 5000;
  Reassembler reasm(64);
  for (std::uint32_t g = 0; g < kFlood; ++g)
    reasm.add({g, g, 0, 2}, to_bytes("x"));
  EXPECT_EQ(reasm.pending_groups(), 64u);
  EXPECT_EQ(reasm.evicted(), kFlood - 64);

  // The survivors are exactly the newest 64 groups: completing each
  // of them must succeed, and completing any evicted group must not
  // (its first half is gone, so the second half reopens the group).
  for (std::uint32_t g = kFlood - 64; g < kFlood; ++g) {
    auto whole = reasm.add({kFlood + g, g, 1, 2}, to_bytes("y"));
    ASSERT_TRUE(whole.has_value()) << "group " << g << " was wrongly evicted";
    EXPECT_EQ(to_string(*whole), "xy");
  }
  EXPECT_EQ(reasm.pending_groups(), 0u);
  auto stale = reasm.add({2 * kFlood, 0, 1, 2}, to_bytes("y"));
  EXPECT_FALSE(stale.has_value());  // group 0 was evicted long ago
}

TEST(Fragment, CompletionUnlinksFifoMiddle) {
  Reassembler reasm(3);
  // Open 1..3, complete 2 (unlinks the FIFO's middle entry), refill,
  // overflow: the eviction must take group 1 (the true oldest), not
  // trip over the unlinked entry.
  reasm.add({1, 1, 0, 2}, to_bytes("a"));
  reasm.add({2, 2, 0, 2}, to_bytes("b"));
  reasm.add({3, 3, 0, 2}, to_bytes("c"));
  ASSERT_TRUE(reasm.add({4, 2, 1, 2}, to_bytes("B")).has_value());
  reasm.add({5, 4, 0, 2}, to_bytes("d"));  // fills the freed slot
  EXPECT_EQ(reasm.evicted(), 0u);
  reasm.add({6, 5, 0, 2}, to_bytes("e"));  // overflow: evicts group 1
  EXPECT_EQ(reasm.evicted(), 1u);
  // Group 3 survived (group 1 went first) and completes normally.
  auto g3 = reasm.add({7, 3, 1, 2}, to_bytes("C"));
  ASSERT_TRUE(g3.has_value());
  EXPECT_EQ(to_string(*g3), "cC");
  // Group 1 is gone: its second half reopens a fresh group instead.
  EXPECT_FALSE(reasm.add({8, 1, 1, 2}, to_bytes("A")).has_value());
}

TEST(Fragment, PoolRecyclesPartAndWholeBuffers) {
  net::PacketPool pool(16);
  Reassembler reasm(8, &pool);
  Rng rng(11);
  Bytes payload = rng.bytes(4000);
  auto frags = fragment_payload(payload, 1500);
  ASSERT_EQ(frags.size(), 3u);

  std::uint64_t id = 1;
  std::uint32_t group = 1;
  auto round_trip = [&] {
    std::optional<Bytes> whole;
    for (std::size_t i = 0; i < frags.size(); ++i) {
      Bytes part = pool.acquire_bytes();
      part.assign(frags[i].begin(), frags[i].end());
      whole = reasm.add({id++, group, static_cast<std::uint16_t>(i),
                         static_cast<std::uint16_t>(frags.size())},
                        std::move(part));
    }
    ++group;
    ASSERT_TRUE(whole.has_value());
    EXPECT_EQ(*whole, payload);
    pool.release_bytes(std::move(*whole));
  };
  round_trip();
  // Warmed up: part buffers and the reassembled whole now cycle through
  // the pool, so further round trips are pure pool hits.
  std::uint64_t misses_before = pool.misses();
  for (int i = 0; i < 20; ++i) round_trip();
  EXPECT_EQ(pool.misses(), misses_before);
  EXPECT_GT(pool.hits(), 0u);
}

TEST(Fragment, AgeHorizonExpiresStaleGroups) {
  Reassembler reasm;
  reasm.set_horizon(100);
  reasm.add({1, 1, 0, 2}, to_bytes("a"), 0);
  reasm.add({2, 2, 0, 2}, to_bytes("b"), 50);
  EXPECT_EQ(reasm.pending_groups(), 2u);
  // At 99 nothing has aged out yet (horizon not reached for anyone).
  EXPECT_EQ(reasm.expire_stale(99), 0u);
  // At 100 group 1 (born 0) is exactly horizon old and goes; group 2
  // (born 50) survives and still completes.
  EXPECT_EQ(reasm.expire_stale(100), 1u);
  EXPECT_EQ(reasm.expired(), 1u);
  auto g2 = reasm.add({3, 2, 1, 2}, to_bytes("B"), 100);
  ASSERT_TRUE(g2.has_value());
  EXPECT_EQ(to_string(*g2), "bB");
  // Group 1 is gone: its second half reopens a fresh group.
  EXPECT_FALSE(reasm.add({4, 1, 1, 2}, to_bytes("A"), 100).has_value());
}

TEST(Fragment, ZeroHorizonNeverAgesOut) {
  Reassembler reasm;  // horizon defaults to 0: count-based cap only
  reasm.add({1, 1, 0, 2}, to_bytes("a"), 0);
  EXPECT_EQ(reasm.expire_stale(1'000'000'000), 0u);
  EXPECT_EQ(reasm.pending_groups(), 1u);
}

TEST(Fragment, FloodThenIdleReclaimsEveryStaleGroup) {
  // Regression for unbounded-age fragment state: a flood of
  // never-completed groups followed by idle time must be reclaimed in
  // full by the age horizon — without the horizon the only bound was
  // the LRU cap, so a slow trickle below the cap leaked forever.
  constexpr std::uint32_t kFlood = 5000;
  Reassembler reasm(8192);
  reasm.set_horizon(1000);
  for (std::uint32_t g = 0; g < kFlood; ++g)
    reasm.add({g, g, 0, 2}, to_bytes("x"), g / 100);  // born 0..49
  EXPECT_EQ(reasm.pending_groups(), kFlood);
  EXPECT_EQ(reasm.evicted(), 0u);  // under the LRU cap: age is the bound
  // One packet after a long idle gap sweeps the whole backlog.
  reasm.add({kFlood, kFlood, 0, 2}, to_bytes("y"), 10'000);
  EXPECT_EQ(reasm.pending_groups(), 1u);
  EXPECT_EQ(reasm.expired(), kFlood);
}

// ---- Wire format ------------------------------------------------------------

TEST(Wire, MessageRoundTrip) {
  WireMessage msg;
  msg.type = MsgType::Ping;
  msg.session_id = 77;
  msg.body = to_bytes("body");
  auto back = WireMessage::parse(msg.serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->type, MsgType::Ping);
  EXPECT_EQ(back->session_id, 77u);
  EXPECT_EQ(back->body, to_bytes("body"));
}

TEST(Wire, ParseRejectsGarbage) {
  EXPECT_FALSE(WireMessage::parse(Bytes{1, 2}).ok());
  Bytes bad = {99, 0, 0, 0, 1};  // unknown type
  EXPECT_FALSE(WireMessage::parse(bad).ok());
}

// ---- Full tunnel ------------------------------------------------------------

struct TunnelFixture : ::testing::Test {
  Rng rng{31};
  sim::Clock clock;
  sgx::AttestationService ias{rng};
  ca::CertificateAuthority authority{rng, ias};
  sgx::SgxPlatform platform{"client-1", rng, clock};
  sgx::Enclave enclave{platform, "endbox-v1", sgx::SgxMode::Hardware};
  crypto::RsaKeyPair enclave_key = crypto::rsa_generate(rng);
  // Runs before `server` is constructed (member order): registers the
  // platform with the IAS and allow-lists the enclave measurement.
  bool registrations_done = [this] {
    ias.register_platform("client-1", platform.attestation_key().pub);
    authority.allow_measurement(enclave.measurement());
    return true;
  }();
  VpnServer server{rng, authority.public_key(), VpnServerConfig{}};
  ca::Certificate certificate;

  TunnelFixture() {
    sgx::QuotingEnclave qe(platform);
    auto quote = qe.quote(enclave.create_report(
        sgx::bind_report_data(enclave_key.pub.serialize())));
    auto response = authority.provision(quote->serialize(), enclave_key.pub);
    certificate = response->certificate;
  }

  VpnClientSession make_client(VpnClientConfig config = {}) {
    return VpnClientSession(rng, certificate, enclave_key, server.public_key(),
                            config);
  }

  /// Runs the handshake against an arbitrary server instance.
  VpnClientSession connect_to(VpnServer& target, VpnClientConfig config = {}) {
    VpnClientSession client(rng, certificate, enclave_key, target.public_key(),
                            config);
    auto init = client.create_handshake_init();
    auto event = target.handle(init.serialize(), clock.now());
    EXPECT_TRUE(event.ok()) << event.error();
    auto& done = std::get<VpnServer::HandshakeDone>(*event);
    auto reply = WireMessage::parse(done.reply_wire);
    EXPECT_TRUE(reply.ok());
    auto status = client.process_handshake_reply(*reply);
    EXPECT_TRUE(status.ok()) << status.error();
    return client;
  }

  /// Runs the handshake; returns the established client session.
  VpnClientSession connect(VpnClientConfig config = {}) {
    return connect_to(server, config);
  }
};

TEST_F(TunnelFixture, HandshakeEstablishes) {
  auto client = connect();
  EXPECT_TRUE(client.established());
  EXPECT_EQ(client.negotiated_version(), kVersionTls13);
  EXPECT_EQ(server.session_count(), 1u);
}

TEST_F(TunnelFixture, DataRoundTripClientToServer) {
  auto client = connect();
  Bytes ip_packet = to_bytes("pretend-ip-packet-bytes");
  auto messages = seal_frames(client, ip_packet);
  ASSERT_EQ(messages.size(), 1u);
  auto event = server.handle(messages[0], clock.now());
  ASSERT_TRUE(event.ok()) << event.error();
  auto& packet = std::get<VpnServer::PacketIn>(*event);
  EXPECT_EQ(packet.ip_packet, ip_packet);
  EXPECT_TRUE(packet.was_encrypted);
}

TEST_F(TunnelFixture, DataRoundTripServerToClient) {
  auto client = connect();
  Bytes ip_packet = to_bytes("server pushes this");
  auto messages = seal_frames(server, client.session_id(), ip_packet);
  ASSERT_EQ(messages.size(), 1u);
  auto opened = client.open_data_frame(messages[0], {});
  ASSERT_TRUE(opened.ok()) << opened.error();
  ASSERT_TRUE(opened->has_value());
  EXPECT_EQ(**opened, ip_packet);
}

TEST_F(TunnelFixture, LargePacketsFragmentAndReassemble) {
  VpnClientConfig config;
  config.mtu = 9000;
  auto client = connect(config);
  Rng data_rng(5);
  Bytes big = data_rng.bytes(64 * 1024);
  auto messages = seal_frames(client, big);
  EXPECT_EQ(messages.size(), 8u);  // ceil(65536 / 9000)
  for (std::size_t i = 0; i + 1 < messages.size(); ++i) {
    auto event = server.handle(messages[i], clock.now());
    ASSERT_TRUE(event.ok());
    EXPECT_TRUE(std::holds_alternative<VpnServer::FragmentPending>(*event));
  }
  auto last = server.handle(messages.back(), clock.now());
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(std::get<VpnServer::PacketIn>(*last).ip_packet, big);
}

TEST_F(TunnelFixture, OpenBatchDeliversMixedSessionsInArrivalOrder) {
  auto alice = connect();
  auto bob = connect();
  // An interleaved uplink train: alice, bob, alice.
  std::vector<Bytes> frames;
  std::size_t n = 0;
  n = alice.seal_packet_wire_at(to_bytes("alice-1"), frames, n);
  n = bob.seal_packet_wire_at(to_bytes("bob-1"), frames, n);
  n = alice.seal_packet_wire_at(to_bytes("alice-2"), frames, n);
  ASSERT_EQ(n, 3u);

  VpnServer::OpenBatch out;
  server.open_batch(std::span<const Bytes>(frames.data(), n), clock.now(), out);
  EXPECT_EQ(out.complete, 3u);
  EXPECT_EQ(out.rejected, 0u);
  EXPECT_EQ(out.pending, 0u);
  ASSERT_EQ(out.packet_count, 3u);
  EXPECT_EQ(to_string(out.packets[0].ip_packet), "alice-1");
  EXPECT_EQ(out.packets[0].session_id, alice.session_id());
  EXPECT_EQ(to_string(out.packets[1].ip_packet), "bob-1");
  EXPECT_EQ(out.packets[1].session_id, bob.session_id());
  EXPECT_EQ(to_string(out.packets[2].ip_packet), "alice-2");
}

TEST_F(TunnelFixture, OpenBatchReassemblesFragmentsAcrossTheTrain) {
  VpnClientConfig config;
  config.mtu = 100;
  auto client = connect(config);
  Rng data_rng(9);
  Bytes big = data_rng.bytes(250);  // 3 fragments
  std::vector<Bytes> frames;
  std::size_t n = client.seal_packet_wire_at(big, frames, 0);
  ASSERT_EQ(n, 3u);

  VpnServer::OpenBatch out;
  server.open_batch(std::span<const Bytes>(frames.data(), n), clock.now(), out);
  EXPECT_EQ(out.complete, 1u);
  EXPECT_EQ(out.pending, 2u);
  ASSERT_EQ(out.packet_count, 1u);
  EXPECT_EQ(out.packets[0].ip_packet, big);
}

TEST_F(TunnelFixture, OpenBatchRejectsBadFramesIndividually) {
  auto client = connect();
  std::vector<Bytes> frames;
  std::size_t n = 0;
  n = client.seal_packet_wire_at(to_bytes("good-1"), frames, n);
  n = client.seal_packet_wire_at(to_bytes("tampered"), frames, n);
  n = client.seal_packet_wire_at(to_bytes("good-2"), frames, n);
  ASSERT_EQ(n, 3u);
  frames[1].back() ^= 0x01;  // corrupt the MAC of the middle frame

  std::uint64_t auth_before = server.auth_failures();
  VpnServer::OpenBatch out;
  server.open_batch(std::span<const Bytes>(frames.data(), n), clock.now(), out);
  EXPECT_EQ(out.complete, 2u);
  EXPECT_EQ(out.rejected, 1u);
  EXPECT_EQ(server.auth_failures(), auth_before + 1);
  ASSERT_EQ(out.packet_count, 2u);
  EXPECT_EQ(to_string(out.packets[0].ip_packet), "good-1");
  EXPECT_EQ(to_string(out.packets[1].ip_packet), "good-2");

  // A ping frame does not belong on the batched data drain.
  Bytes ping = ping_frame(client);
  std::vector<Bytes> control{ping};
  server.open_batch(std::span<const Bytes>(control.data(), 1), clock.now(), out);
  EXPECT_EQ(out.rejected, 1u);
  EXPECT_EQ(out.complete, 0u);
}

TEST_F(TunnelFixture, OpenBatchEnforcesReplayWindowInOrder) {
  auto client = connect();
  std::vector<Bytes> frames;
  std::size_t n = 0;
  n = client.seal_packet_wire_at(to_bytes("one"), frames, n);
  n = client.seal_packet_wire_at(to_bytes("two"), frames, n);

  VpnServer::OpenBatch out;
  server.open_batch(std::span<const Bytes>(frames.data(), n), clock.now(), out);
  EXPECT_EQ(out.complete, 2u);

  // Replaying the identical train: every frame rejected, none delivered.
  std::uint64_t replays_before = server.replays_rejected();
  server.open_batch(std::span<const Bytes>(frames.data(), n), clock.now(), out);
  EXPECT_EQ(out.complete, 0u);
  EXPECT_EQ(out.rejected, 2u);
  EXPECT_EQ(server.replays_rejected(), replays_before + 2);
}

TEST_F(TunnelFixture, OpenBatchMatchesPerFrameReplayAndDeliveryCounts) {
  // The same train through open_batch and through frame-at-a-time
  // handle() on a twin session must deliver identical packet sequences.
  auto batch_client = connect();
  auto frame_client = connect();
  Rng data_rng(21);
  std::vector<Bytes> payloads;
  for (int i = 0; i < 8; ++i) payloads.push_back(data_rng.bytes(40 + 13 * i));

  std::vector<Bytes> batch_frames;
  std::size_t n = 0;
  for (const Bytes& p : payloads)
    n = batch_client.seal_packet_wire_at(p, batch_frames, n);
  VpnServer::OpenBatch out;
  server.open_batch(std::span<const Bytes>(batch_frames.data(), n), clock.now(), out);
  ASSERT_EQ(out.packet_count, payloads.size());

  std::vector<Bytes> frame_frames;
  std::size_t m = 0;
  for (const Bytes& p : payloads)
    m = frame_client.seal_packet_wire_at(p, frame_frames, m);
  for (std::size_t i = 0; i < m; ++i) {
    auto event = server.handle(frame_frames[i], clock.now());
    ASSERT_TRUE(event.ok()) << event.error();
    auto* in = std::get_if<VpnServer::PacketIn>(&*event);
    ASSERT_NE(in, nullptr);
    EXPECT_EQ(in->ip_packet, out.packets[i].ip_packet);
  }
}

TEST_F(TunnelFixture, SealBatchRoundTripsThroughTheClient) {
  auto client = connect();
  Bytes a = to_bytes("downlink-a");
  Bytes b = to_bytes("downlink-b-longer");
  std::array<VpnServer::SealJob, 2> jobs{
      VpnServer::SealJob{client.session_id(), a},
      VpnServer::SealJob{client.session_id(), b}};
  std::vector<Bytes> frames;
  std::size_t n = server.seal_jobs(jobs, frames);
  ASSERT_EQ(n, 2u);
  for (std::size_t i = 0; i < n; ++i) {
    auto opened = client.open_data_frame(frames[i], {});
    ASSERT_TRUE(opened.ok()) << opened.error();
    ASSERT_TRUE(opened->has_value());
    EXPECT_EQ(**opened, i == 0 ? a : b);
  }
}

TEST_F(TunnelFixture, CiphertextRevealsNothingObvious) {
  auto client = connect();
  Bytes secret = to_bytes("SUPER-SECRET-MARKER");
  auto wire = seal_frames(client, secret)[0];
  // The plaintext marker must not appear in the sealed message.
  auto it = std::search(wire.begin(), wire.end(), secret.begin(), secret.end());
  EXPECT_EQ(it, wire.end());
}

TEST_F(TunnelFixture, TamperedDataRejected) {
  auto client = connect();
  auto msg = *WireMessage::parse(seal_frames(client, to_bytes("payload"))[0]);
  msg.body[msg.body.size() / 2] ^= 1;
  EXPECT_FALSE(server.handle(msg.serialize(), clock.now()).ok());
  EXPECT_EQ(server.auth_failures(), 1u);
}

TEST_F(TunnelFixture, ReplayedTrafficRejected) {
  auto client = connect();
  auto wire = seal_frames(client, to_bytes("payload"))[0];
  EXPECT_TRUE(server.handle(wire, clock.now()).ok());
  auto replay = server.handle(wire, clock.now());
  EXPECT_FALSE(replay.ok());
  EXPECT_NE(replay.error().find("replay"), std::string::npos);
  EXPECT_EQ(server.replays_rejected(), 1u);
}

TEST_F(TunnelFixture, UnknownSessionRejected) {
  auto client = connect();
  auto msg = *WireMessage::parse(seal_frames(client, to_bytes("x"))[0]);
  msg.session_id = 999;
  EXPECT_FALSE(server.handle(msg.serialize(), clock.now()).ok());
}

TEST_F(TunnelFixture, ForgedCertificateRejected) {
  // Self-issued certificate: not signed by the network CA.
  auto attacker_key = crypto::rsa_generate(rng);
  ca::Certificate forged;
  forged.subject_key = attacker_key.pub;
  forged.serial = 1;
  forged.signature = crypto::rsa_sign(attacker_key, forged.signed_portion());
  VpnClientSession attacker(rng, forged, attacker_key, server.public_key(), {});
  auto init = attacker.create_handshake_init();
  auto event = server.handle(init.serialize(), clock.now());
  EXPECT_FALSE(event.ok());
  EXPECT_EQ(server.handshakes_rejected(), 1u);
  EXPECT_EQ(server.session_count(), 0u);
}

TEST_F(TunnelFixture, DowngradeRejectedByServer) {
  auto client = make_client();
  auto init = client.create_handshake_init(0x0301);  // TLS 1.0
  EXPECT_FALSE(server.handle(init.serialize(), clock.now()).ok());
}

TEST_F(TunnelFixture, DowngradeRejectedInsideEnclaveCheck) {
  // A MITM rewrites the reply to claim TLS 1.0: client-side (in-enclave)
  // check must reject even if the signature were somehow valid; here the
  // signature check also fails — both defenses hold.
  auto client = make_client();
  auto init = client.create_handshake_init();
  auto event = server.handle(init.serialize(), clock.now());
  ASSERT_TRUE(event.ok());
  auto reply = WireMessage::parse(std::get<VpnServer::HandshakeDone>(*event).reply_wire);
  ASSERT_TRUE(reply.ok());
  reply->body[0] = 0x03;
  reply->body[1] = 0x01;  // claim TLS 1.0
  EXPECT_FALSE(client.process_handshake_reply(*reply).ok());
}

TEST_F(TunnelFixture, IntegrityOnlyModeRequiresServerPolicy) {
  VpnClientConfig isp_config;
  isp_config.encrypt_data = false;
  auto client = connect(isp_config);
  auto msg = *WireMessage::parse(seal_frames(client, to_bytes("isp traffic"))[0]);
  EXPECT_EQ(msg.type, MsgType::DataIntegrityOnly);
  // Default server policy: reject.
  EXPECT_FALSE(server.handle(msg.serialize(), clock.now()).ok());
}

TEST_F(TunnelFixture, IntegrityOnlyModeWorksWhenAllowed) {
  VpnServerConfig server_config;
  server_config.allow_integrity_only = true;
  VpnServer isp_server(rng, authority.public_key(), server_config);
  VpnClientConfig isp_config;
  isp_config.encrypt_data = false;
  VpnClientSession client(rng, certificate, enclave_key, isp_server.public_key(),
                          isp_config);
  auto event = isp_server.handle(client.create_handshake_init().serialize(), 0);
  ASSERT_TRUE(event.ok()) << event.error();
  auto reply = WireMessage::parse(std::get<VpnServer::HandshakeDone>(*event).reply_wire);
  ASSERT_TRUE(client.process_handshake_reply(*reply).ok());

  auto msg = *WireMessage::parse(seal_frames(client, to_bytes("isp traffic"))[0]);
  auto data_event = isp_server.handle(msg.serialize(), 0);
  ASSERT_TRUE(data_event.ok()) << data_event.error();
  auto& packet = std::get<VpnServer::PacketIn>(*data_event);
  EXPECT_FALSE(packet.was_encrypted);
  EXPECT_EQ(packet.ip_packet, to_bytes("isp traffic"));
  // Integrity still enforced:
  auto msg2 = *WireMessage::parse(seal_frames(client, to_bytes("isp traffic 2"))[0]);
  msg2.body[20] ^= 1;
  EXPECT_FALSE(isp_server.handle(msg2.serialize(), 0).ok());
}

TEST_F(TunnelFixture, PingCarriesConfigVersionBothWays) {
  auto client = connect();
  // Server -> client ping announces version + grace.
  server.announce_config(5, 30, clock.now());
  auto server_ping = server.create_ping(client.session_id());
  auto info = client.process_ping(*WireMessage::parse(server_ping));
  ASSERT_TRUE(info.ok()) << info.error();
  EXPECT_EQ(info->config_version, 5u);
  EXPECT_EQ(info->grace_period_secs, 30u);

  // Client -> server ping proves the update was applied.
  client.set_config_version(5);
  auto event = server.handle(ping_frame(client), clock.now());
  ASSERT_TRUE(event.ok());
  EXPECT_EQ(std::get<VpnServer::PingIn>(*event).info.config_version, 5u);
  EXPECT_EQ(server.session_config_version(client.session_id()), 5u);
}

TEST_F(TunnelFixture, CraftedPingRejected) {
  auto client = connect();
  WireMessage forged;
  forged.type = MsgType::Ping;
  forged.session_id = client.session_id();
  PingInfo fake{1, 999, 0};
  SessionKeys wrong_keys{Bytes(16, 0), Bytes(32, 0)};
  forged.body = seal_ping_body(wrong_keys, fake);
  EXPECT_FALSE(server.handle(forged.serialize(), clock.now()).ok());
  EXPECT_EQ(server.auth_failures(), 1u);
}

TEST_F(TunnelFixture, StaleConfigBlockedAfterGrace) {
  auto client = connect();  // client at config version 1
  ASSERT_TRUE(server.handle(seal_frames(client, to_bytes("ok"))[0],
                            clock.now()).ok());

  server.announce_config(2, 10, clock.now());  // v2, 10 s grace

  // During grace: old config still accepted.
  clock.advance_to(5 * sim::kSecond);
  EXPECT_TRUE(server.handle(seal_frames(client, to_bytes("still ok"))[0],
                            clock.now()).ok());

  // After grace: blocked.
  clock.advance_to(11 * sim::kSecond);
  auto blocked = server.handle(seal_frames(client, to_bytes("nope"))[0],
                               clock.now());
  EXPECT_FALSE(blocked.ok());
  EXPECT_NE(blocked.error().find("stale"), std::string::npos);
  EXPECT_EQ(server.stale_config_drops(), 1u);

  // Client updates and proves it via ping: traffic flows again.
  client.set_config_version(2);
  ASSERT_TRUE(server.handle(ping_frame(client), clock.now()).ok());
  EXPECT_TRUE(server.handle(seal_frames(client, to_bytes("fresh"))[0],
                            clock.now()).ok());
}

TEST_F(TunnelFixture, ConfigVersionCannotRollBack) {
  auto client = connect();
  client.set_config_version(5);
  ASSERT_TRUE(server.handle(ping_frame(client), clock.now()).ok());
  EXPECT_EQ(server.session_config_version(client.session_id()), 5u);
  // A malicious ping claiming an older version must not roll back.
  client.set_config_version(3);
  ASSERT_TRUE(server.handle(ping_frame(client), clock.now()).ok());
  EXPECT_EQ(server.session_config_version(client.session_id()), 5u);
}

TEST_F(TunnelFixture, AnnounceConfigIgnoresOldVersions) {
  server.announce_config(5, 10, clock.now());
  server.announce_config(3, 10, clock.now());
  EXPECT_EQ(server.current_config_version(), 5u);
}

TEST_F(TunnelFixture, MultipleClients) {
  auto c1 = connect();
  auto c2 = connect();
  EXPECT_NE(c1.session_id(), c2.session_id());
  EXPECT_EQ(server.session_count(), 2u);
  auto e1 = server.handle(seal_frames(c1, to_bytes("from c1"))[0], 0);
  auto e2 = server.handle(seal_frames(c2, to_bytes("from c2"))[0], 0);
  ASSERT_TRUE(e1.ok());
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ(std::get<VpnServer::PacketIn>(*e1).session_id, c1.session_id());
  EXPECT_EQ(std::get<VpnServer::PacketIn>(*e2).session_id, c2.session_id());
}

// ---- Session lifecycle ------------------------------------------------------

TEST_F(TunnelFixture, IdleSessionExpiresAndFiresCloseHook) {
  VpnServerConfig config;
  config.session_idle_timeout = 30 * sim::kSecond;
  VpnServer srv(rng, authority.public_key(), config);
  std::vector<std::uint32_t> closed;
  srv.set_session_close_hook([&](std::uint32_t id) { closed.push_back(id); });

  auto active = connect_to(srv);
  auto idle = connect_to(srv);
  EXPECT_EQ(srv.session_count(), 2u);

  // Only `active` keeps talking.
  clock.advance_to(20 * sim::kSecond);
  ASSERT_TRUE(srv.handle(seal_frames(active, to_bytes("keepalive"))[0],
                         clock.now())
                  .ok());
  // 31 s in: `idle` (silent since its handshake at t=0) is past the
  // timeout; the sweep runs on the next frame the server sees.
  clock.advance_to(31 * sim::kSecond);
  ASSERT_TRUE(srv.handle(seal_frames(active, to_bytes("tick"))[0],
                         clock.now())
                  .ok());
  EXPECT_EQ(srv.session_count(), 1u);
  EXPECT_EQ(srv.sessions_expired(), 1u);
  EXPECT_EQ(closed, (std::vector<std::uint32_t>{idle.session_id()}));
  EXPECT_TRUE(srv.has_session(active.session_id()));
  // The expired session's traffic is now rejected like any unknown id.
  EXPECT_FALSE(srv.handle(seal_frames(idle, to_bytes("x"))[0],
                          clock.now())
                   .ok());
}

TEST_F(TunnelFixture, CloseSessionDropsStateAndFiresHook) {
  std::vector<std::uint32_t> closed;
  server.set_session_close_hook([&](std::uint32_t id) { closed.push_back(id); });
  auto client = connect();
  EXPECT_TRUE(server.close_session(client.session_id()));
  EXPECT_FALSE(server.close_session(client.session_id()));  // already gone
  EXPECT_EQ(server.session_count(), 0u);
  EXPECT_EQ(closed, (std::vector<std::uint32_t>{client.session_id()}));
  EXPECT_FALSE(server.handle(seal_frames(client, to_bytes("x"))[0],
                             clock.now())
                   .ok());
  // Re-key: a fresh handshake establishes a brand-new session.
  auto again = connect();
  EXPECT_TRUE(server.has_session(again.session_id()));
  EXPECT_EQ(server.session_count(), 1u);
}

TEST_F(TunnelFixture, HandshakeRejectedWhenShardAtCapacity) {
  VpnServerConfig config;
  config.session_capacity_per_shard = 2;
  VpnServer srv(rng, authority.public_key(), config);
  auto a = connect_to(srv);
  connect_to(srv);
  VpnClientSession third(rng, certificate, enclave_key, srv.public_key(), {});
  auto event = srv.handle(third.create_handshake_init().serialize(), clock.now());
  EXPECT_FALSE(event.ok());
  EXPECT_NE(event.error().find("capacity"), std::string::npos);
  EXPECT_EQ(srv.sessions_rejected_full(), 1u);
  EXPECT_EQ(srv.handshakes_rejected(), 1u);
  EXPECT_EQ(srv.session_count(), 2u);
  // Closing one session makes room for the next admission.
  EXPECT_TRUE(srv.close_session(a.session_id()));
  connect_to(srv);
  EXPECT_EQ(srv.session_count(), 2u);
  EXPECT_EQ(srv.shard_peak_sessions(0), 2u);
}

TEST_F(TunnelFixture, GarbageFloodDoesNotKeepSessionAlive) {
  // Only authenticated traffic counts as session activity: an attacker
  // spraying tampered frames at a session id must not extend its life.
  VpnServerConfig config;
  config.session_idle_timeout = 30 * sim::kSecond;
  VpnServer srv(rng, authority.public_key(), config);
  auto client = connect_to(srv);
  auto msg = *WireMessage::parse(seal_frames(client, to_bytes("payload"))[0]);
  msg.body[msg.body.size() / 2] ^= 1;  // break the MAC
  Bytes tampered = msg.serialize();
  for (sim::Time t = 5; t <= 25; t += 10) {
    clock.advance_to(t * sim::kSecond);
    EXPECT_FALSE(srv.handle(tampered, clock.now()).ok());
    EXPECT_EQ(srv.session_last_activity(client.session_id()), 0u);
  }
  clock.advance_to(30 * sim::kSecond);
  EXPECT_FALSE(srv.handle(tampered, clock.now()).ok());
  EXPECT_EQ(srv.session_count(), 0u);
  EXPECT_EQ(srv.sessions_expired(), 1u);
}

TEST_F(TunnelFixture, FragmentHorizonDropsStaleGroupsInTheServer) {
  VpnServerConfig config;
  config.fragment_horizon = 5 * sim::kSecond;
  VpnServer srv(rng, authority.public_key(), config);
  VpnClientConfig client_config;
  client_config.mtu = 100;
  auto client = connect_to(srv, client_config);
  Rng data_rng(17);
  Bytes big = data_rng.bytes(250);  // 3 fragments
  auto messages = seal_frames(client, big);
  ASSERT_EQ(messages.size(), 3u);
  for (int i = 0; i < 2; ++i) {
    auto event = srv.handle(messages[static_cast<std::size_t>(i)],
                            clock.now());
    ASSERT_TRUE(event.ok());
    EXPECT_TRUE(std::holds_alternative<VpnServer::FragmentPending>(*event));
  }
  // The last fragment lands 10 s later: the half-built group (born at
  // t=0) aged out, so instead of completing it reopens a fresh group.
  clock.advance_to(10 * sim::kSecond);
  auto late = srv.handle(messages[2], clock.now());
  ASSERT_TRUE(late.ok());
  EXPECT_TRUE(std::holds_alternative<VpnServer::FragmentPending>(*late));
  EXPECT_EQ(srv.fragments_expired(), 1u);
  // A fresh large packet delivered promptly still reassembles fine.
  Bytes big2 = data_rng.bytes(250);
  auto messages2 = seal_frames(client, big2);
  ASSERT_EQ(messages2.size(), 3u);
  for (std::size_t i = 0; i + 1 < messages2.size(); ++i)
    ASSERT_TRUE(srv.handle(messages2[i], clock.now()).ok());
  auto done = srv.handle(messages2.back(), clock.now());
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(std::get<VpnServer::PacketIn>(*done).ip_packet, big2);
}

TEST_F(TunnelFixture, SealBeforeHandshakeThrows) {
  auto client = make_client();
  EXPECT_THROW(seal_frames(client, to_bytes("x")), std::logic_error);
  EXPECT_THROW(ping_frame(client), std::logic_error);
}

// ---- Robustness: mutation fuzz, duplicate handshakes, re-key ---------------

TEST_F(TunnelFixture, MutationFuzzDataFrameEveryByteRejectsCleanly) {
  auto client = connect();
  auto frames = seal_frames(client, to_bytes("fuzz-me-until-i-break"));
  ASSERT_EQ(frames.size(), 1u);
  const Bytes valid = frames[0];
  VpnServer::OpenBatch out;
  std::vector<Bytes> train(1);
  for (std::size_t i = 0; i < valid.size(); ++i) {
    for (std::uint8_t mask : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
      train[0] = valid;
      train[0][i] ^= mask;
      // Typed rejection, no throw, no state advanced.
      server.open_batch(train, clock.now(), out);
      EXPECT_EQ(out.complete, 0u) << "byte " << i << " mask " << int(mask);
      EXPECT_EQ(out.rejected, 1u) << "byte " << i << " mask " << int(mask);
    }
  }
  // Truncations of every length reject cleanly too.
  for (std::size_t len = 0; len < valid.size(); ++len) {
    train[0].assign(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(len));
    server.open_batch(train, clock.now(), out);
    EXPECT_EQ(out.complete, 0u) << "len " << len;
  }
  // No mutant advanced the replay window: the pristine frame, with the
  // very packet id every mutant carried, still opens.
  train[0] = valid;
  server.open_batch(train, clock.now(), out);
  ASSERT_EQ(out.complete, 1u);
  EXPECT_EQ(Bytes(out.packets[0].ip_packet), to_bytes("fuzz-me-until-i-break"));
}

TEST_F(TunnelFixture, MutationFuzzHandshakeReplyEveryByteRejectsCleanly) {
  auto client = make_client();
  auto init = client.create_handshake_init();
  auto event = server.handle(init.serialize(), clock.now());
  ASSERT_TRUE(event.ok()) << event.error();
  const Bytes valid = std::get<VpnServer::HandshakeDone>(*event).reply_wire;
  for (std::size_t i = 0; i < valid.size(); ++i) {
    for (std::uint8_t mask : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
      Bytes mutant = valid;
      mutant[i] ^= mask;
      auto parsed = WireMessage::parse(mutant);
      if (!parsed.ok()) continue;  // typed parse error: also fine
      auto status = client.process_handshake_reply(*parsed);
      EXPECT_FALSE(status.ok()) << "byte " << i << " mask " << int(mask);
      EXPECT_FALSE(client.established());
    }
    // Truncated replies reject without throwing (ByteReader bounds).
    Bytes short_reply(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(i));
    auto parsed = WireMessage::parse(short_reply);
    if (parsed.ok()) {
      EXPECT_FALSE(client.process_handshake_reply(*parsed).ok());
    }
  }
  // The untouched reply still completes the handshake afterwards.
  auto parsed = WireMessage::parse(valid);
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(client.process_handshake_reply(*parsed).ok());
  EXPECT_TRUE(client.established());
}

TEST_F(TunnelFixture, DuplicateHandshakeInitMintsNoSecondSession) {
  auto client = make_client();
  Bytes init = client.create_handshake_init().serialize();
  auto first = server.handle(init, clock.now());
  ASSERT_TRUE(first.ok()) << first.error();
  auto& done1 = std::get<VpnServer::HandshakeDone>(*first);
  // The network (or the retransmission layer) delivers the same init
  // again: the dedupe cache answers with the SAME session and reply.
  auto second = server.handle(init, clock.now());
  ASSERT_TRUE(second.ok()) << second.error();
  auto& done2 = std::get<VpnServer::HandshakeDone>(*second);
  EXPECT_EQ(done1.session_id, done2.session_id);
  EXPECT_EQ(done1.reply_wire, done2.reply_wire);
  EXPECT_EQ(server.session_count(), 1u);
  EXPECT_EQ(server.handshakes_deduped(), 1u);
}

TEST_F(TunnelFixture, DuplicateHandshakeReplyDoesNotResetTheSession) {
  auto client = make_client();
  auto event = server.handle(client.create_handshake_init().serialize(),
                             clock.now());
  ASSERT_TRUE(event.ok());
  auto reply = WireMessage::parse(
      std::get<VpnServer::HandshakeDone>(*event).reply_wire);
  ASSERT_TRUE(reply.ok());
  ASSERT_TRUE(client.process_handshake_reply(*reply).ok());
  // Send some data so the replay window has advanced past zero.
  for (int i = 0; i < 3; ++i) {
    auto sent = seal_frames(client, to_bytes("pkt"));
    ASSERT_TRUE(server.handle(sent[0], clock.now()).ok());
  }
  // The duplicated reply lands again: success with no state change —
  // keys, session id and the replay window all survive.
  ASSERT_TRUE(client.process_handshake_reply(*reply).ok());
  auto sent = seal_frames(client, to_bytes("after-dup"));
  auto opened = server.handle(sent[0], clock.now());
  ASSERT_TRUE(opened.ok()) << opened.error();
  EXPECT_EQ(std::get<VpnServer::PacketIn>(*opened).ip_packet,
            to_bytes("after-dup"));
}

TEST_F(TunnelFixture, StaleReplyCannotCompleteANewHandshakeCycle) {
  auto client = make_client();
  auto event = server.handle(client.create_handshake_init().serialize(),
                             clock.now());
  ASSERT_TRUE(event.ok());
  auto old_reply = WireMessage::parse(
      std::get<VpnServer::HandshakeDone>(*event).reply_wire);
  ASSERT_TRUE(old_reply.ok());
  ASSERT_TRUE(client.process_handshake_reply(*old_reply).ok());
  // The client re-keys (new nonce): a duplicate of the OLD reply must
  // not falsely complete the NEW cycle — its signature binds the old
  // client nonce.
  client.create_handshake_init();
  EXPECT_FALSE(client.established());
  EXPECT_FALSE(client.process_handshake_reply(*old_reply).ok());
  EXPECT_FALSE(client.established());
}

TEST_F(TunnelFixture, RekeyDropsPendingFragmentsOfTheOldSession) {
  // Server-side MTU governs server->client fragmentation.
  VpnServerConfig small_mtu;
  small_mtu.mtu = 100;
  VpnServer srv(rng, authority.public_key(), small_mtu);
  auto client = connect_to(srv);
  std::uint32_t old_session = client.session_id();
  Rng data_rng(23);
  Bytes old_packet = data_rng.bytes(250);
  auto old_frags = seal_frames(srv, old_session, old_packet);
  ASSERT_EQ(old_frags.size(), 3u);
  // Two of three old-session fragments arrive, then the client re-keys.
  ASSERT_TRUE(client.open_data_frame(old_frags[0], {}).ok());
  ASSERT_TRUE(client.open_data_frame(old_frags[1], {}).ok());
  auto init = client.create_handshake_init();
  auto event = srv.handle(init.serialize(), clock.now());
  ASSERT_TRUE(event.ok());
  auto reply = WireMessage::parse(
      std::get<VpnServer::HandshakeDone>(*event).reply_wire);
  ASSERT_TRUE(client.process_handshake_reply(*reply).ok());
  // The straggler fragment of the old session fails the new keys' MAC
  // — and, crucially, the half-built old group is gone, so nothing can
  // ever complete from a mix of old and new fragments.
  EXPECT_FALSE(client.open_data_frame(old_frags[2], {}).ok());
  Bytes new_packet = data_rng.bytes(250);
  auto new_frags = seal_frames(srv, client.session_id(), new_packet);
  ASSERT_EQ(new_frags.size(), 3u);
  std::optional<Bytes> assembled;
  for (const auto& frag : new_frags) {
    auto opened = client.open_data_frame(frag, {});
    ASSERT_TRUE(opened.ok()) << opened.error();
    if (opened->has_value()) assembled = std::move(**opened);
  }
  ASSERT_TRUE(assembled.has_value());
  EXPECT_EQ(*assembled, new_packet);
}

TEST_F(TunnelFixture, CorruptFragmentNeverPoisonsReassembly) {
  VpnClientConfig config;
  config.mtu = 100;
  auto client = connect(config);
  Rng data_rng(29);
  Bytes packet = data_rng.bytes(250);
  auto frags = seal_frames(client, packet);
  ASSERT_EQ(frags.size(), 3u);
  // The middle fragment arrives corrupted, the rest intact and out of
  // order. The corrupt copy is rejected before touching the group.
  Bytes corrupt = frags[1];
  corrupt[corrupt.size() / 2] ^= 0x40;
  ASSERT_TRUE(server.handle(frags[2], clock.now()).ok());
  EXPECT_FALSE(server.handle(corrupt, clock.now()).ok());
  ASSERT_TRUE(server.handle(frags[0], clock.now()).ok());
  // A pristine retransmit of the middle fragment completes the packet.
  auto done = server.handle(frags[1], clock.now());
  ASSERT_TRUE(done.ok()) << done.error();
  EXPECT_EQ(std::get<VpnServer::PacketIn>(*done).ip_packet, packet);
}

TEST_F(TunnelFixture, DuplicatedFragmentAssemblesExactlyOnce) {
  VpnClientConfig config;
  config.mtu = 100;
  auto client = connect(config);
  Rng data_rng(31);
  Bytes packet = data_rng.bytes(250);
  auto frags = seal_frames(client, packet);
  ASSERT_EQ(frags.size(), 3u);
  ASSERT_TRUE(server.handle(frags[0], clock.now()).ok());
  // The network duplicates a fragment: the copy is a replay (each
  // fragment carries its own packet id) and is rejected.
  EXPECT_FALSE(server.handle(frags[0], clock.now()).ok());
  ASSERT_TRUE(server.handle(frags[1], clock.now()).ok());
  auto done = server.handle(frags[2], clock.now());
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(std::get<VpnServer::PacketIn>(*done).ip_packet, packet);
}

TEST_F(TunnelFixture, ServerRestartClosesEverySessionAndInvalidatesTheEpoch) {
  auto alice = connect();
  auto bob = connect();
  std::vector<std::uint32_t> closed;
  server.set_session_close_hook(
      [&](std::uint32_t id) { closed.push_back(id); });
  EXPECT_EQ(server.restart(), 2u);
  EXPECT_EQ(server.session_count(), 0u);
  EXPECT_EQ(closed.size(), 2u);
  // Old-epoch traffic bounces: the restarted server has no sessions.
  auto stale = seal_frames(alice, to_bytes("stale"));
  EXPECT_FALSE(server.handle(stale[0], clock.now()).ok());
  // Re-handshaking works, and the dedupe cache was emptied too: the
  // same server mints fresh sessions for the new epoch.
  auto event = server.handle(bob.create_handshake_init().serialize(),
                             clock.now());
  ASSERT_TRUE(event.ok()) << event.error();
  auto reply = WireMessage::parse(
      std::get<VpnServer::HandshakeDone>(*event).reply_wire);
  ASSERT_TRUE(bob.process_handshake_reply(*reply).ok());
  auto fresh = seal_frames(bob, to_bytes("fresh"));
  auto opened = server.handle(fresh[0], clock.now());
  ASSERT_TRUE(opened.ok()) << opened.error();
  EXPECT_EQ(std::get<VpnServer::PacketIn>(*opened).ip_packet,
            to_bytes("fresh"));
  EXPECT_EQ(server.handshakes_deduped(), 0u);
}

TEST_F(TunnelFixture, LruEvictionAdmitsAStormWithinTheCapacityBound) {
  VpnServerConfig config;
  config.session_capacity_per_shard = 4;
  config.lru_eviction = true;
  config.handshake_pin = 0;  // storm clients never speak again: evictable
  VpnServer srv(rng, authority.public_key(), config);
  sim::Time now = 0;
  for (int i = 0; i < 16; ++i) {
    now += sim::kMillisecond;
    VpnClientSession client(rng, certificate, enclave_key, srv.public_key(),
                            {});
    auto event = srv.handle(client.create_handshake_init().serialize(), now);
    ASSERT_TRUE(event.ok()) << event.error();
    ASSERT_LE(srv.session_count(), 4u);
  }
  EXPECT_EQ(srv.sessions_evicted_lru(), 12u);
  EXPECT_EQ(srv.sessions_rejected_full(), 0u);
}

TEST_F(TunnelFixture, HandshakePinShieldsMidHandshakeSessionsFromTheStorm) {
  VpnServerConfig config;
  config.session_capacity_per_shard = 4;
  config.lru_eviction = true;
  config.handshake_pin = 10 * sim::kSecond;
  VpnServer srv(rng, authority.public_key(), config);
  // Every admitted session is still inside its handshake grace: a
  // storm cannot evict any of them, so the table rejects instead.
  sim::Time now = 0;
  std::vector<VpnClientSession> clients;
  for (int i = 0; i < 8; ++i) {
    now += sim::kMillisecond;
    clients.emplace_back(rng, certificate, enclave_key, srv.public_key(),
                         VpnClientConfig{});
    auto event =
        srv.handle(clients.back().create_handshake_init().serialize(), now);
    if (i < 4) {
      ASSERT_TRUE(event.ok()) << event.error();
      auto reply = WireMessage::parse(
          std::get<VpnServer::HandshakeDone>(*event).reply_wire);
      ASSERT_TRUE(clients.back().process_handshake_reply(*reply).ok());
    } else {
      EXPECT_FALSE(event.ok());  // mid-handshake sessions never evicted
    }
  }
  EXPECT_EQ(srv.session_count(), 4u);
  EXPECT_EQ(srv.sessions_evicted_lru(), 0u);
  EXPECT_GT(srv.sessions_rejected_full(), 0u);
  // An authenticated data frame unpins its session, making it fair
  // game: the next storm handshake evicts exactly that one.
  auto sent = seal_frames(clients[0], to_bytes("hello"));
  ASSERT_TRUE(srv.handle(sent[0], now).ok());
  std::uint32_t unpinned = clients[0].session_id();
  now += sim::kMillisecond;
  VpnClientSession late(rng, certificate, enclave_key, srv.public_key(), {});
  auto event = srv.handle(late.create_handshake_init().serialize(), now);
  ASSERT_TRUE(event.ok()) << event.error();
  EXPECT_EQ(srv.sessions_evicted_lru(), 1u);
  EXPECT_FALSE(srv.has_session(unpinned));
  EXPECT_EQ(srv.session_count(), 4u);
}

}  // namespace
}  // namespace endbox::vpn
