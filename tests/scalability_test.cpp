// Multi-client scalability suite mirroring Fig 10a: because EndBox runs
// middlebox functions on the clients, the server's per-packet cost must
// stay ~flat as the fleet grows, while aggregate processed traffic
// scales linearly with the client count. Built on the parameterisable
// World (N clients, per-client CPU accounts and RNG streams, one
// experiment seed).
#include <gtest/gtest.h>

#include <cstdlib>
#include <unordered_map>

#include "ca/authority.hpp"
#include "endbox_world.hpp"
#include "seal_frames.hpp"
#include "sgx/enclave.hpp"
#include "sgx/platform.hpp"
#include "vpn/client.hpp"
#include "vpn/server.hpp"

namespace endbox {
namespace {

using testing::World;
using testing::WorldOptions;

WorldOptions scale_options(std::size_t clients,
                           ServerMode mode = ServerMode::Plain) {
  WorldOptions opts;
  opts.seed = 0x5ca1ab1e;
  opts.clients = clients;
  opts.use_case = UseCase::Nop;
  opts.server_mode = mode;
  return opts;
}

constexpr std::uint64_t kPacketsPerClient = 25;

TEST(ScalabilityTest, WorldBuildsRequestedFleet) {
  World world(scale_options(8));
  EXPECT_EQ(world.rigs.size(), 8u);
  EXPECT_EQ(world.topology.clients(), 8u);
  // Every client owns its CPU account and forked RNG stream.
  for (auto& rig : world.rigs) EXPECT_EQ(rig->cpu.cores(), 1u);
}

TEST(ScalabilityTest, DeterministicAcrossRuns) {
  for (std::size_t clients : {1u, 8u, 64u}) {
    World a(scale_options(clients));
    World b(scale_options(clients));
    auto ra = a.run_uniform_traffic(kPacketsPerClient);
    auto rb = b.run_uniform_traffic(kPacketsPerClient);
    EXPECT_EQ(ra.offered, rb.offered) << clients << " clients";
    EXPECT_EQ(ra.delivered, rb.delivered) << clients << " clients";
    EXPECT_EQ(ra.per_client_delivered, rb.per_client_delivered);
    EXPECT_EQ(ra.server_busy_core_ns, rb.server_busy_core_ns);
    EXPECT_EQ(a.topology.aggregate_bytes(), b.topology.aggregate_bytes());
  }
}

TEST(ScalabilityTest, AggregatePacketsScaleLinearly) {
  for (std::size_t clients : {1u, 8u, 64u}) {
    World world(scale_options(clients));
    auto report = world.run_uniform_traffic(kPacketsPerClient);
    // Nothing is dropped: every offered packet arrives, so the
    // aggregate is exactly clients x per-client.
    EXPECT_EQ(report.delivered, clients * kPacketsPerClient);
    for (std::size_t i = 0; i < clients; ++i)
      EXPECT_EQ(report.per_client_delivered[i], kPacketsPerClient);
  }
}

TEST(ScalabilityTest, ServerCostPerClientStaysFlat) {
  World one(scale_options(1));
  World many(scale_options(64));
  auto r1 = one.run_uniform_traffic(kPacketsPerClient);
  auto r64 = many.run_uniform_traffic(kPacketsPerClient);
  ASSERT_GT(r1.delivered, 0u);
  ASSERT_GT(r64.delivered, 0u);
  // Per-client server cost: total server work divided by fleet size,
  // with every client offering the same load. Fig 10a's EndBox curve
  // tracks vanilla OpenVPN because the middleboxes run client-side.
  double cost1 = r1.server_cost_per_client_ns();
  double cost64 = r64.server_cost_per_client_ns();
  EXPECT_LE(cost64, 1.5 * cost1)
      << "per-client server cost grew from " << cost1 << " ns to " << cost64
      << " ns";
  // And per-packet cost is flat too (same statement, normalised).
  EXPECT_LE(r64.server_cost_per_packet_ns(),
            1.5 * r1.server_cost_per_packet_ns());
}

TEST(ScalabilityTest, ServerSideClickCostsGrowInContrast) {
  // The OpenVPN+Click baseline pays per-client Click instances on the
  // server: per-packet cost at 32 clients must exceed the 1-client cost
  // by more than EndBox's (which stays ~flat).
  World one(scale_options(1, ServerMode::WithClick));
  World many(scale_options(32, ServerMode::WithClick));
  auto r1 = one.run_uniform_traffic(kPacketsPerClient);
  auto r32 = many.run_uniform_traffic(kPacketsPerClient);
  ASSERT_GT(r1.delivered, 0u);
  ASSERT_GT(r32.delivered, 0u);
  World endbox_many(scale_options(32));
  auto e32 = endbox_many.run_uniform_traffic(kPacketsPerClient);
  double click_growth =
      r32.server_cost_per_packet_ns() / r1.server_cost_per_packet_ns();
  EXPECT_GT(r32.server_cost_per_packet_ns(), e32.server_cost_per_packet_ns());
  EXPECT_GT(click_growth, 1.0);
}

TEST(ScalabilityTest, ServerAccountsPacketsPerSession) {
  World world(scale_options(8));
  auto report = world.run_uniform_traffic(kPacketsPerClient);
  ASSERT_EQ(report.delivered, 8 * kPacketsPerClient);
  // The server's per-session ledger agrees with the aggregate counter
  // and sees exactly one session per client.
  EXPECT_EQ(world.server.sessions_with_traffic(), 8u);
  EXPECT_EQ(world.server.packets_forwarded(), report.delivered);
  EXPECT_EQ(world.server.packets_forwarded_for(0), 0u);  // unknown session
}

TEST(ScalabilityTest, TopologyCountsAggregateTraffic) {
  World world(scale_options(8));
  auto report = world.run_uniform_traffic(kPacketsPerClient);
  ASSERT_EQ(report.delivered, 8 * kPacketsPerClient);
  // Every wire frame crossed one access link and the shared uplink.
  std::uint64_t access_total = 0;
  for (std::size_t i = 0; i < 8; ++i) access_total += world.topology.client_bytes(i);
  EXPECT_EQ(world.topology.aggregate_bytes(), access_total);
  EXPECT_GE(world.topology.aggregate_frames(), report.delivered);
  // Uniform load: each access link carried the same byte count.
  for (std::size_t i = 1; i < 8; ++i)
    EXPECT_EQ(world.topology.client_bytes(i), world.topology.client_bytes(0));
}

TEST(ScalabilityTest, BatchedWorldDeliversIdenticalTrafficForLess) {
  // The batched data path (one ecall + one virtual-call chain per
  // burst) must deliver exactly the same packets as the per-packet
  // path while crossing the enclave boundary once per burst instead of
  // once per packet.
  World per_packet(scale_options(8));
  World batched(scale_options(8));
  auto data_path_ecalls = [](World& world) {
    std::uint64_t ecalls = 0;
    for (auto& rig : world.rigs) ecalls += rig->client.enclave().transitions().ecalls;
    return ecalls;
  };
  for (World* world : {&per_packet, &batched})
    for (auto& rig : world->rigs) rig->client.enclave().reset_transition_stats();

  auto baseline = per_packet.run_uniform_traffic(kPacketsPerClient);
  auto burst = batched.run_uniform_traffic_batched(kPacketsPerClient, 32);

  EXPECT_EQ(burst.offered, baseline.offered);
  EXPECT_EQ(burst.delivered, baseline.delivered);
  EXPECT_EQ(burst.per_client_delivered, baseline.per_client_delivered);
  EXPECT_EQ(data_path_ecalls(per_packet), baseline.offered);
  EXPECT_EQ(data_path_ecalls(batched), 8u);  // one 25-packet burst per client
  // The uplink carried the same bytes and frames.
  EXPECT_EQ(batched.topology.aggregate_bytes(),
            per_packet.topology.aggregate_bytes());
  EXPECT_EQ(batched.topology.aggregate_frames(),
            per_packet.topology.aggregate_frames());
}

TEST(ScalabilityTest, ShardedClientsDeliverIdenticalTraffic) {
  // 1/2/4-lane enclave element graphs must deliver exactly the same
  // packets (RSS sharding never drops or reorders within a flow).
  WorldOptions opts = scale_options(2);
  opts.use_case = UseCase::Idps;

  std::vector<std::uint64_t> delivered;
  for (std::size_t shards : {1u, 2u, 4u}) {
    WorldOptions sharded = opts;
    sharded.client_options.shards = shards;
    World world(sharded);
    auto report = world.run_uniform_traffic_batched(kPacketsPerClient * 4, 32,
                                                    1400, /*flows=*/8);
    EXPECT_EQ(report.delivered, report.offered) << shards << " shards";
    delivered.push_back(report.delivered);
    EXPECT_EQ(world.rigs[0]->client.enclave().shard_count(), shards);
  }
  EXPECT_EQ(delivered[0], delivered[1]);
  EXPECT_EQ(delivered[0], delivered[2]);
}

TEST(ScalabilityTest, ServerShardsDeliverIdenticalTraffic) {
  // Sweeping the server's session-shard count must change nothing about
  // what is delivered.
  std::vector<std::uint64_t> delivered;
  for (std::size_t shards : {1u, 2u, 4u}) {
    WorldOptions opts = scale_options(8);
    opts.vpn_config.session_shards = shards;
    World world(opts);
    auto report = world.run_uniform_traffic_batched(kPacketsPerClient * 2, 32);
    EXPECT_EQ(world.server.vpn().session_shard_count(), shards);
    delivered.push_back(report.delivered);
    EXPECT_EQ(report.delivered, report.offered) << shards << " server shards";
  }
  EXPECT_EQ(delivered[0], delivered[1]);
  EXPECT_EQ(delivered[0], delivered[2]);
}

TEST(ScalabilityTest, GarbageBurstsDoNotGrowServerLedgers) {
  // A burst of frames that all fail to open for a known session must
  // not create per-session ledger entries — only the first successful
  // open does.
  World world(scale_options(1));
  const auto* session = world.rigs[0]->client.enclave().session();
  ASSERT_NE(session, nullptr);
  Bytes bad(64, 0xab);
  bad[0] = static_cast<std::uint8_t>(vpn::MsgType::Data);
  put_u32(bad.data() + 1, session->session_id());
  for (int i = 0; i < 8; ++i)
    EXPECT_FALSE(world.server.handle_wire(bad, world.clock.now()).ok());
  EXPECT_EQ(world.server.sessions_with_traffic(), 0u);
  EXPECT_EQ(world.server.session_process_entries(), 0u);

  // A successfully opened frame whose fragment group is still pending
  // is real work: it earns the ledger entry even though no packet has
  // completed yet.
  click::PacketBatch one;
  one.push_back(world.benign_packet(20000));  // 3 fragments at MTU 9000
  EgressBatch egress;
  ASSERT_TRUE(world.rigs[0]->client.enclave()
                  .ecall_process_egress_batch(std::move(one), egress)
                  .ok());
  ASSERT_EQ(egress.frame_count, 3u);
  for (std::size_t f = 0; f < 2; ++f) {
    auto partial = world.server.handle_wire(egress.frames[f], world.clock.now());
    ASSERT_TRUE(partial.ok());
    EXPECT_TRUE(std::holds_alternative<vpn::VpnServer::FragmentPending>(partial->event));
  }
  EXPECT_EQ(world.server.sessions_with_traffic(), 0u);
  EXPECT_EQ(world.server.session_process_entries(), 1u);
  auto rest = world.server.handle_wire(egress.frames[2], world.clock.now());
  ASSERT_TRUE(rest.ok());
  EXPECT_TRUE(std::holds_alternative<vpn::VpnServer::PacketIn>(rest->event));
  EXPECT_EQ(world.server.sessions_with_traffic(), 1u);

  auto report = world.run_uniform_traffic(4);
  EXPECT_EQ(report.delivered, 4u);
  EXPECT_EQ(world.server.sessions_with_traffic(), 1u);
  EXPECT_EQ(world.server.session_process_entries(), 1u);
}

TEST(ScalabilityTest, FixedReshardScheduleStaysLosslessAndOrdered) {
  // A fixed reshard schedule drives both halves of the reshard
  // machinery — VpnServer::reshard_sessions and every client's
  // ecall_reshard — growing 1 -> 4 before a heavy phase and shrinking
  // 4 -> 2 after it, while every packet is delivered and every flow's
  // payload sequence arrives strictly in order across the transitions
  // (the run-to-completion contract: a flow lives in one lane's FIFO,
  // so ordering is per flow; each client session carries 8 flows).
  WorldOptions opts = scale_options(8);
  World world(opts);

  std::unordered_map<std::uint32_t, std::uint32_t> next_seq;
  std::unordered_map<std::size_t, std::uint32_t> sent_seq;
  std::uint64_t offered = 0, delivered_total = 0;
  std::size_t max_shards_seen = 1;
  std::uint64_t reorders = 0;

  click::PacketBatch batch;
  EgressBatch egress;
  vpn::VpnServer::OpenBatch opened;
  auto reshard_all = [&](std::size_t shards) {
    ASSERT_TRUE(world.server.vpn().reshard_sessions(shards).ok());
    for (auto& rig : world.rigs)
      ASSERT_TRUE(rig->client.enclave().ecall_reshard(shards).ok());
  };
  auto run_interval = [&](std::size_t packets_per_client) {
    for (std::size_t i = 0; i < world.rigs.size(); ++i) {
      auto& rig = *world.rigs[i];
      for (std::size_t k = 0; k < packets_per_client; ++k) {
        std::uint32_t seq = sent_seq[i]++;
        Bytes payload(64, 0);
        put_u32(payload.data(), seq);
        net::Packet packet = net::Packet::udp(
            net::Ipv4(10, 8, 0, static_cast<std::uint8_t>(i + 2)),
            net::Ipv4(10, 0, 0, 1),
            static_cast<std::uint16_t>(40000 + seq % 8), 5001, payload);
        batch.push_back(std::move(packet));
      }
      offered += packets_per_client;
      auto sent = rig.client.enclave().ecall_process_egress_batch(std::move(batch),
                                                                  egress);
      batch.clear();
      ASSERT_TRUE(sent.ok()) << sent.error();
      world.server.vpn().open_batch(
          std::span<const Bytes>(egress.frames.data(), egress.frame_count),
          world.clock.now(), opened);
      delivered_total += opened.complete;
      for (std::size_t p = 0; p < opened.packet_count; ++p) {
        auto parsed = net::Packet::parse(opened.packets[p].ip_packet);
        ASSERT_TRUE(parsed.ok());
        std::uint32_t seq = get_u32(parsed->payload.data());
        std::uint32_t sid = opened.packets[p].session_id;
        // Flow f of a session carries seqs f, f+8, f+16, ...: an exact
        // per-flow sequence (zero loss AND zero within-flow
        // reordering). Cross-flow interleaving within a session is the
        // lane pipeline's documented freedom.
        std::uint32_t flow_key = sid * 8 + seq % 8;
        auto it = next_seq.find(flow_key);
        std::uint32_t expected = it == next_seq.end() ? seq % 8 : it->second;
        if (seq != expected) ++reorders;
        next_seq[flow_key] = seq + 8;
      }
    }
    max_shards_seen = std::max(max_shards_seen, world.server.vpn().session_shard_count());
  };

  for (int i = 0; i < 4; ++i) run_interval(6);    // ~48 frames: 1 shard
  EXPECT_EQ(world.server.vpn().session_shard_count(), 1u);
  reshard_all(4);
  for (int i = 0; i < 12; ++i) run_interval(48);  // ~384 frames at 4 shards
  EXPECT_EQ(world.server.vpn().session_shard_count(), 4u);
  EXPECT_EQ(world.rigs[0]->client.enclave().shard_count(), 4u);
  reshard_all(2);
  for (int i = 0; i < 12; ++i) run_interval(6);   // light again at 2 shards
  EXPECT_EQ(world.server.vpn().session_shard_count(), 2u);
  EXPECT_EQ(world.rigs[0]->client.enclave().shard_count(), 2u);

  EXPECT_EQ(max_shards_seen, 4u);
  // Zero loss, zero reordering within any session, across both
  // transitions.
  EXPECT_EQ(delivered_total, offered);
  EXPECT_EQ(reorders, 0u);
}

TEST(ScalabilityTest, MillionSessionChurnStaysBounded) {
  // Lifecycle acceptance: ~1M sessions churn through handshake ->
  // traffic -> idle-expiry -> re-key while every per-shard table stays
  // within its configured capacity, nothing live is lost, and the timer
  // wheel reclaims everything. Set ENDBOX_CHURN_WAVES to shrink the
  // sweep for slow (sanitizer) runs.
  std::size_t waves = 256;
  if (const char* env = std::getenv("ENDBOX_CHURN_WAVES"))
    waves = static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
  ASSERT_GE(waves, 2u);
  constexpr std::size_t kSessionsPerWave = 4096;
  constexpr sim::Time kWaveSpacing = 60 * sim::kSecond;

  // Minimal PKI: one attested client identity re-handshaking for every
  // churned session (the server treats each handshake as a new session,
  // so one client object drives the whole fleet cheaply).
  Rng rng(0x10a9c5e5);
  sim::Clock clock;
  sgx::AttestationService ias(rng);
  ca::CertificateAuthority authority(rng, ias);
  sgx::SgxPlatform platform("churn-client", rng, clock);
  sgx::Enclave enclave(platform, "endbox-v1", sgx::SgxMode::Hardware);
  crypto::RsaKeyPair enclave_key = crypto::rsa_generate(rng);
  ias.register_platform("churn-client", platform.attestation_key().pub);
  authority.allow_measurement(enclave.measurement());
  sgx::QuotingEnclave qe(platform);
  auto quote = qe.quote(enclave.create_report(
      sgx::bind_report_data(enclave_key.pub.serialize())));
  auto response = authority.provision(quote->serialize(), enclave_key.pub);
  ASSERT_TRUE(response.ok()) << response.error();

  vpn::VpnServerConfig config;
  config.session_shards = 4;
  config.session_capacity_per_shard = 2048;
  config.session_idle_timeout = 30 * sim::kSecond;
  Rng server_rng(0xc5e5);
  vpn::VpnServer server(server_rng, authority.public_key(), config);
  Rng client_rng(0xc11e47);
  vpn::VpnClientSession client(client_rng, response->certificate, enclave_key,
                               server.public_key(), {});

  const Bytes payload = to_bytes("churn-traffic");
  std::uint64_t created = 0;
  std::uint64_t rekeyed = 0;
  std::uint64_t delivered = 0;
  for (std::size_t wave = 0; wave < waves; ++wave) {
    const sim::Time now = static_cast<sim::Time>(wave) * kWaveSpacing;
    for (std::size_t i = 0; i < kSessionsPerWave; ++i) {
      // Handshake: the sweep at the top of handle() retires the
      // previous wave (idle > 30s) before this admission, so occupancy
      // never exceeds one wave's worth of sessions.
      auto init = client.create_handshake_init();
      auto hs = server.handle(init.serialize(), now);
      ASSERT_TRUE(hs.ok()) << "wave " << wave << " #" << i << ": "
                           << hs.error();
      auto reply = vpn::WireMessage::parse(
          std::get<vpn::VpnServer::HandshakeDone>(*hs).reply_wire);
      ASSERT_TRUE(reply.ok());
      ASSERT_TRUE(client.process_handshake_reply(*reply).ok());
      ++created;

      // Traffic: a live session's packet must always land (zero loss).
      auto frames = vpn::seal_frames(client, payload);
      ASSERT_EQ(frames.size(), 1u);
      auto event = server.handle(frames[0], now);
      ASSERT_TRUE(event.ok()) << event.error();
      auto* in = std::get_if<vpn::VpnServer::PacketIn>(&*event);
      ASSERT_NE(in, nullptr);
      ASSERT_EQ(in->ip_packet, payload);
      ++delivered;

      // Re-key a slice of the fleet: explicit teardown followed by a
      // fresh handshake, exercising erase + immediate re-admission.
      if (i % 512 == 0) {
        ASSERT_TRUE(server.close_session(client.session_id()));
        auto again = client.create_handshake_init();
        auto hs2 = server.handle(again.serialize(), now);
        ASSERT_TRUE(hs2.ok()) << hs2.error();
        auto reply2 = vpn::WireMessage::parse(
            std::get<vpn::VpnServer::HandshakeDone>(*hs2).reply_wire);
        ASSERT_TRUE(reply2.ok());
        ASSERT_TRUE(client.process_handshake_reply(*reply2).ok());
        ++created;
        ++rekeyed;
      }
    }
    // The bound is enforced continuously, not just at the end.
    for (std::size_t s = 0; s < server.session_shard_count(); ++s)
      ASSERT_LE(server.shard_peak_sessions(s),
                server.session_capacity_per_shard())
          << "wave " << wave << " shard " << s;
    ASSERT_EQ(server.sessions_rejected_full(), 0u) << "wave " << wave;
  }

  EXPECT_EQ(created, waves * kSessionsPerWave + rekeyed);
  EXPECT_EQ(delivered, waves * kSessionsPerWave);

  // Drain: one idle timeout after the last wave, the wheel has
  // reclaimed every remaining session.
  const sim::Time drain =
      static_cast<sim::Time>(waves) * kWaveSpacing + 31 * sim::kSecond;
  server.expire_idle_sessions(drain);
  EXPECT_EQ(server.session_count(), 0u);
  EXPECT_EQ(server.sessions_expired() + rekeyed, created);
  EXPECT_EQ(server.sessions_rejected_full(), 0u);
}

TEST(ScalabilityTest, DifferentSeedsDifferentKeyMaterial) {
  World a(scale_options(2));
  WorldOptions other = scale_options(2);
  other.seed = 0xfeedface;
  World b(other);
  // Distinct seeds must produce distinct session key material — the
  // forked per-client streams derive from the world seed.
  EXPECT_NE(a.rigs[0]->rng.next_u64(), b.rigs[0]->rng.next_u64());
  // And distinct clients within one world draw from distinct streams.
  EXPECT_NE(a.rigs[0]->rng.next_u64(), a.rigs[1]->rng.next_u64());
}

}  // namespace
}  // namespace endbox
