// End-to-end chaos suite (the robustness tentpole): a fleet of VPN
// clients drives the resilient control plane through a star topology
// whose every link drops, duplicates, reorders and corrupts frames,
// with a scripted mid-run blackout + server restart. The suite asserts
// the properties the reliability layer exists for:
//
//   - every legitimate client reconverges within its capped retries,
//   - after recovery, with faults cleared, not a single packet is lost
//     in either direction,
//   - an admission storm stays inside the per-shard capacity bound
//     (LRU eviction recycles stale sessions; nothing is rejected),
//     also across reshards in mid-storm,
//   - the whole run is deterministic for a fixed seed at 1/2/4 shards.
//
// ENDBOX_CHAOS_ITERS shrinks the storm size for sanitizer CI jobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <queue>
#include <sstream>
#include <string>
#include <vector>

#include "ca/authority.hpp"
#include "common/rng.hpp"
#include "netsim/topology.hpp"
#include "sgx/enclave.hpp"
#include "seal_frames.hpp"
#include "sgx/platform.hpp"
#include "vpn/client.hpp"
#include "vpn/control.hpp"
#include "vpn/server.hpp"

namespace endbox::vpn {
namespace {

std::size_t chaos_iters(std::size_t fallback) {
  if (const char* env = std::getenv("ENDBOX_CHAOS_ITERS")) {
    long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return fallback;
}

// One frame in flight through the simulated network.
struct Flight {
  sim::Time at = 0;
  std::uint64_t seq = 0;  ///< FIFO tiebreak for equal arrivals
  bool to_server = false;
  std::size_t client = 0;  ///< sender (uplink) or receiver (downlink)
  Bytes wire;
};

struct FlightLater {
  bool operator()(const Flight& a, const Flight& b) const {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  }
};

// The chaos harness: CA + attested certificate (shared by the fleet,
// as in the tunnel tests), a VpnServer, N clients each owning a
// VpnClientSession + ClientControlPlane, and a star topology whose
// faulty links decide the fate of every frame. A priority queue of
// in-flight frames plays arrivals back in time order, so reordered
// copies genuinely overtake and the run is fully deterministic.
struct ChaosWorld {
  struct Client {
    explicit Client(VpnClientSession s) : session(std::move(s)) {}
    VpnClientSession session;
    std::unique_ptr<ClientControlPlane> cp;
    std::uint64_t data_sent = 0;       ///< IP packets offered uplink
    std::uint64_t data_received = 0;   ///< IP packets opened downlink
    std::uint64_t server_received = 0; ///< this client's packets seen by server
  };

  Rng rng;
  sim::Clock clock;
  sgx::AttestationService ias{rng};
  ca::CertificateAuthority authority{rng, ias};
  sgx::SgxPlatform platform{"chaos-host", rng, clock};
  sgx::Enclave enclave{platform, "endbox-v1", sgx::SgxMode::Hardware};
  crypto::RsaKeyPair enclave_key = crypto::rsa_generate(rng);
  bool registrations_done = [this] {
    ias.register_platform("chaos-host", platform.attestation_key().pub);
    authority.allow_measurement(enclave.measurement());
    return true;
  }();
  VpnServer server;
  ca::Certificate certificate;
  sim::PerfModel model;
  netsim::StarTopology topo{model};

  std::vector<std::unique_ptr<Client>> fleet;
  std::priority_queue<Flight, std::vector<Flight>, FlightLater> flights;
  std::uint64_t next_seq = 0;
  std::map<std::uint32_t, std::size_t> session_owner;
  sim::Time now = 0;
  bool echo_packets = true;  ///< server bounces every PacketIn back

  ChaosWorld(std::uint64_t seed, VpnServerConfig server_config)
      : rng(seed), server(rng, authority.public_key(), server_config) {
    sgx::QuotingEnclave qe(platform);
    auto quote = qe.quote(enclave.create_report(
        sgx::bind_report_data(enclave_key.pub.serialize())));
    auto response = authority.provision(quote->serialize(), enclave_key.pub);
    certificate = response->certificate;
  }

  std::size_t add_client(ControlPlaneConfig cp_config) {
    std::size_t i = fleet.size();
    topo.add_client("chaos-" + std::to_string(i));
    fleet.push_back(std::make_unique<Client>(VpnClientSession(
        rng, certificate, enclave_key, server.public_key(), {})));
    Client* c = fleet.back().get();
    cp_config.seed ^= 0x9e3779b97f4a7c15ull * (i + 1);  // decorrelate jitter
    ClientControlPlane::Hooks hooks;
    hooks.make_init = [c]() -> Result<Bytes> {
      return c->session.create_handshake_init().serialize();
    };
    hooks.on_reply = [c](ByteView wire) -> Status {
      auto parsed = WireMessage::parse(wire);
      if (!parsed.ok()) return err(parsed.error());
      return c->session.process_handshake_reply(*parsed);
    };
    hooks.make_ping = [c](Bytes& frame) -> Status {
      if (!c->session.established()) return err("not established");
      c->session.create_ping_wire(frame);
      return {};
    };
    hooks.on_ping = [c](ByteView wire, sim::Time) -> Status {
      auto parsed = WireMessage::parse(wire);
      if (!parsed.ok()) return err(parsed.error());
      auto info = c->session.process_ping(*parsed);
      if (!info.ok()) return err(info.error());
      return {};
    };
    hooks.send = [this, i](ByteView wire, sim::Time t) {
      send_to_server(i, wire, t);
    };
    c->cp = std::make_unique<ClientControlPlane>(cp_config, std::move(hooks));
    return i;
  }

  void send_to_server(std::size_t i, ByteView wire, sim::Time t) {
    auto outcome = topo.deliver_to_server_faulty(i, t, wire.size());
    for (const auto& d : outcome) {
      Bytes copy(wire.begin(), wire.end());
      d.apply(copy);
      flights.push({d.at, next_seq++, true, i, std::move(copy)});
    }
  }

  void send_to_client(std::size_t i, ByteView wire, sim::Time t) {
    auto outcome = topo.deliver_to_client_faulty(i, t, wire.size());
    for (const auto& d : outcome) {
      Bytes copy(wire.begin(), wire.end());
      d.apply(copy);
      flights.push({d.at, next_seq++, false, i, std::move(copy)});
    }
  }

  void server_receive(std::size_t from, const Bytes& wire, sim::Time t) {
    auto event = server.handle(wire, t);
    if (!event.ok()) return;  // a lossy network sends plenty of garbage
    if (auto* done = std::get_if<VpnServer::HandshakeDone>(&*event)) {
      session_owner[done->session_id] = from;
      send_to_client(from, done->reply_wire, t);
    } else if (auto* packet = std::get_if<VpnServer::PacketIn>(&*event)) {
      auto owner = session_owner.find(packet->session_id);
      if (owner == session_owner.end()) return;
      fleet[owner->second]->server_received++;
      if (echo_packets) {
        for (const auto& frame :
             seal_frames(server, packet->session_id, packet->ip_packet))
          send_to_client(owner->second, frame, t);
      }
    } else if (auto* ping = std::get_if<VpnServer::PingIn>(&*event)) {
      auto owner = session_owner.find(ping->session_id);
      if (owner == session_owner.end()) return;
      send_to_client(owner->second, server.create_ping(ping->session_id), t);
    }
  }

  void client_receive(std::size_t i, const Bytes& wire, sim::Time t) {
    Client& c = *fleet[i];
    if (wire.empty()) return;
    MsgType type = static_cast<MsgType>(wire[0]);
    if (type == MsgType::Data || type == MsgType::DataIntegrityOnly) {
      auto opened = c.session.open_data_frame(wire, {});
      if (!opened.ok()) {
        c.cp->note_auth_failure(t);
        return;
      }
      c.cp->note_peer_activity(t);
      if (opened->has_value()) c.data_received++;
      return;
    }
    // Control frames (HandshakeReply / Ping) — and corrupted garbage,
    // which deliver() rejects without touching any schedule.
    (void)c.cp->deliver(wire, t);
  }

  /// Advances virtual time to `until`, playing back arrivals in time
  /// order and driving every control plane's timers each tick.
  void pump_until(sim::Time until, sim::Time tick = 10 * sim::kMillisecond) {
    while (now < until) {
      now = std::min(now + tick, until);
      while (!flights.empty() && flights.top().at <= now) {
        Flight f = flights.top();
        flights.pop();
        if (f.to_server)
          server_receive(f.client, f.wire, f.at);
        else
          client_receive(f.client, f.wire, f.at);
      }
      for (auto& c : fleet) c->cp->advance(now);
    }
  }

  /// Sends one small data packet from every fully-established client.
  void broadcast_data() {
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      Client& c = *fleet[i];
      if (!c.session.established() || !c.cp->established()) continue;
      Bytes payload = {0xda, static_cast<std::uint8_t>(i),
                       static_cast<std::uint8_t>(c.data_sent),
                       static_cast<std::uint8_t>(c.data_sent >> 8)};
      for (const auto& frame : seal_frames(c.session, payload))
        send_to_server(i, frame, now);
      c.data_sent++;
    }
  }

  bool all_established() const {
    for (const auto& c : fleet)
      if (!c->cp->established() || !c->session.established() ||
          !server.has_session(c->session.session_id()))
        return false;
    return true;
  }
};

ControlPlaneConfig chaos_cp_config() {
  ControlPlaneConfig config;
  config.retry_initial = 100 * sim::kMillisecond;
  config.retry_backoff = 2.0;
  config.retry_max = sim::kSecond;
  config.retry_jitter = 0.1;
  config.max_attempts = 12;
  config.keepalive_interval = 200 * sim::kMillisecond;
  config.dead_after_intervals = 3;
  config.rehandshake_auth_failures = 4;
  return config;
}

struct FleetResult {
  std::string digest;
  std::uint64_t rehandshakes_min = ~0ull;
  std::uint64_t retransmits_total = 0;
  bool converged = false;
  std::uint64_t clean_uplink_lost = 0;
  std::uint64_t clean_downlink_lost = 0;
};

constexpr std::uint64_t kChaosSeed = 0xc4a05;
constexpr std::size_t kFleetSize = 6;
constexpr std::uint64_t kCleanPackets = 20;

/// The full chaos scenario at a given shard count: connect under a 5%
/// drop / 2% duplicate / 10% reorder / 1% corrupt mix, blackout +
/// server restart at t=2s (links down until 2.5s), reconverge, then a
/// fault-free verification phase that must lose nothing.
FleetResult run_fleet(std::size_t shards, std::uint64_t seed) {
  VpnServerConfig server_config;
  server_config.session_shards = shards;
  server_config.session_capacity_per_shard = 64;
  ChaosWorld world(seed, server_config);

  netsim::FaultPlan plan;
  plan.seed = seed;
  plan.drop = 0.05;
  plan.duplicate = 0.02;
  plan.reorder = 0.10;
  plan.corrupt = 0.01;
  plan.reorder_delay = sim::from_millis(4.0);
  plan.down.push_back({2 * sim::kSecond, 2 * sim::kSecond + 500 * sim::kMillisecond});
  world.topo.set_fault_plan_all(plan);

  for (std::size_t i = 0; i < kFleetSize; ++i)
    world.add_client(chaos_cp_config());
  for (auto& c : world.fleet) (void)c->cp->start(0);

  // Phase A: chaotic steady state — everyone connects and chats.
  while (world.now < 2 * sim::kSecond) {
    world.pump_until(world.now + 50 * sim::kMillisecond);
    world.broadcast_data();
  }

  // Blackout: the server crashes and restarts (sessions gone, dedupe
  // cache gone, signing key kept) while the links flap down for 500ms.
  world.server.restart();

  // Phase B: reconvergence. Keepalive silence flags the dead peer,
  // re-keys ride the retry/backoff schedule through the tail of the
  // blackout, and the fleet re-establishes.
  while (world.now < 7 * sim::kSecond && !world.all_established()) {
    world.pump_until(world.now + 50 * sim::kMillisecond);
    world.broadcast_data();
  }

  FleetResult result;
  result.converged = world.all_established();
  if (!result.converged) return result;

  // Phase C: faults off, in-flight chaos stragglers drained, ledgers
  // zeroed — now nothing may be lost.
  world.topo.set_fault_plan_all(netsim::FaultPlan{});
  world.pump_until(world.now + sim::kSecond);
  std::vector<std::uint64_t> base_up, base_down;
  for (auto& c : world.fleet) {
    base_up.push_back(c->server_received);
    base_down.push_back(c->data_received);
  }
  for (std::uint64_t k = 0; k < kCleanPackets; ++k) {
    world.pump_until(world.now + 20 * sim::kMillisecond);
    world.broadcast_data();
  }
  world.pump_until(world.now + sim::kSecond);

  for (std::size_t i = 0; i < world.fleet.size(); ++i) {
    const auto& c = *world.fleet[i];
    result.clean_uplink_lost += kCleanPackets - (c.server_received - base_up[i]);
    result.clean_downlink_lost += kCleanPackets - (c.data_received - base_down[i]);
    result.rehandshakes_min = std::min(result.rehandshakes_min, c.cp->rehandshakes());
    result.retransmits_total += c.cp->handshake_retransmits();
  }

  std::ostringstream digest;
  digest << "uplink=" << world.topo.aggregate_frames() << ':'
         << world.topo.aggregate_bytes()
         << " updrop=" << world.topo.uplink().fault_stats().frames_dropped
         << " updup=" << world.topo.uplink().fault_stats().frames_duplicated
         << " upcorrupt=" << world.topo.uplink().fault_stats().frames_corrupted
         << " upreorder=" << world.topo.uplink().fault_stats().frames_reordered
         << " server=" << world.server.session_count() << ':'
         << world.server.auth_failures() << ':'
         << world.server.replays_rejected() << ':'
         << world.server.handshakes_deduped();
  for (const auto& c : world.fleet)
    digest << " c" << c->session.session_id() << '='
           << c->data_sent << ':' << c->data_received << ':'
           << c->server_received << ':' << c->cp->rehandshakes() << ':'
           << c->cp->handshake_retransmits() << ':' << c->cp->pings_sent();
  result.digest = digest.str();
  return result;
}

TEST(ChaosNet, FleetReconvergesThroughLossReorderCorruptionAndBlackout) {
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    FleetResult result = run_fleet(shards, kChaosSeed);
    // Every legitimate client reconverged within its capped retries.
    EXPECT_TRUE(result.converged);
    // Every client detected the blackout and re-keyed at least once.
    EXPECT_GE(result.rehandshakes_min, 1u);
    // The lossy links made the retransmission layer do real work.
    EXPECT_GT(result.retransmits_total, 0u);
    // Post-recovery, with clean links, not one packet went missing in
    // either direction.
    EXPECT_EQ(result.clean_uplink_lost, 0u);
    EXPECT_EQ(result.clean_downlink_lost, 0u);
  }
}

TEST(ChaosNet, SameSeedSameShardCountReproducesTheRunExactly) {
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    FleetResult a = run_fleet(shards, kChaosSeed);
    FleetResult b = run_fleet(shards, kChaosSeed);
    ASSERT_TRUE(a.converged);
    EXPECT_EQ(a.digest, b.digest);
  }
}

TEST(ChaosNet, DifferentSeedsDiverge) {
  FleetResult a = run_fleet(1, kChaosSeed);
  FleetResult b = run_fleet(1, kChaosSeed + 1);
  ASSERT_TRUE(a.converged);
  ASSERT_TRUE(b.converged);
  EXPECT_NE(a.digest, b.digest);
}

// An admission storm (every attacker holds a valid certificate — the
// worst case) must neither exhaust memory nor lock the tables: LRU
// eviction recycles the idle-longest session for every arrival beyond
// capacity, and the per-shard occupancy ceiling never moves, also
// while the server grows 1 -> 2 -> 4 shards in mid-storm. Only growth
// is scheduled: migration bypasses the admission bound, so a shrink
// would overfill the surviving shards by design.
TEST(ChaosNet, AdmissionStormStaysBoundedAcrossReshards) {
  const std::size_t storm = std::max<std::size_t>(chaos_iters(4096), 512);
  constexpr std::size_t kCapacity = 64;

  VpnServerConfig server_config;
  server_config.session_shards = 1;
  server_config.session_capacity_per_shard = kCapacity;
  server_config.lru_eviction = true;
  server_config.handshake_pin = 0;  // storm sessions never speak: evictable
  ChaosWorld world(kChaosSeed, server_config);

  sim::Time t = 0;
  for (std::size_t i = 0; i < storm; ++i) {
    t += sim::kMillisecond;
    VpnClientSession attacker(world.rng, world.certificate, world.enclave_key,
                              world.server.public_key(), {});
    auto event = world.server.handle(attacker.create_handshake_init().serialize(), t);
    ASSERT_TRUE(event.ok()) << event.error();
    // Per-shard occupancy never exceeds the configured bound.
    for (std::size_t s = 0; s < world.server.session_shard_count(); ++s)
      ASSERT_LE(world.server.shard_peak_sessions(s), kCapacity);
    if (i + 1 == storm / 3) {
      ASSERT_TRUE(world.server.reshard_sessions(2).ok());
    }
    if (i + 1 == 2 * storm / 3) {
      ASSERT_TRUE(world.server.reshard_sessions(4).ok());
    }
  }

  // Bounded memory: live sessions fit the (grown) shard set; every
  // admission beyond capacity recycled a victim instead of rejecting.
  EXPECT_LE(world.server.session_count(),
            kCapacity * world.server.session_shard_count());
  EXPECT_EQ(world.server.sessions_rejected_full(), 0u);
  EXPECT_EQ(world.server.session_count() + world.server.sessions_evicted_lru(),
            storm);
  EXPECT_EQ(world.server.session_shard_count(), 4u);
}

// A storm with the handshake pin active must not evict mid-handshake
// sessions — established clients keep their slots (pins released by
// authenticated traffic), and the overflow is rejected, not leaked.
TEST(ChaosNet, StormNeverEvictsAnEstablishedChattyClient) {
  constexpr std::size_t kCapacity = 8;
  VpnServerConfig server_config;
  server_config.session_capacity_per_shard = kCapacity;
  server_config.lru_eviction = true;
  // Short pin: storm sessions become evictable before the next storm
  // arrival, so the LRU always has a staler victim than the residents.
  server_config.handshake_pin = 5 * sim::kMillisecond;
  ChaosWorld world(kChaosSeed, server_config);

  // Four legitimate clients connect and immediately speak (unpinning
  // themselves but staying recently-active).
  sim::Time t = 0;
  std::vector<VpnClientSession> residents;
  for (int i = 0; i < 4; ++i) {
    residents.emplace_back(world.rng, world.certificate, world.enclave_key,
                           world.server.public_key(), VpnClientConfig{});
    auto event = world.server.handle(
        residents.back().create_handshake_init().serialize(), t += sim::kMillisecond);
    ASSERT_TRUE(event.ok()) << event.error();
    auto reply = WireMessage::parse(
        std::get<VpnServer::HandshakeDone>(*event).reply_wire);
    ASSERT_TRUE(reply.ok());
    ASSERT_TRUE(residents.back().process_handshake_reply(*reply).ok());
  }
  const Bytes chatter = {0xaa, 0xbb};
  auto chat = [&](VpnClientSession& c) {
    for (const auto& frame : seal_frames(c, chatter))
      ASSERT_TRUE(world.server.handle(frame, t).ok());
  };
  for (auto& c : residents) chat(c);

  // The storm arrives: stale storm sessions are fair game for the LRU,
  // but the residents keep chatting and are never the idle-longest.
  for (int i = 0; i < 64; ++i) {
    t += 10 * sim::kMillisecond;
    VpnClientSession attacker(world.rng, world.certificate, world.enclave_key,
                              world.server.public_key(), {});
    (void)world.server.handle(attacker.create_handshake_init().serialize(), t);
    for (auto& c : residents) chat(c);
  }
  for (auto& c : residents)
    EXPECT_TRUE(world.server.has_session(c.session_id()));
  for (std::size_t s = 0; s < world.server.session_shard_count(); ++s)
    EXPECT_LE(world.server.shard_peak_sessions(s), kCapacity);
}

}  // namespace
}  // namespace endbox::vpn
