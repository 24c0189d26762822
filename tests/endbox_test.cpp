// Integration tests for the EndBox core: attestation-to-traffic flow,
// middlebox use cases end to end, config updates, optimisations.
#include <gtest/gtest.h>

#include "endbox/testbed.hpp"
#include "endbox_world.hpp"

namespace endbox {
namespace {

using testing::World;

TEST(EndBox, FullFlowAttestConnectSend) {
  World world;
  auto bundle = world.publish(UseCase::Nop);
  auto& client = world.add_client(bundle);
  EXPECT_TRUE(client.connected());
  EXPECT_EQ(client.enclave().config_version(), 2u);

  auto in = world.send_through(client, world.benign_packet());
  ASSERT_TRUE(in.ok()) << in.error();
  auto packet = net::Packet::parse(in->ip_packet);
  ASSERT_TRUE(packet.ok());
  EXPECT_EQ(packet->dst, net::Ipv4(10, 0, 0, 1));
  EXPECT_EQ(packet->payload.size(), 1400u);
}

TEST(EndBox, UnattestedClientCannotConnect) {
  World world;
  world.publish(UseCase::Nop);
  sgx::SgxPlatform platform("rogue", world.rng, world.clock);
  sim::CpuAccount cpu(1, world.model.client_hz);
  EndBoxClient client("rogue", platform, world.rng, cpu, world.model,
                      world.authority.public_key(), {});
  // Without attest(): no certificate, handshake cannot even start.
  auto init = client.start_connect(world.server.public_key());
  EXPECT_FALSE(init.ok());
  EXPECT_NE(init.error().find("attestation"), std::string::npos);
}

TEST(EndBox, ConnectRequiresInstalledConfig) {
  World world;
  auto bundle = world.publish(UseCase::Nop);
  sgx::SgxPlatform platform("c9", world.rng, world.clock);
  sim::CpuAccount cpu(1, world.model.client_hz);
  EndBoxClient client("c9", platform, world.rng, cpu, world.model,
                      world.authority.public_key(), {});
  world.ias.register_platform("c9", platform.attestation_key().pub);
  ASSERT_TRUE(client.attest(world.authority).ok());
  auto init = client.start_connect(world.server.public_key());
  EXPECT_FALSE(init.ok());  // no middlebox config installed yet
}

TEST(EndBox, SealedCredentialsRestoreIntoFreshEnclave) {
  World world;
  auto bundle = world.publish(UseCase::Nop);
  auto& client = world.add_client(bundle);
  Bytes sealed = client.sealed_credentials();
  ASSERT_FALSE(sealed.empty());

  // A fresh enclave instance on the same platform restores without
  // re-attesting (section III-C: attest once).
  auto& rig = *world.rigs.back();
  EndBoxEnclave fresh(rig.platform, sgx::SgxMode::Hardware,
                      world.authority.public_key(), world.rng);
  ASSERT_TRUE(fresh.ecall_restore_credentials(sealed).ok());
  EXPECT_TRUE(fresh.provisioned());
}

TEST(EndBox, FirewallDropsMatchingEgress) {
  World world;
  std::string config =
      "from_device :: FromDevice; to_device :: ToDevice;"
      "fw :: IPFilter(drop dst port 23, allow all);"
      "from_device -> fw -> to_device; fw[1] -> [1]to_device;";
  auto bundle = world.server.publish_config(2, config, true, 0, 0);
  ASSERT_TRUE(bundle.ok());
  auto& client = world.add_client(*bundle);

  auto blocked = world.send_through(client, world.benign_packet(100, 23));
  EXPECT_FALSE(blocked.ok());  // telnet blocked at the client
  auto allowed = world.send_through(client, world.benign_packet(100, 80));
  EXPECT_TRUE(allowed.ok()) << allowed.error();
  EXPECT_EQ(client.enclave().packets_rejected_by_click(), 1u);
}

TEST(EndBox, IdpsDropsMalwareBeforeItLeavesTheClient) {
  World world;
  std::string config =
      "from_device :: FromDevice; to_device :: ToDevice;"
      "ids :: IDSMatcher(RULESET community, DROP);"
      "from_device -> ids -> to_device; ids[1] -> [1]to_device;";
  auto bundle = world.server.publish_config(2, config, true, 0, 0);
  ASSERT_TRUE(bundle.ok());
  auto& client = world.add_client(*bundle);

  // Plant a community-rule pattern in the payload.
  net::Packet evil = world.benign_packet(0);
  evil.payload = to_bytes("prefix ");
  append(evil.payload, world.community_rules[2].contents[0].bytes);
  if (world.community_rules[2].proto) evil.proto = *world.community_rules[2].proto;
  if (!world.community_rules[2].dst_port.any)
    evil.dst_port = world.community_rules[2].dst_port.port;
  EXPECT_FALSE(world.send_through(client, std::move(evil)).ok());
  EXPECT_TRUE(world.send_through(client, world.benign_packet()).ok());
}

TEST(EndBox, AllUseCasesCarryBenignTraffic) {
  for (UseCase use_case : {UseCase::Nop, UseCase::Lb, UseCase::Fw, UseCase::Idps,
                           UseCase::Ddos}) {
    World world;
    auto bundle = world.publish(use_case);
    auto& client = world.add_client(bundle);
    for (int i = 0; i < 5; ++i) {
      auto in = world.send_through(client, world.benign_packet());
      ASSERT_TRUE(in.ok()) << use_case_name(use_case) << ": " << in.error();
    }
  }
}

TEST(EndBox, LargePacketsFragmentThroughTunnel) {
  World world;
  auto bundle = world.publish(UseCase::Nop);
  auto& client = world.add_client(bundle);
  auto sent = client.send_packet(world.benign_packet(60000), world.clock.now());
  ASSERT_TRUE(sent.ok()) << sent.error();
  EXPECT_GT(sent->wire.size(), 1u);
  int complete = 0;
  for (const auto& wire : sent->wire) {
    auto handled = world.server.handle_wire(wire, world.clock.now());
    ASSERT_TRUE(handled.ok()) << handled.error();
    if (std::holds_alternative<vpn::VpnServer::PacketIn>(handled->event)) ++complete;
  }
  EXPECT_EQ(complete, 1);
}

TEST(EndBox, ServerToClientDelivery) {
  World world;
  auto bundle = world.publish(UseCase::Nop);
  auto& client = world.add_client(bundle);
  std::uint32_t session = 1;

  net::Packet reply = net::Packet::udp(net::Ipv4(10, 0, 0, 1), net::Ipv4(10, 8, 0, 2),
                                       5001, 40000, to_bytes("response"));
  auto sealed = world.server.seal_packet(session, reply.serialize(), world.clock.now());
  ASSERT_EQ(sealed.wire.size(), 1u);
  auto received = client.receive_wire(sealed.wire[0], world.clock.now());
  ASSERT_TRUE(received.ok()) << received.error();
  EXPECT_TRUE(received->complete);
  EXPECT_TRUE(received->accepted);
  EXPECT_EQ(to_string(received->packet.payload), "response");
}

TEST(EndBox, ConfigUpdateViaPingFlow) {
  World world;
  auto v2 = world.publish(UseCase::Nop);
  auto& client = world.add_client(v2);
  EXPECT_EQ(client.enclave().config_version(), 2u);

  // Admin publishes v3 (FW) with a 30 s grace period.
  auto v3 = world.server.publish_config(3, use_case_config(UseCase::Fw), true, 30,
                                        world.clock.now());
  ASSERT_TRUE(v3.ok());
  // Server ping announces v3; client fetches + installs in background.
  Bytes ping = world.server.create_ping(1);
  auto outcome = client.handle_server_ping(ping, &world.server.file_server(),
                                           world.clock.now());
  ASSERT_TRUE(outcome.ok()) << outcome.error();
  EXPECT_TRUE(outcome->update_started);
  EXPECT_EQ(outcome->info.config_version, 3u);
  EXPECT_EQ(client.enclave().config_version(), 3u);
  // The new FW graph is live (hot-swapped).
  EXPECT_NE(client.enclave().router()->find("fw"), nullptr);

  // Client proves the update with its next ping.
  Bytes client_ping;
  ASSERT_TRUE(client.create_ping_wire(client_ping, world.clock.now()).ok());
  ASSERT_TRUE(world.server.handle_wire(client_ping, world.clock.now()).ok());
  EXPECT_EQ(world.server.vpn().session_config_version(1), 3u);
}

TEST(EndBox, StaleClientBlockedAfterGraceThenRecovers) {
  World world;
  auto v2 = world.publish(UseCase::Nop);
  auto& client = world.add_client(v2);
  ASSERT_TRUE(world.send_through(client, world.benign_packet()).ok());

  auto v3 = world.server.publish_config(3, use_case_config(UseCase::Nop), true, 10,
                                        world.clock.now());
  ASSERT_TRUE(v3.ok());

  // Within grace: still accepted.
  world.clock.advance_to(5 * sim::kSecond);
  ASSERT_TRUE(world.send_through(client, world.benign_packet()).ok());

  // Past grace without updating: blocked.
  world.clock.advance_to(20 * sim::kSecond);
  auto blocked = world.send_through(client, world.benign_packet());
  ASSERT_FALSE(blocked.ok());
  EXPECT_NE(blocked.error().find("stale"), std::string::npos);

  // Update via ping: flows again.
  Bytes ping = world.server.create_ping(1);
  ASSERT_TRUE(client.handle_server_ping(ping, &world.server.file_server(),
                                        world.clock.now()).ok());
  Bytes client_ping;
  ASSERT_TRUE(client.create_ping_wire(client_ping, world.clock.now()).ok());
  ASSERT_TRUE(world.server.handle_wire(client_ping, world.clock.now()).ok());
  EXPECT_TRUE(world.send_through(client, world.benign_packet()).ok());
}

TEST(EndBox, ConfigRollbackRejectedInsideEnclave) {
  World world;
  auto v2 = world.publish(UseCase::Nop);
  auto v3 = world.server.publish_config(3, use_case_config(UseCase::Fw), true, 0, 0);
  ASSERT_TRUE(v3.ok());
  auto& client = world.add_client(v2);
  ASSERT_TRUE(client.install_config(*v3, 0).ok());
  // Replaying the old v2 bundle must fail (monotonic versions).
  auto rollback = client.install_config(v2, 0);
  ASSERT_FALSE(rollback.ok());
  EXPECT_NE(rollback.error().find("not newer"), std::string::npos);
  EXPECT_EQ(client.enclave().config_version(), 3u);
}

TEST(EndBox, ClientToClientFlaggingBypassesSecondClick) {
  World world;
  auto bundle = world.publish(UseCase::Idps);
  auto& alice = world.add_client(bundle);
  auto& bob = world.add_client(bundle);

  // Alice -> server: packet gets the 0xeb flag after her Click run.
  auto sent = alice.send_packet(world.benign_packet(), world.clock.now());
  ASSERT_TRUE(sent.ok());
  auto handled = world.server.handle_wire(sent->wire[0], world.clock.now());
  ASSERT_TRUE(handled.ok());
  auto& in = std::get<vpn::VpnServer::PacketIn>(handled->event);
  auto packet = net::Packet::parse(in.ip_packet);
  ASSERT_TRUE(packet.ok());
  EXPECT_TRUE(packet->processed_flag());

  // Server forwards to Bob (intra-network: flag preserved).
  auto sealed = world.server.seal_packet(2, in.ip_packet, world.clock.now());
  auto received = bob.receive_wire(sealed.wire[0], world.clock.now());
  ASSERT_TRUE(received.ok()) << received.error();
  EXPECT_TRUE(received->accepted);
  EXPECT_EQ(bob.enclave().click_bypassed_ingress(), 1u);
  EXPECT_FALSE(received->packet.processed_flag());  // cleared on delivery
}

TEST(EndBox, ExternalQosFlagStrippedAtGateway) {
  net::Packet forged = net::Packet::udp(net::Ipv4(8, 8, 8, 8), net::Ipv4(10, 8, 0, 2),
                                        53, 4000, to_bytes("external"));
  forged.set_processed_flag();
  EndBoxServer::strip_external_qos(forged);
  EXPECT_FALSE(forged.processed_flag());
}

TEST(EndBox, WithoutC2cFlagIngressRunsClick) {
  World world;
  auto bundle = world.publish(UseCase::Idps);
  EndBoxClientOptions options;
  options.c2c_flagging = false;
  auto& alice = world.add_client(bundle, options);
  auto& bob = world.add_client(bundle, options);

  auto sent = alice.send_packet(world.benign_packet(), world.clock.now());
  ASSERT_TRUE(sent.ok());
  auto handled = world.server.handle_wire(sent->wire[0], world.clock.now());
  auto& in = std::get<vpn::VpnServer::PacketIn>(handled->event);
  auto parsed = net::Packet::parse(in.ip_packet);
  EXPECT_FALSE(parsed->processed_flag());  // flag never set

  auto sealed = world.server.seal_packet(2, in.ip_packet, world.clock.now());
  auto received = bob.receive_wire(sealed.wire[0], world.clock.now());
  ASSERT_TRUE(received.ok());
  EXPECT_TRUE(received->accepted);
  EXPECT_EQ(bob.enclave().click_bypassed_ingress(), 0u);  // Click ran
}

TEST(EndBox, SingleEcallPerPacketWhenBatched) {
  World world;
  auto bundle = world.publish(UseCase::Nop);
  auto& client = world.add_client(bundle);
  client.enclave().reset_transition_stats();
  for (int i = 0; i < 10; ++i)
    ASSERT_TRUE(client.send_packet(world.benign_packet(), world.clock.now()).ok());
  // The batched data path: exactly one ecall per sent packet (IV-B).
  EXPECT_EQ(client.enclave().transitions().ecalls, 10u);
}

TEST(EndBox, TlsKeyForwardingEnablesInspection) {
  World world;
  std::string config = use_case_config(UseCase::TlsIdps);
  auto bundle = world.server.publish_config(2, config, true, 0, 0);
  ASSERT_TRUE(bundle.ok());
  auto& client = world.add_client(*bundle);

  // Application handshake with key export into the enclave.
  tls::TlsClient app(world.rng);
  tls::TlsServer web(world.rng);
  app.set_key_export_hook([&](const tls::SessionKeys& keys) {
    ASSERT_TRUE(client.forward_tls_key(keys).ok());
  });
  auto sh = web.accept(app.start_handshake(), to_bytes("pm"));
  ASSERT_TRUE(sh.ok());
  ASSERT_TRUE(app.finish_handshake(*sh, to_bytes("pm")).ok());

  // Encrypted malware: caught despite TLS.
  Bytes evil_plain = to_bytes("encapsulated ");
  append(evil_plain, world.community_rules[2].contents[0].bytes);
  auto record = app.send(evil_plain);
  net::Packet packet = net::Packet::tcp(net::Ipv4(10, 8, 0, 2),
                                        net::Ipv4(93, 184, 216, 34), 40000, 443, 0, 0,
                                        0x18, record.serialize());
  packet.flow_hint = static_cast<std::uint32_t>(app.keys().session_id);
  // Rule 2 of the generated set is single-content, any-protocol,
  // any-port: it applies to this TCP packet unconditionally.
  ASSERT_EQ(world.community_rules[2].contents.size(), 1u);
  ASSERT_FALSE(world.community_rules[2].proto.has_value());
  ASSERT_TRUE(world.community_rules[2].dst_port.any);
  auto blocked = world.send_through(client, std::move(packet));
  EXPECT_FALSE(blocked.ok());

  // Encrypted benign traffic flows.
  auto ok_record = app.send(to_bytes("just a normal page"));
  net::Packet fine = net::Packet::tcp(net::Ipv4(10, 8, 0, 2),
                                      net::Ipv4(93, 184, 216, 34), 40000, 443, 1, 0,
                                      0x18, ok_record.serialize());
  fine.flow_hint = static_cast<std::uint32_t>(app.keys().session_id);
  EXPECT_TRUE(world.send_through(client, std::move(fine)).ok());
}

TEST(EndBox, IspModeIntegrityOnly) {
  vpn::VpnServerConfig vpn_config;
  vpn_config.allow_integrity_only = true;
  World world(0xeb0c5eed, ServerMode::Plain, vpn_config);
  auto bundle = world.publish(UseCase::Idps);
  EndBoxClientOptions options;
  options.encrypt_data = false;  // ISP scenario optimisation
  auto& client = world.add_client(bundle, options);
  auto in = world.send_through(client, world.benign_packet());
  ASSERT_TRUE(in.ok()) << in.error();
  EXPECT_FALSE(in->was_encrypted);
}

TEST(EndBox, CostModelChargesCpu) {
  World world;
  auto bundle = world.publish(UseCase::Idps);
  auto& client = world.add_client(bundle);
  auto& cpu = world.rigs.back()->cpu;
  double busy_before = cpu.busy_core_ns();
  ASSERT_TRUE(client.send_packet(world.benign_packet(), world.clock.now()).ok());
  EXPECT_GT(cpu.busy_core_ns(), busy_before);
}

TEST(EndBox, SgxModeCostsMoreThanSimMode) {
  World sim_world, hw_world;
  auto sim_bundle = sim_world.publish(UseCase::Nop);
  auto hw_bundle = hw_world.publish(UseCase::Nop);
  EndBoxClientOptions sim_options;
  sim_options.sgx_mode = sgx::SgxMode::Simulation;
  auto& sim_client = sim_world.add_client(sim_bundle, sim_options);
  auto& hw_client = hw_world.add_client(hw_bundle);

  auto t_sim = sim_client.send_packet(sim_world.benign_packet(), 0);
  auto t_hw = hw_client.send_packet(hw_world.benign_packet(), 0);
  ASSERT_TRUE(t_sim.ok());
  ASSERT_TRUE(t_hw.ok());
  EXPECT_GT(t_hw->done, t_sim->done);  // transitions + EPC penalty
}

TEST(EndBox, ServerWithClickChargesMore) {
  World plain(1, ServerMode::Plain);
  World clicked(1, ServerMode::WithClick);
  ASSERT_TRUE(clicked.server.set_click_config(use_case_config(UseCase::Nop)).ok());

  auto pb = plain.publish(UseCase::Nop);
  auto cb = clicked.publish(UseCase::Nop);
  auto& pc = plain.add_client(pb);
  auto& cc = clicked.add_client(cb);

  auto ps = pc.send_packet(plain.benign_packet(), 0);
  auto cs = cc.send_packet(clicked.benign_packet(), 0);
  ASSERT_TRUE(ps.ok());
  ASSERT_TRUE(cs.ok());
  auto ph = plain.server.handle_wire(ps->wire[0], 0);
  auto ch = clicked.server.handle_wire(cs->wire[0], 0);
  ASSERT_TRUE(ph.ok());
  ASSERT_TRUE(ch.ok());
  EXPECT_GT(clicked.server_cpu.busy_core_ns(), plain.server_cpu.busy_core_ns());
}

TEST(EndBox, UseCaseConfigsAllParse) {
  elements::ElementContext context;
  tls::SessionKeyStore store;
  context.key_store = &store;
  Rng rng(7);
  context.rulesets["community"] = idps::generate_community_ruleset(377, rng);
  auto registry = elements::make_endbox_registry(context);
  for (UseCase use_case : {UseCase::Nop, UseCase::Lb, UseCase::Fw, UseCase::Idps,
                           UseCase::Ddos, UseCase::TlsIdps}) {
    for (bool trusted : {true, false}) {
      auto router = click::Router::from_config(use_case_config(use_case, trusted),
                                               registry);
      ASSERT_TRUE(router.ok()) << use_case_name(use_case) << ": " << router.error();
      EXPECT_NE((*router)->find("from_device"), nullptr);
      EXPECT_NE((*router)->find("to_device"), nullptr);
    }
  }
}

TEST(EndBox, PipelineCostOrdering) {
  // Heavier use cases must cost more cycles (drives Figs 9/10 shapes).
  elements::ElementContext context;
  tls::SessionKeyStore store;
  context.key_store = &store;
  Rng rng(7);
  context.rulesets["community"] = idps::generate_community_ruleset(377, rng);
  auto registry = elements::make_endbox_registry(context);
  sim::PerfModel model;
  auto cost = [&](UseCase use_case) {
    auto router = click::Router::from_config(use_case_config(use_case), registry);
    return pipeline_cycles(**router, 1500, model);
  };
  double nop = cost(UseCase::Nop);
  double lb = cost(UseCase::Lb);
  double fw = cost(UseCase::Fw);
  double idps = cost(UseCase::Idps);
  double ddos = cost(UseCase::Ddos);
  EXPECT_LT(nop, lb);
  EXPECT_LT(nop, fw);
  EXPECT_LT(fw, idps);
  EXPECT_LT(idps, ddos);
}

TEST(EndBox, TestbedIperfPinsThePerPacketCostPath) {
  // Exact numbers of the path every Fig 8-10 run prices: short
  // closed-loop 1500 B iperf runs with one IDPS client, on the client
  // path (EndBox SGX, with and without batched ecalls; charge_data_path
  // and pipeline_cycles) and on the server-side Click path
  // (OpenVPN+Click; handle_wire).
  struct Case {
    endbox::Setup setup;
    bool batched_ecalls;
    std::uint64_t writes_delivered;
    double server_utilisation;
  };
  const Case cases[] = {
      {endbox::Setup::EndBoxSgx, true, 1833, 0.067797212499999995},
      {endbox::Setup::OpenVpnClick, true, 2618, 0.16246165000000001},
      {endbox::Setup::EndBoxSgx, false, 492, 0.0182774125},
  };
  const sim::Time duration = sim::from_seconds(0.05);
  for (const Case& c : cases) {
    Testbed bed(c.setup, UseCase::Idps);
    bed.client_options.batched_ecalls = c.batched_ecalls;
    bed.add_client();
    auto report = bed.run_iperf(1500, 0, duration);
    EXPECT_EQ(report.writes_delivered, c.writes_delivered)
        << setup_name(c.setup) << " batched_ecalls=" << c.batched_ecalls;
    EXPECT_DOUBLE_EQ(bed.server_cpu_utilisation(duration), c.server_utilisation)
        << setup_name(c.setup) << " batched_ecalls=" << c.batched_ecalls;
  }
}

TEST(EndBox, DisconnectStormLeavesNoPerSessionState) {
  // Regression: the server keeps three maps keyed by session id
  // (per-session Click routers, the per-process CPU ledger, per-session
  // packet counts). Every one of them must empty out when sessions
  // close, across repeated connect/disconnect storms — before the VPN
  // close hook they leaked for the life of the process.
  testing::WorldOptions opts;
  opts.clients = 6;
  opts.use_case = UseCase::Fw;
  opts.server_mode = ServerMode::WithClick;
  World world(opts);
  ASSERT_TRUE(world.server.set_click_config(use_case_config(UseCase::Fw)).ok());
  std::size_t n = world.rigs.size();
  for (std::uint32_t wave = 0; wave < 3; ++wave) {
    if (wave > 0)
      for (auto& rig : world.rigs) world.connect(rig->client);  // re-key
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_TRUE(world.send_from(i, world.benign_packet_from(i)).ok());
    EXPECT_EQ(world.server.vpn().session_count(), n);
    EXPECT_EQ(world.server.sessions_with_traffic(), n);
    EXPECT_EQ(world.server.session_router_count(), n);
    EXPECT_GE(world.server.session_process_entries(), n);

    // The storm: every session disconnects at once. Session ids are
    // assigned sequentially, so sweep every id issued so far.
    std::size_t closed = 0;
    for (std::uint32_t id = 1; id <= (wave + 1) * n; ++id)
      if (world.server.vpn().close_session(id)) ++closed;
    EXPECT_EQ(closed, n);
    EXPECT_EQ(world.server.vpn().session_count(), 0u);
    EXPECT_EQ(world.server.sessions_with_traffic(), 0u);
    EXPECT_EQ(world.server.session_router_count(), 0u);
    EXPECT_EQ(world.server.session_process_entries(), 0u);
  }
}

TEST(EndBox, IdleExpiryTearsDownPerSessionServerState) {
  vpn::VpnServerConfig vpn_config;
  vpn_config.session_idle_timeout = 30 * sim::kSecond;
  testing::WorldOptions opts;
  opts.clients = 4;
  opts.use_case = UseCase::Fw;
  opts.server_mode = ServerMode::WithClick;
  opts.vpn_config = vpn_config;
  World world(opts);
  ASSERT_TRUE(world.server.set_click_config(use_case_config(UseCase::Fw)).ok());
  for (std::size_t i = 0; i < 4; ++i)
    ASSERT_TRUE(world.send_from(i, world.benign_packet_from(i)).ok());
  EXPECT_EQ(world.server.session_router_count(), 4u);

  // Client 0 keeps talking; the rest go silent.
  world.clock.advance_to(20 * sim::kSecond);
  ASSERT_TRUE(world.send_from(0, world.benign_packet_from(0)).ok());
  world.clock.advance_to(31 * sim::kSecond);
  ASSERT_TRUE(world.send_from(0, world.benign_packet_from(0)).ok());

  // The sweep at 31 s expired sessions idle since t=0 — and their
  // per-session server state went with them via the close hook.
  EXPECT_EQ(world.server.vpn().session_count(), 1u);
  EXPECT_EQ(world.server.vpn().sessions_expired(), 3u);
  EXPECT_EQ(world.server.sessions_with_traffic(), 1u);
  EXPECT_EQ(world.server.session_router_count(), 1u);
  EXPECT_EQ(world.server.session_process_entries(), 1u);
}

}  // namespace
}  // namespace endbox
