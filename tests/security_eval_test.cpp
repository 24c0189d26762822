// Section V-A security evaluation as an executable test suite: every
// attack the paper discusses is mounted against a live deployment and
// must be rejected by the corresponding defence.
#include <gtest/gtest.h>

#include "endbox_world.hpp"

namespace endbox {
namespace {

using testing::World;

// ---- Bypassing middlebox functions ------------------------------------

TEST(SecurityEval, RawTrafficCannotEnterTheNetwork) {
  // A malicious client sends plain IP packets, skipping EndBox: the
  // server is the only entry point and only accepts tunnel messages.
  World world;
  world.publish(UseCase::Fw);
  Bytes raw = net::Packet::udp(net::Ipv4(10, 8, 0, 66), net::Ipv4(10, 0, 0, 1), 1, 2,
                               to_bytes("bypass attempt")).serialize();
  EXPECT_FALSE(world.server.handle_wire(raw, 0).ok());
}

TEST(SecurityEval, TrafficEncryptedWithWrongKeysRejected) {
  World world;
  auto bundle = world.publish(UseCase::Nop);
  auto& client = world.add_client(bundle);
  (void)client;
  // Forge a data message for session 1 with self-chosen keys.
  vpn::SessionKeys wrong{Bytes(16, 7), Bytes(32, 7)};
  Rng rng(1);
  vpn::WireMessage forged;
  forged.type = vpn::MsgType::Data;
  forged.session_id = 1;
  WireBuffer body;
  vpn::seal_data_body(wrong, {1, 1, 0, 1}, to_bytes("evil"), rng, body);
  forged.body = body.take();
  EXPECT_FALSE(world.server.handle_wire(forged.serialize(), 0).ok());
  EXPECT_EQ(world.server.vpn().auth_failures(), 1u);
}

TEST(SecurityEval, UnattestedEnclaveGetsNoCertificate) {
  World world;
  // Tampered enclave code -> unknown measurement -> CA refuses.
  sgx::SgxPlatform platform("mallory", world.rng, world.clock);
  world.ias.register_platform("mallory", platform.attestation_key().pub);
  struct Tampered : sgx::Enclave {
    using Enclave::Enclave;
  } tampered(platform, "endbox-enclave-v1.0-TAMPERED", sgx::SgxMode::Hardware);
  auto key = crypto::rsa_generate(world.rng);
  sgx::QuotingEnclave qe(platform);
  auto quote = qe.quote(tampered.create_report(
      sgx::bind_report_data(key.pub.serialize())));
  ASSERT_TRUE(quote.ok());
  EXPECT_FALSE(world.authority.provision(quote->serialize(), key.pub).ok());
}

// ---- Old or invalid middlebox configurations ----------------------------

TEST(SecurityEval, ConfigRollbackRejected) {
  World world;
  auto v2 = world.publish(UseCase::Nop);
  auto v3 = world.server.publish_config(3, use_case_config(UseCase::Fw), true, 0, 0);
  ASSERT_TRUE(v3.ok());
  auto& client = world.add_client(v2);
  ASSERT_TRUE(client.install_config(*v3, 0).ok());
  EXPECT_FALSE(client.install_config(v2, 0).ok());
}

TEST(SecurityEval, UnauthorisedConfigRejected) {
  World world;
  auto& client = world.add_client(world.publish(UseCase::Nop));
  // Attacker-signed configuration (not the network CA).
  Rng rng(9);
  auto attacker_ca = crypto::rsa_generate(rng);
  auto forged = config::make_bundle(9, "x :: Counter;", attacker_ca,
                                    /*config_key=*/1234, false);
  EXPECT_FALSE(client.install_config(forged, 0).ok());
}

TEST(SecurityEval, StaleConfigBlockedAfterGrace) {
  World world;
  auto& client = world.add_client(world.publish(UseCase::Nop));
  ASSERT_TRUE(world.server.publish_config(3, use_case_config(UseCase::Nop), true, 5,
                                          world.clock.now()).ok());
  world.clock.advance_to(6 * sim::kSecond);
  auto blocked = world.send_through(client, world.benign_packet());
  EXPECT_FALSE(blocked.ok());
  EXPECT_GT(world.server.vpn().stale_config_drops(), 0u);
}

TEST(SecurityEval, VersionClaimsInPingsCannotRollBack) {
  World world;
  auto& client = world.add_client(world.publish(UseCase::Nop));
  client.enclave().session();  // connected
  // Directly exercise the server-side monotonicity (tested in depth in
  // vpn_test): a lower version in a later ping is ignored.
  auto session_version_before = world.server.vpn().session_config_version(1);
  Bytes ping;
  ASSERT_TRUE(client.create_ping_wire(ping, 0).ok());
  ASSERT_TRUE(world.server.handle_wire(ping, 0).ok());
  EXPECT_GE(world.server.vpn().session_config_version(1), session_version_before);
}

// ---- Replay -----------------------------------------------------------

TEST(SecurityEval, DataReplayRejected) {
  World world;
  auto& client = world.add_client(world.publish(UseCase::Nop));
  auto sent = client.send_packet(world.benign_packet(), 0);
  ASSERT_TRUE(sent.ok());
  ASSERT_TRUE(world.server.handle_wire(sent->wire[0], 0).ok());
  EXPECT_FALSE(world.server.handle_wire(sent->wire[0], 0).ok());
  EXPECT_EQ(world.server.vpn().replays_rejected(), 1u);
}

TEST(SecurityEval, ServerPingReplayDetectableViaSeq) {
  World world;
  auto& client = world.add_client(world.publish(UseCase::Nop));
  Bytes ping1 = world.server.create_ping(1);
  Bytes ping2 = world.server.create_ping(1);
  auto a = client.handle_server_ping(ping1, nullptr, 0);
  auto b = client.handle_server_ping(ping2, nullptr, 0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LT(a->info.seq, b->info.seq);  // monotonic sequence numbers
}

// ---- Denial of service ---------------------------------------------------

TEST(SecurityEval, EnclaveDosOnlyHurtsTheAttacker) {
  World world;
  auto bundle = world.publish(UseCase::Nop);
  auto& victim = world.add_client(bundle);
  auto& bystander = world.add_client(bundle);

  victim.enclave().destroy();
  EXPECT_THROW(victim.send_packet(world.benign_packet(), 0), std::runtime_error);
  EXPECT_GT(victim.enclave().transitions().rejected_entries, 0u);

  // The rest of the network is unaffected.
  EXPECT_TRUE(world.send_through(bystander, world.benign_packet()).ok());

  // Restarting the enclave restores the victim's connectivity.
  victim.enclave().start();
  EXPECT_TRUE(world.send_through(victim, world.benign_packet()).ok());
}

// ---- Downgrade -----------------------------------------------------------

TEST(SecurityEval, ServerRejectsLowVersions) {
  World world;
  auto& client = world.add_client(world.publish(UseCase::Nop));
  (void)client;
  // Replay the attack at the protocol level (details in vpn_test).
  Rng rng(4);
  auto key = crypto::rsa_generate(rng);
  ca::Certificate cert;
  cert.subject_key = key.pub;
  vpn::VpnClientSession weak(rng, cert, key, world.server.public_key(), {});
  auto init = weak.create_handshake_init(0x0301);  // TLS 1.0
  auto result = world.server.handle_wire(init.serialize(), 0);
  EXPECT_FALSE(result.ok());
}

// ---- Interface attacks -----------------------------------------------------

TEST(SecurityEval, OversizedEcallInputRejected) {
  World world;
  auto& client = world.add_client(world.publish(UseCase::Nop));
  EXPECT_FALSE(client.send_packet(world.benign_packet(600 * 1024), 0).ok());
}

TEST(SecurityEval, MalformedIngressWireRejected) {
  World world;
  auto& client = world.add_client(world.publish(UseCase::Nop));
  EXPECT_FALSE(client.receive_wire(Bytes{1, 2, 3}, 0).ok());
  Bytes garbage(100, 0xff);
  EXPECT_FALSE(client.receive_wire(garbage, 0).ok());
}

TEST(SecurityEval, MalformedTlsKeyRejected) {
  World world;
  auto& client = world.add_client(world.publish(UseCase::Nop));
  tls::SessionKeys bad;
  bad.enc_key = Bytes(3, 1);  // wrong length
  bad.mac_key = Bytes(32, 1);
  EXPECT_FALSE(client.forward_tls_key(bad).ok());
}

// ---- QoS flag forgery --------------------------------------------------------

TEST(SecurityEval, ExternalQosFlagDoesNotBypassClick) {
  // An external attacker sets the 0xeb flag hoping receivers skip
  // inspection; the gateway strips it before forwarding (section IV-A).
  net::Packet forged = net::Packet::udp(net::Ipv4(203, 0, 113, 5),
                                        net::Ipv4(10, 8, 0, 2), 53, 4000,
                                        to_bytes("external evil"));
  forged.set_processed_flag();
  EndBoxServer::strip_external_qos(forged);
  EXPECT_FALSE(forged.processed_flag());
}

TEST(SecurityEval, InTunnelQosFlagIsIntegrityProtected) {
  // Flipping the QoS byte of a sealed tunnel message breaks its MAC.
  World world;
  auto& client = world.add_client(world.publish(UseCase::Nop));
  auto sent = client.send_packet(world.benign_packet(), 0);
  ASSERT_TRUE(sent.ok());
  Bytes tampered = sent->wire[0];
  tampered[tampered.size() / 2] ^= 0xeb;
  EXPECT_FALSE(world.server.handle_wire(tampered, 0).ok());
}

// ---- Traffic privacy -----------------------------------------------------------

TEST(SecurityEval, PayloadNotVisibleOnTheWire) {
  World world;
  auto& client = world.add_client(world.publish(UseCase::Nop));
  net::Packet packet = world.benign_packet(0);
  packet.payload = to_bytes("TOP-SECRET-PAYLOAD-MARKER");
  auto sent = client.send_packet(std::move(packet), 0);
  ASSERT_TRUE(sent.ok());
  Bytes marker = to_bytes("TOP-SECRET-PAYLOAD-MARKER");
  for (const auto& wire : sent->wire) {
    auto it = std::search(wire.begin(), wire.end(), marker.begin(), marker.end());
    EXPECT_EQ(it, wire.end());
  }
}

}  // namespace
}  // namespace endbox
