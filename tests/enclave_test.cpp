// Focused tests for EndBoxEnclave's ecall surface: provisioning checks,
// sealed-credential restore, config install edge cases, data-path
// guards, EPC accounting, and the enclave's one compiled rule set per
// rule name (shared by lanes, hot-swap and reshard; compiled lazily).
#include <gtest/gtest.h>

#include "elements/ids_matcher.hpp"
#include "endbox_world.hpp"

namespace endbox {
namespace {

using testing::World;

struct EnclaveFixture : ::testing::Test {
  World world;
  config::ConfigBundle bundle = world.publish(UseCase::Nop);

  EndBoxEnclave& provisioned() {
    auto& client = world.add_client(bundle);
    return client.enclave();
  }
};

TEST_F(EnclaveFixture, ProvisioningRejectsForeignCertificate) {
  sgx::SgxPlatform platform("c1", world.rng, world.clock);
  EndBoxEnclave enclave(platform, sgx::SgxMode::Hardware,
                        world.authority.public_key(), world.rng);
  // Certificate signed by a different CA.
  Rng rng(3);
  sgx::AttestationService other_ias(rng);
  ca::CertificateAuthority other_ca(rng, other_ias);
  auto cert = other_ca.issue_legacy_certificate(enclave.ecall_public_key());
  ca::ProvisioningResponse response;
  response.certificate = *cert;
  response.encrypted_config_key = Bytes(8, 0);
  EXPECT_FALSE(enclave.ecall_store_provisioning(response).ok());
  EXPECT_FALSE(enclave.provisioned());
}

TEST_F(EnclaveFixture, ProvisioningRejectsCertificateForOtherKey) {
  sgx::SgxPlatform platform("c1", world.rng, world.clock);
  EndBoxEnclave enclave(platform, sgx::SgxMode::Hardware,
                        world.authority.public_key(), world.rng);
  auto other_key = crypto::rsa_generate(world.rng);
  auto cert = world.authority.issue_legacy_certificate(other_key.pub);
  ca::ProvisioningResponse response;
  response.certificate = *cert;
  response.encrypted_config_key = Bytes(8, 0);
  auto status = enclave.ecall_store_provisioning(response);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().find("different key"), std::string::npos);
}

TEST_F(EnclaveFixture, SealedCredentialsRejectGarbage) {
  auto& enclave = provisioned();
  EXPECT_FALSE(enclave.ecall_restore_credentials(Bytes{}).ok());
  EXPECT_FALSE(enclave.ecall_restore_credentials(Bytes(64, 0xaa)).ok());
  Bytes sealed = enclave.ecall_sealed_credentials();
  Bytes tampered = sealed;
  tampered[tampered.size() / 2] ^= 1;
  EXPECT_FALSE(enclave.ecall_restore_credentials(tampered).ok());
  // The genuine blob restores.
  EXPECT_TRUE(enclave.ecall_restore_credentials(sealed).ok());
}

TEST_F(EnclaveFixture, SealedCredentialsBoundToPlatform) {
  auto& enclave = provisioned();
  Bytes sealed = enclave.ecall_sealed_credentials();
  // Same code, different machine: unseal must fail (stolen blob).
  sgx::SgxPlatform thief("thief", world.rng, world.clock);
  EndBoxEnclave other(thief, sgx::SgxMode::Hardware, world.authority.public_key(),
                      world.rng);
  EXPECT_FALSE(other.ecall_restore_credentials(sealed).ok());
}

TEST_F(EnclaveFixture, InstallConfigRequiresProvisioning) {
  sgx::SgxPlatform platform("c1", world.rng, world.clock);
  EndBoxEnclave enclave(platform, sgx::SgxMode::Hardware,
                        world.authority.public_key(), world.rng);
  EXPECT_FALSE(enclave.ecall_install_config(bundle).ok());
}

TEST_F(EnclaveFixture, InstallConfigRejectsBrokenGraph) {
  auto& enclave = provisioned();
  auto broken = world.server.publish_config(5, "x :: NoSuchElement;", true, 0, 0);
  ASSERT_TRUE(broken.ok());
  EXPECT_FALSE(enclave.ecall_install_config(*broken).ok());
  // Old router keeps running (atomicity).
  EXPECT_NE(enclave.router(), nullptr);
  EXPECT_EQ(enclave.config_version(), 2u);
}

TEST_F(EnclaveFixture, EpcAccountingTracksConfigs) {
  auto& enclave = provisioned();
  std::size_t small_epc = enclave.epc_used();
  EXPECT_GT(small_epc, 0u);
  auto big = world.server.publish_config(5, use_case_config(UseCase::Ddos), true, 0, 0);
  ASSERT_TRUE(big.ok());
  ASSERT_TRUE(enclave.ecall_install_config(*big).ok());
  EXPECT_GT(enclave.epc_used(), small_epc);  // bigger graph, more trusted heap
  EXPECT_FALSE(enclave.epc_over_limit());
}

TEST_F(EnclaveFixture, EpcCountsCompiledRuleSetsOncePerEnclave) {
  // The 377-rule community set compiles to ~2.4k automaton states of
  // 1 KiB transition rows each; lanes share the one compiled engine.
  auto idps = world.publish(UseCase::Idps, 3);
  EndBoxClientOptions four_lanes;
  four_lanes.shards = 4;
  std::size_t one_lane = world.add_client(idps).enclave().epc_used();
  auto& sharded = world.add_client(idps, four_lanes).enclave();
  ASSERT_EQ(sharded.shard_count(), 4u);
  EXPECT_GE(one_lane, std::size_t{2} << 20);
  EXPECT_EQ(sharded.epc_used(), one_lane);

  // FW clients hold the community set too, but never compile it.
  auto fw = world.publish(UseCase::Fw, 4);
  auto& firewall = world.add_client(fw).enclave();
  EXPECT_EQ(firewall.rulesets().compiled("community"), nullptr);
  EXPECT_LT(firewall.epc_used(), std::size_t{64} << 10);
}

TEST_F(EnclaveFixture, HandshakeBeforeProvisioningFails) {
  sgx::SgxPlatform platform("c1", world.rng, world.clock);
  EndBoxEnclave enclave(platform, sgx::SgxMode::Hardware,
                        world.authority.public_key(), world.rng);
  EXPECT_FALSE(enclave.ecall_handshake_init(world.server.public_key()).ok());
}

TEST_F(EnclaveFixture, DataPathGuardsWhenNotConnected) {
  sgx::SgxPlatform platform("c1", world.rng, world.clock);
  EndBoxEnclave enclave(platform, sgx::SgxMode::Hardware,
                        world.authority.public_key(), world.rng);
  click::PacketBatch batch;
  batch.push_back(world.benign_packet());
  EgressBatch egress;
  EXPECT_FALSE(enclave.ecall_process_egress_batch(std::move(batch), egress).ok());
  Bytes frame(32, 0);
  IngressBatch ingress;
  EXPECT_FALSE(enclave.ecall_process_ingress_batch({&frame, 1}, ingress).ok());
  Bytes ping;
  EXPECT_FALSE(enclave.ecall_create_ping_wire(ping).ok());
  EXPECT_FALSE(enclave.ecall_handle_ping(Bytes(32, 0)).ok());
}

TEST_F(EnclaveFixture, PingOnDataPathRejected) {
  auto& client = world.add_client(bundle);
  // A ping message fed into the data-ingress ecall is refused (strict
  // interface separation, section IV-B): the burst drops it, and the
  // client's per-packet path reports the drop.
  Bytes ping = world.server.create_ping(1);
  IngressBatch out;
  ASSERT_TRUE(client.enclave().ecall_process_ingress_batch({&ping, 1}, out).ok());
  EXPECT_EQ(out.dropped, 1u);
  EXPECT_EQ(out.complete, 0u);
  EXPECT_FALSE(client.receive_wire(ping, world.clock.now()).ok());
}

TEST_F(EnclaveFixture, DecryptedPayloadNeverLeavesEnclave) {
  // Even if an element attaches plaintext, the egress path clears the
  // annotation before sealing.
  auto& client = world.add_client(bundle);
  net::Packet packet = world.benign_packet();
  packet.decrypted_payload = to_bytes("plaintext-that-must-not-leak");
  auto sent = client.send_packet(std::move(packet), 0);
  ASSERT_TRUE(sent.ok());
  Bytes marker = to_bytes("plaintext-that-must-not-leak");
  for (const auto& wire : sent->wire) {
    auto it = std::search(wire.begin(), wire.end(), marker.begin(), marker.end());
    EXPECT_EQ(it, wire.end());
  }
}

TEST_F(EnclaveFixture, TrustedTimeOcallsAreCounted) {
  // The DDoS config's TrustedSplitter reads trusted time via an ocall —
  // at every lane count: lane threads tally the reads, the ecall
  // thread folds them into the enclave's ocall count after the burst.
  for (std::size_t lanes : {1u, 2u, 4u}) {
    World ddos_world;
    auto ddos_bundle = ddos_world.publish(UseCase::Ddos);
    EndBoxClientOptions options;
    options.shards = lanes;
    auto& client = ddos_world.add_client(ddos_bundle, options);
    ASSERT_EQ(client.enclave().shard_count(), lanes);
    auto ocalls_before = client.enclave().transitions().ocalls;
    ASSERT_TRUE(ddos_world.send_through(client, ddos_world.benign_packet()).ok());
    EXPECT_GT(client.enclave().transitions().ocalls, ocalls_before)
        << lanes << " lanes";
  }
}

TEST_F(EnclaveFixture, RulesetRegistrationIsEcall) {
  auto& enclave = provisioned();
  auto ecalls_before = enclave.transitions().ecalls;
  enclave.ecall_add_ruleset("extra", world.community_rules);
  EXPECT_EQ(enclave.transitions().ecalls, ecalls_before + 1);
}

/// The engine of every IDSMatcher on every lane, in lane order.
std::vector<const idps::IdpsEngine*> lane_engines(const EndBoxEnclave& enclave) {
  std::vector<const idps::IdpsEngine*> engines;
  const click::ShardedRouter* sharded = enclave.sharded_router();
  for (std::size_t s = 0; s < sharded->shard_count(); ++s)
    for (const click::Element* element : sharded->shard(s).elements())
      if (auto* ids = dynamic_cast<const elements::IDSMatcher*>(element))
        engines.push_back(ids->engine());
  return engines;
}

TEST_F(EnclaveFixture, LanesHotSwapAndReshardShareOneCompiledRuleSet) {
  EndBoxClientOptions options;
  options.shards = 4;
  auto& enclave =
      world.add_client(world.publish(UseCase::Idps, 3), options).enclave();
  std::vector<const idps::IdpsEngine*> engines = lane_engines(enclave);
  ASSERT_EQ(engines.size(), 4u);
  const idps::IdpsEngine* shared = engines[0];
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(engines, std::vector(4, shared)) << "each lane compiled its own set";

  // A same-config hot-swap and a reshard 1 -> 4 -> 2 reuse it.
  ASSERT_TRUE(enclave.ecall_install_config(world.publish(UseCase::Idps, 4)).ok());
  EXPECT_EQ(lane_engines(enclave), std::vector(4, shared)) << "hot-swap";
  for (std::size_t lanes : {1u, 4u, 2u}) {
    ASSERT_TRUE(enclave.ecall_reshard(lanes).ok());
    EXPECT_EQ(lane_engines(enclave), std::vector(lanes, shared))
        << "reshard to " << lanes;
  }
}

TEST_F(EnclaveFixture, RuleSetNamedByNoConfigIsNeverCompiled) {
  // Every client holds the community set; the FW config names no rule
  // set, so installing it compiles nothing. The first config that
  // names the set compiles it.
  auto& enclave = world.add_client(world.publish(UseCase::Fw, 3)).enclave();
  EXPECT_EQ(enclave.rulesets().compiled("community"), nullptr);
  ASSERT_TRUE(enclave.ecall_install_config(world.publish(UseCase::Idps, 4)).ok());
  const idps::IdpsEngine* compiled = enclave.rulesets().compiled("community");
  ASSERT_NE(compiled, nullptr);
  EXPECT_EQ(compiled->rule_count(), world.community_rules.size());
}

TEST_F(EnclaveFixture, ReplacedRuleSetScansFromTheNextInstall) {
  auto& client = world.add_client(world.publish(UseCase::Idps, 3));
  auto& enclave = client.enclave();
  auto fresh = idps::parse_snort_ruleset(
      "drop udp any any -> any any (content:\"fresh-signature\"; sid:77;)\n");
  ASSERT_TRUE(fresh.ok());
  auto probe = [&] {
    net::Packet packet = world.benign_packet(200);
    packet.payload = to_bytes("this payload carries a fresh-signature");
    return world.send_through(client, std::move(packet));
  };
  ASSERT_TRUE(probe().ok()) << "the community set does not know the content";
  enclave.ecall_add_ruleset("community", *fresh);
  // The running graph keeps the engine it was built with...
  EXPECT_TRUE(probe().ok());
  // ...and the next install compiles the new rules, not a stale copy.
  ASSERT_TRUE(enclave.ecall_install_config(world.publish(UseCase::Idps, 4)).ok());
  EXPECT_FALSE(probe().ok()) << "the new drop rule did not fire";
  ASSERT_NE(enclave.rulesets().compiled("community"), nullptr);
  EXPECT_EQ(enclave.rulesets().compiled("community")->rule_count(), 1u);
}

TEST_F(EnclaveFixture, MeasurementMatchesCanonicalIdentity) {
  auto& enclave = provisioned();
  EXPECT_EQ(enclave.measurement(),
            sgx::measure(std::string(kEndBoxEnclaveIdentity)));
}

}  // namespace
}  // namespace endbox
