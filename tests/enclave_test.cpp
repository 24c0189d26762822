// Focused tests for EndBoxEnclave's ecall surface: provisioning checks,
// sealed-credential restore, config install edge cases, data-path
// guards, EPC accounting.
#include <gtest/gtest.h>

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
  EXPECT_FALSE(enclave.ecall_process_egress(world.benign_packet()).ok());
  EXPECT_FALSE(enclave.ecall_process_ingress(Bytes(32, 0)).ok());
  EXPECT_FALSE(enclave.ecall_create_ping().ok());
  EXPECT_FALSE(enclave.ecall_handle_ping(Bytes(32, 0)).ok());
}

TEST_F(EnclaveFixture, PingOnDataPathRejected) {
  auto& client = world.add_client(bundle);
  // A ping message fed into the data-ingress ecall is refused (strict
  // interface separation, section IV-B).
  Bytes ping = world.server.create_ping(1);
  EXPECT_FALSE(client.enclave().ecall_process_ingress(ping).ok());
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

TEST_F(EnclaveFixture, MeasurementMatchesCanonicalIdentity) {
  auto& enclave = provisioned();
  EXPECT_EQ(enclave.measurement(),
            sgx::measure(std::string(kEndBoxEnclaveIdentity)));
}

}  // namespace
}  // namespace endbox
