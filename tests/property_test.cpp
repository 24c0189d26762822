// Parameterized property tests: invariants that must hold across whole
// input ranges — packet sizes, use cases, SGX modes, key material.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "crypto/aes.hpp"
#include "crypto/hmac.hpp"
#include "elements/device.hpp"
#include "endbox_world.hpp"
#include "idps/aho_corasick.hpp"
#include "oracle/naive_scanner.hpp"
#include "oracle/session_crypto_reference.hpp"
#include "vpn/session_crypto.hpp"

namespace endbox {
namespace {

using testing::World;

// ---- Tunnel round-trip invariant across payload sizes -----------------------

class TunnelSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TunnelSizeSweep, PacketsSurviveTheTunnelByteExact) {
  std::size_t size = GetParam();
  World world;
  auto& client = world.add_client(world.publish(UseCase::Nop));
  net::Packet packet = world.benign_packet(size);
  Bytes original_payload = packet.payload;

  auto sent = client.send_packet(std::move(packet), 0);
  ASSERT_TRUE(sent.ok()) << sent.error();
  ASSERT_TRUE(sent->accepted);
  Bytes delivered;
  for (const auto& wire : sent->wire) {
    auto handled = world.server.handle_wire(wire, 0);
    ASSERT_TRUE(handled.ok()) << handled.error();
    if (auto* in = std::get_if<vpn::VpnServer::PacketIn>(&handled->event))
      delivered = in->ip_packet;
  }
  ASSERT_FALSE(delivered.empty()) << "no PacketIn for size " << size;
  auto parsed = net::Packet::parse(delivered);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed->payload, original_payload);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TunnelSizeSweep,
                         ::testing::Values(0, 1, 15, 16, 100, 1400, 8000, 8973,
                                           9000, 20000, 65000));

// ---- Use-case graph invariants ------------------------------------------------

class UseCaseSweep : public ::testing::TestWithParam<UseCase> {};

TEST_P(UseCaseSweep, BenignTrafficFlowsAndIsCounted) {
  World world;
  auto& client = world.add_client(world.publish(GetParam()));
  for (int i = 0; i < 20; ++i) {
    auto in = world.send_through(client, world.benign_packet(1000 + i * 20));
    ASSERT_TRUE(in.ok()) << use_case_name(GetParam()) << ": " << in.error();
  }
  EXPECT_EQ(client.enclave().packets_rejected_by_click(), 0u);
  // FromDevice saw exactly the packets we pushed.
  auto* from = client.enclave().router()->find("from_device");
  ASSERT_NE(from, nullptr);
  auto* fd = dynamic_cast<const elements::FromDevice*>(from);
  ASSERT_NE(fd, nullptr);
  EXPECT_EQ(fd->packets(), 20u);
}

TEST_P(UseCaseSweep, HotSwapToEveryOtherUseCaseWorks) {
  World world;
  auto& client = world.add_client(world.publish(GetParam()));
  std::uint32_t version = 3;
  for (UseCase next : {UseCase::Nop, UseCase::Lb, UseCase::Fw, UseCase::Idps,
                       UseCase::Ddos}) {
    auto bundle = world.server.publish_config(version, use_case_config(next), true,
                                              0, world.clock.now());
    ASSERT_TRUE(bundle.ok()) << bundle.error();
    ASSERT_TRUE(client.install_config(*bundle, world.clock.now()).ok());
    EXPECT_EQ(client.enclave().config_version(), version);
    // Traffic still flows right after the swap, but first prove the
    // update to the server via a ping (grace period is zero).
    Bytes ping;
    ASSERT_TRUE(client.create_ping_wire(ping, world.clock.now()).ok());
    ASSERT_TRUE(world.server.handle_wire(ping, world.clock.now()).ok());
    auto in = world.send_through(client, world.benign_packet());
    ASSERT_TRUE(in.ok()) << in.error();
    ++version;
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, UseCaseSweep,
                         ::testing::Values(UseCase::Nop, UseCase::Lb, UseCase::Fw,
                                           UseCase::Idps, UseCase::Ddos),
                         [](const auto& info) {
                           return std::string(use_case_name(info.param)) == "DDoS"
                                      ? "DDoS"
                                      : use_case_name(info.param);
                         });

// ---- VPN body crypto invariants -----------------------------------------------

// gtest names each case by dumping the parameter's bytes, so the struct
// carries no padding: `name_tag` fills what would otherwise be
// uninitialised bytes, keeping every case's name identical across builds.
struct BodyParam {
  std::size_t payload;
  bool encrypted;
  std::uint8_t name_tag[7];
};
static_assert(sizeof(BodyParam) == 16, "BodyParam must have no padding");

class VpnBodySweep : public ::testing::TestWithParam<BodyParam> {};

TEST_P(VpnBodySweep, SealOpenRoundTripAndTamperDetection) {
  const std::size_t size = GetParam().payload;
  const bool encrypted = GetParam().encrypted;
  Rng rng(size + encrypted);
  auto keys = vpn::derive_vpn_keys(rng.next_u64(), rng.bytes(16), rng.bytes(16));
  Bytes payload = rng.bytes(size);
  vpn::FragmentHeader frag{7, 3, 0, 1};

  WireBuffer sealed;
  if (encrypted)
    vpn::seal_data_body(keys, frag, payload, rng, sealed);
  else
    vpn::seal_integrity_body(keys, frag, payload, sealed);
  Bytes body = sealed.take();
  auto opened = encrypted ? vpn::open_data_body(keys, Bytes(body))
                          : vpn::open_integrity_body(keys, Bytes(body));
  ASSERT_TRUE(opened.ok()) << opened.error();
  EXPECT_EQ(opened->payload, payload);
  EXPECT_EQ(opened->frag.packet_id, 7u);

  // Any single-bit flip anywhere must be detected.
  for (std::size_t pos : {std::size_t{0}, body.size() / 2, body.size() - 1}) {
    Bytes bad = body;
    bad[pos] ^= 0x01;
    auto r = encrypted ? vpn::open_data_body(keys, std::move(bad))
                       : vpn::open_integrity_body(keys, std::move(bad));
    EXPECT_FALSE(r.ok()) << "flip at " << pos;
  }
}

INSTANTIATE_TEST_SUITE_P(Bodies, VpnBodySweep,
                         ::testing::Values(BodyParam{0, true, {0x20}},
                                           BodyParam{1, true, {0x20}},
                                           BodyParam{1500, true, {0x20}},
                                           BodyParam{9000, true, {0xF0}},
                                           BodyParam{0, false, {0x20}},
                                           BodyParam{1, false, {0xF0}},
                                           BodyParam{1500, false, {0xB0}},
                                           BodyParam{9000, false, {0x10}}));

// ---- AES mode properties across many keys ---------------------------------------

class AesKeySweep : public ::testing::TestWithParam<int> {};

TEST_P(AesKeySweep, ModesRoundTripUnderRandomKeys) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  auto key = crypto::make_aes_key(rng.bytes(16));
  Bytes iv = rng.bytes(16);
  Bytes nonce = rng.bytes(16);
  Bytes plaintext = rng.bytes(rng.uniform(0, 4096));

  Bytes cbc = crypto::aes128_cbc_encrypt(key, iv, plaintext);
  auto cbc_back = crypto::aes128_cbc_decrypt(key, iv, cbc);
  ASSERT_TRUE(cbc_back.ok());
  EXPECT_EQ(*cbc_back, plaintext);

  Bytes ctr = crypto::aes128_ctr(key, nonce, plaintext);
  EXPECT_EQ(crypto::aes128_ctr(key, nonce, ctr), plaintext);

  // Encrypt-then-MAC composition detects ciphertext truncation.
  Bytes mac = crypto::hmac_sha256(rng.bytes(32), cbc);
  EXPECT_EQ(mac.size(), 32u);
}

INSTANTIATE_TEST_SUITE_P(Keys, AesKeySweep, ::testing::Range(0, 12));

// ---- Crypto round-trip properties ----------------------------------------------

class CtrSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CtrSizeSweep, AesCtrRoundTripsAndIsItsOwnInverse) {
  std::size_t size = GetParam();
  Rng rng(size * 31 + 5);
  auto key = crypto::make_aes_key(rng.bytes(16));
  Bytes nonce = rng.bytes(16);
  Bytes plaintext = rng.bytes(size);

  Bytes ciphertext = crypto::aes128_ctr(key, nonce, plaintext);
  ASSERT_EQ(ciphertext.size(), plaintext.size());
  // CTR is a stream cipher: applying it twice restores the plaintext.
  EXPECT_EQ(crypto::aes128_ctr(key, nonce, ciphertext), plaintext);
  if (size > 0) {
    // A different nonce must produce a different keystream.
    Bytes other_nonce = rng.bytes(16);
    EXPECT_NE(crypto::aes128_ctr(key, other_nonce, plaintext), ciphertext);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CtrSizeSweep,
                         ::testing::Values(0, 1, 15, 16, 17, 64, 1000, 4096,
                                           65536));

class HmacKeySweep : public ::testing::TestWithParam<int> {};

TEST_P(HmacKeySweep, VerifyAcceptsGenuineRejectsTampered) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  Bytes key = rng.bytes(rng.uniform(1, 128));  // short, block-sized and long keys
  Bytes data = rng.bytes(rng.uniform(0, 2048));
  Bytes mac = crypto::hmac_sha256(key, data);

  EXPECT_TRUE(crypto::hmac_verify(key, data, mac));
  // Any single-bit flip in the MAC must be rejected.
  for (std::size_t pos : {std::size_t{0}, mac.size() / 2, mac.size() - 1}) {
    Bytes bad = mac;
    bad[pos] ^= 0x01;
    EXPECT_FALSE(crypto::hmac_verify(key, data, bad));
  }
  // Tampered data and wrong key must be rejected too.
  Bytes bad_data = data;
  bad_data.push_back(0x00);
  EXPECT_FALSE(crypto::hmac_verify(key, bad_data, mac));
  Bytes bad_key = key;
  bad_key[0] ^= 0xff;
  EXPECT_FALSE(crypto::hmac_verify(bad_key, data, mac));
  // Truncated MACs never verify.
  Bytes truncated(mac.begin(), mac.begin() + 16);
  EXPECT_FALSE(crypto::hmac_verify(key, data, truncated));
}

INSTANTIATE_TEST_SUITE_P(Keys, HmacKeySweep, ::testing::Range(0, 8));

// HMAC-SHA-256 known answer (RFC 4231 test case 2: short key, short data).
TEST(CryptoKat, HmacRfc4231Case2) {
  Bytes key = to_bytes("Jefe");
  Bytes data = to_bytes("what do ya want for nothing?");
  EXPECT_EQ(to_hex(crypto::hmac_sha256(key, data)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  EXPECT_TRUE(crypto::hmac_verify(key, data, crypto::hmac_sha256(key, data)));
}

// SHA-256 known answers beyond the unit suite's: one-byte 0xbd (NIST
// example) and the million-'a' extreme-length vector (FIPS 180-4).
TEST(CryptoKat, Sha256SingleByte) {
  EXPECT_EQ(to_hex(crypto::sha256(Bytes{0xbd})),
            "68325720aabd7c82f30f554b313d0570c95accbb7dc4b5aae11204c08ffe732b");
}

TEST(CryptoKat, Sha256MillionA) {
  Bytes msg(1'000'000, 'a');
  EXPECT_EQ(to_hex(crypto::sha256(msg)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// ---- SGX mode sweep ----------------------------------------------------------------

class ModeSweep : public ::testing::TestWithParam<sgx::SgxMode> {};

TEST_P(ModeSweep, FunctionalBehaviourIdenticalAcrossModes) {
  World world;
  EndBoxClientOptions options;
  options.sgx_mode = GetParam();
  auto& client = world.add_client(world.publish(UseCase::Fw), options);
  // Filtering semantics must not depend on the SGX mode.
  auto ok = world.send_through(client, world.benign_packet(100, 80));
  EXPECT_TRUE(ok.ok()) << ok.error();
  net::Packet blocked = world.benign_packet(100, 80);
  blocked.src = net::Ipv4(203, 0, 113, 8);  // matches a FW drop rule
  auto rejected = world.send_through(client, std::move(blocked));
  EXPECT_FALSE(rejected.ok());
}

INSTANTIATE_TEST_SUITE_P(Modes, ModeSweep,
                         ::testing::Values(sgx::SgxMode::Hardware,
                                           sgx::SgxMode::Simulation),
                         [](const auto& info) {
                           return info.param == sgx::SgxMode::Hardware ? "Hardware"
                                                                       : "Simulation";
                         });

// ---- Flattened Aho-Corasick vs the naive search oracle ----------------------

class AcSeedSweep : public ::testing::TestWithParam<int> {};

TEST_P(AcSeedSweep, FlatAutomatonReportsByteIdenticalMatches) {
  Rng rng(1000 + static_cast<std::uint64_t>(GetParam()));
  idps::AhoCorasick automaton;
  // Small alphabet + short patterns force shared prefixes, failure
  // transitions and nested-suffix outputs (the hard cases for the
  // flattened output lists). Duplicate patterns are allowed.
  std::size_t n_patterns = 1 + rng.uniform(0, 30);
  std::vector<Bytes> patterns;
  for (std::size_t p = 0; p < n_patterns; ++p) {
    std::size_t len = 1 + rng.uniform(0, 7);
    Bytes pattern(len);
    for (auto& b : pattern)
      b = static_cast<std::uint8_t>('a' + rng.uniform(0, 3));
    automaton.add_pattern(pattern, static_cast<int>(p));
    patterns.push_back(std::move(pattern));
  }
  automaton.build();

  for (int round = 0; round < 8; ++round) {
    std::size_t text_len = rng.uniform(0, 600);
    Bytes text(text_len);
    for (auto& b : text) {
      // Mostly in-alphabet bytes (matches), some arbitrary (resets).
      b = rng.uniform(0, 9) == 0
              ? static_cast<std::uint8_t>(rng.uniform(0, 255))
              : static_cast<std::uint8_t>('a' + rng.uniform(0, 3));
    }
    auto flat = automaton.match(text);
    auto ref = oracle::naive_matches(patterns, text);
    // The walk reports matches in end-offset order; within one offset
    // the order follows the output links, so compare those as a set.
    EXPECT_TRUE(std::is_sorted(flat.begin(), flat.end(), [](const auto& a, const auto& b) {
      return a.end_offset < b.end_offset;
    })) << "round " << round;
    std::sort(flat.begin(), flat.end(), [](const auto& a, const auto& b) {
      return std::pair(a.end_offset, a.pattern_id) < std::pair(b.end_offset, b.pattern_id);
    });
    ASSERT_EQ(flat.size(), ref.size()) << "round " << round;
    for (std::size_t i = 0; i < flat.size(); ++i) {
      EXPECT_EQ(flat[i].pattern_id, ref[i].pattern_id) << "match " << i;
      EXPECT_EQ(flat[i].end_offset, ref[i].end_offset) << "match " << i;
    }
    EXPECT_EQ(automaton.contains_any(text), !ref.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AcSeedSweep, ::testing::Range(0, 12));

// ---- Incremental HMAC vs one-shot -------------------------------------------

TEST(HmacIncremental, EqualsOneShotForAllChunkings) {
  Rng rng(42);
  Bytes key = rng.bytes(32);
  Bytes msg = rng.bytes(96);
  crypto::HmacKey hk(key);
  Bytes oneshot = crypto::hmac_sha256(key, msg);
  auto digest_bytes = [](const crypto::Sha256Digest& d) {
    return Bytes(d.begin(), d.end());
  };
  ASSERT_EQ(digest_bytes(hk.mac(msg)), oneshot);

  // Every two-part split of the message...
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    auto mac = hk.begin();
    mac.update(ByteView(msg).subspan(0, split));
    mac.update(ByteView(msg).subspan(split));
    EXPECT_EQ(digest_bytes(mac.finish()), oneshot) << "split " << split;
  }
  // ...and every fixed chunk size (exercises all buffer fill offsets).
  for (std::size_t chunk = 1; chunk <= msg.size(); ++chunk) {
    auto mac = hk.begin();
    for (std::size_t off = 0; off < msg.size(); off += chunk)
      mac.update(ByteView(msg).subspan(off, std::min(chunk, msg.size() - off)));
    EXPECT_EQ(digest_bytes(mac.finish()), oneshot) << "chunk " << chunk;
  }
}

TEST(HmacIncremental, PrecomputedKeyAgreesWithFreeFunctionAcrossKeySizes) {
  Rng rng(43);
  Bytes msg = rng.bytes(200);
  // Below, at, and above the SHA-256 block size (the >64B case takes
  // the hash-the-key path).
  for (std::size_t key_len : {1u, 16u, 32u, 63u, 64u, 65u, 128u}) {
    Bytes key = rng.bytes(key_len);
    crypto::HmacKey hk(key);
    Bytes expected = crypto::hmac_sha256(key, msg);
    crypto::Sha256Digest digest = hk.mac(msg);
    EXPECT_EQ(Bytes(digest.begin(), digest.end()), expected)
        << "key length " << key_len;
    EXPECT_TRUE(hk.verify(msg, expected));
    Bytes tampered = expected;
    tampered[0] ^= 1;
    EXPECT_FALSE(hk.verify(msg, tampered));
  }
}

// ---- Optimised seal vs pre-PR reference -------------------------------------

class SealEquivalenceSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SealEquivalenceSweep, WireBufferSealIsByteIdenticalToReference) {
  std::size_t size = GetParam();
  Rng key_rng(77);
  auto keys = vpn::derive_vpn_keys(0xfeedface, key_rng.bytes(16), key_rng.bytes(16));
  Bytes payload = key_rng.bytes(size);
  vpn::FragmentHeader frag{42, 7, 1, 3};

  // Identically-seeded RNGs draw identical IVs, so the two seals must
  // produce the same bytes end to end.
  Rng rng_new(555), rng_ref(555);
  WireBuffer out;
  vpn::seal_data_body(keys, frag, payload, rng_new, out);
  Bytes ref = vpn::reference::seal_data_body(keys, frag, payload, rng_ref);
  EXPECT_EQ(Bytes(out.view().begin(), out.view().end()), ref);

  // Cross-open: each implementation opens the other's output.
  auto ref_opened = vpn::reference::open_data_body(keys, out.view());
  ASSERT_TRUE(ref_opened.ok()) << ref_opened.error();
  EXPECT_EQ(ref_opened->payload, payload);
  EXPECT_EQ(ref_opened->frag.packet_id, frag.packet_id);
  auto new_opened = vpn::open_data_body(keys, Bytes(ref));
  ASSERT_TRUE(new_opened.ok()) << new_opened.error();
  EXPECT_EQ(new_opened->payload, payload);
  EXPECT_EQ(new_opened->frag.frag_id, frag.frag_id);

  // Integrity-only mode has no RNG input; byte identity is direct.
  WireBuffer integ;
  vpn::seal_integrity_body(keys, frag, payload, integ);
  Bytes integ_ref = vpn::reference::seal_integrity_body(keys, frag, payload);
  EXPECT_EQ(Bytes(integ.view().begin(), integ.view().end()), integ_ref);
  auto integ_opened = vpn::open_integrity_body(keys, Bytes(integ_ref));
  ASSERT_TRUE(integ_opened.ok()) << integ_opened.error();
  EXPECT_EQ(integ_opened->payload, payload);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SealEquivalenceSweep,
                         ::testing::Values(0, 1, 15, 16, 17, 100, 1499, 1500));

}  // namespace
}  // namespace endbox
