// Unit tests for src/crypto against published test vectors (SHA-256,
// HMAC-SHA-256, AES-128) plus property tests for modes and toy-RSA.
// Every vector runs at both kernel levels in one process — the portable
// code and the AES-NI / SHA-NI kernels — and a seeded differential
// sweep requires the two levels to agree byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <vector>

#include "common/cpu_features.hpp"
#include "common/rng.hpp"
#include "crypto/aes.hpp"
#include "crypto/hmac.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"
#include "oracle/session_crypto_reference.hpp"
#include "vpn/session_crypto.hpp"

namespace endbox::crypto {
namespace {

using endbox::Rng;
using AesKernel = Aes128::Kernel;
using ShaKernel = Sha256::Kernel;

// Runs `check` with the portable kernel, then with AES-NI. On a host
// without AES-NI the hardware half is skipped, and the skip names it.
template <typename Check>
void at_both_aes_kernels(Check check) {
  {
    SCOPED_TRACE("portable AES");
    check(AesKernel::Portable);
  }
  if (!common::hardware_has_aes())
    GTEST_SKIP() << "no AES-NI on this host: the hardware kernel is unchecked";
  SCOPED_TRACE("AES-NI");
  check(AesKernel::AesNi);
}

template <typename Check>
void at_both_sha_kernels(Check check) {
  {
    SCOPED_TRACE("portable SHA-256");
    check(ShaKernel::Portable);
  }
  if (!common::hardware_has_sha())
    GTEST_SKIP() << "no SHA-NI on this host: the hardware kernel is unchecked";
  SCOPED_TRACE("SHA-NI");
  check(ShaKernel::ShaNi);
}

std::string sha_hex(ByteView data, ShaKernel kernel) {
  Sha256 h(kernel);
  h.update(data);
  auto d = h.finish();
  return to_hex(ByteView(d.data(), d.size()));
}

std::string hmac_hex(ByteView key, ByteView data, ShaKernel kernel) {
  auto d = HmacKey(key, kernel).mac(data);
  return to_hex(ByteView(d.data(), d.size()));
}

// ---- SHA-256 (FIPS 180-4 / NIST vectors) -------------------------------

TEST(Sha256, EmptyString) {
  const char* expected = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
  EXPECT_EQ(to_hex(sha256({})), expected);
  at_both_sha_kernels([&](ShaKernel k) { EXPECT_EQ(sha_hex({}, k), expected); });
}

TEST(Sha256, Abc) {
  const char* expected = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
  EXPECT_EQ(to_hex(sha256(to_bytes("abc"))), expected);
  at_both_sha_kernels(
      [&](ShaKernel k) { EXPECT_EQ(sha_hex(to_bytes("abc"), k), expected); });
}

TEST(Sha256, TwoBlockMessage) {
  Bytes msg = to_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  const char* expected = "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1";
  EXPECT_EQ(to_hex(sha256(msg)), expected);
  at_both_sha_kernels([&](ShaKernel k) { EXPECT_EQ(sha_hex(msg, k), expected); });
}

TEST(Sha256, MillionAs) {
  Bytes chunk(1000, 'a');
  auto million_as = [&](Sha256 h) {
    for (int i = 0; i < 1000; ++i) h.update(chunk);
    auto d = h.finish();
    return to_hex(ByteView(d.data(), d.size()));
  };
  const char* expected = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
  EXPECT_EQ(million_as(Sha256()), expected);
  at_both_sha_kernels(
      [&](ShaKernel k) { EXPECT_EQ(million_as(Sha256(k)), expected); });
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Rng rng(42);
  Bytes data = rng.bytes(10000);
  // Split at awkward boundaries relative to the 64-byte block size.
  for (std::size_t split : {1u, 63u, 64u, 65u, 127u, 5000u}) {
    Sha256 h;
    h.update(ByteView(data.data(), split));
    h.update(ByteView(data.data() + split, data.size() - split));
    auto inc = h.finish();
    auto oneshot = Sha256::hash(data);
    EXPECT_EQ(inc, oneshot) << "split=" << split;
  }
}

// ---- HMAC-SHA-256 (RFC 4231) -------------------------------------------

TEST(Hmac, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  Bytes data = to_bytes("Hi There");
  const char* expected = "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7";
  EXPECT_EQ(to_hex(hmac_sha256(key, data)), expected);
  at_both_sha_kernels([&](ShaKernel k) { EXPECT_EQ(hmac_hex(key, data, k), expected); });
}

TEST(Hmac, Rfc4231Case2) {
  Bytes key = to_bytes("Jefe");
  Bytes data = to_bytes("what do ya want for nothing?");
  const char* expected = "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843";
  EXPECT_EQ(to_hex(hmac_sha256(key, data)), expected);
  at_both_sha_kernels([&](ShaKernel k) { EXPECT_EQ(hmac_hex(key, data, k), expected); });
}

TEST(Hmac, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes data(50, 0xdd);
  const char* expected = "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe";
  EXPECT_EQ(to_hex(hmac_sha256(key, data)), expected);
  at_both_sha_kernels([&](ShaKernel k) { EXPECT_EQ(hmac_hex(key, data, k), expected); });
}

TEST(Hmac, Rfc4231Case4) {
  Bytes key = *from_hex("0102030405060708090a0b0c0d0e0f10111213141516171819");
  Bytes data(50, 0xcd);
  const char* expected = "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b";
  EXPECT_EQ(to_hex(hmac_sha256(key, data)), expected);
  at_both_sha_kernels([&](ShaKernel k) { EXPECT_EQ(hmac_hex(key, data, k), expected); });
}

TEST(Hmac, LongKeyIsHashedFirst) {
  // RFC 4231 case 6: 131-byte key.
  Bytes key(131, 0xaa);
  Bytes data = to_bytes("Test Using Larger Than Block-Size Key - Hash Key First");
  const char* expected = "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54";
  EXPECT_EQ(to_hex(hmac_sha256(key, data)), expected);
  at_both_sha_kernels([&](ShaKernel k) { EXPECT_EQ(hmac_hex(key, data, k), expected); });
}

TEST(Hmac, Rfc4231Case7) {
  // Larger-than-block key and larger-than-block data.
  Bytes key(131, 0xaa);
  Bytes data = to_bytes(
      "This is a test using a larger than block-size key and a larger than "
      "block-size data. The key needs to be hashed before being used by the "
      "HMAC algorithm.");
  const char* expected = "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2";
  EXPECT_EQ(to_hex(hmac_sha256(key, data)), expected);
  at_both_sha_kernels([&](ShaKernel k) { EXPECT_EQ(hmac_hex(key, data, k), expected); });
}

TEST(Hmac, VerifyAcceptsAndRejects) {
  Bytes key = to_bytes("secret");
  Bytes msg = to_bytes("payload");
  Bytes mac = hmac_sha256(key, msg);
  EXPECT_TRUE(hmac_verify(key, msg, mac));
  mac[0] ^= 1;
  EXPECT_FALSE(hmac_verify(key, msg, mac));
  EXPECT_FALSE(hmac_verify(key, to_bytes("other"), hmac_sha256(key, msg)));
}

TEST(Hmac, DeriveKeyLengthsAndDomainSeparation) {
  Bytes master = to_bytes("master-secret");
  auto k16 = derive_key(master, "enc", 16);
  auto k64 = derive_key(master, "enc", 64);
  auto other = derive_key(master, "mac", 16);
  EXPECT_EQ(k16.size(), 16u);
  EXPECT_EQ(k64.size(), 64u);
  // Same label: prefix property; different label: unrelated.
  EXPECT_TRUE(std::equal(k16.begin(), k16.end(), k64.begin()));
  EXPECT_NE(k16, other);
}

// ---- AES-128 (FIPS 197 appendix + NIST SP 800-38A vectors) ---------------

TEST(Aes, Fips197Block) {
  auto key = make_aes_key(*from_hex("000102030405060708090a0b0c0d0e0f"));
  auto pt = *from_hex("00112233445566778899aabbccddeeff");
  at_both_aes_kernels([&](AesKernel k) {
    Aes128 aes(key, k);
    std::uint8_t ct[16];
    aes.encrypt_block(pt.data(), ct);
    EXPECT_EQ(to_hex(ByteView(ct, 16)), "69c4e0d86a7b0430d8cdb78070b4c55a");
    std::uint8_t back[16];
    aes.decrypt_block(ct, back);
    EXPECT_EQ(to_hex(ByteView(back, 16)), to_hex(pt));
  });
}

TEST(Aes, Sp80038aEcbVector) {
  auto key = make_aes_key(*from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  auto pt = *from_hex("6bc1bee22e409f96e93d7e117393172a");
  at_both_aes_kernels([&](AesKernel k) {
    Aes128 aes(key, k);
    std::uint8_t ct[16];
    aes.encrypt_block(pt.data(), ct);
    EXPECT_EQ(to_hex(ByteView(ct, 16)), "3ad77bb40d7a3660a89ecaf32466ef97");
  });
}

// SP 800-38A F.1-F.5 use one key and one four-block plaintext.
constexpr const char* kSp80038aKey = "2b7e151628aed2a6abf7158809cf4f3c";
constexpr const char* kSp80038aPlaintext =
    "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710";

TEST(Aes, Sp80038aCbcVector) {
  auto key = make_aes_key(*from_hex(kSp80038aKey));
  auto iv = *from_hex("000102030405060708090a0b0c0d0e0f");
  auto pt = *from_hex("6bc1bee22e409f96e93d7e117393172a");
  Bytes ct = aes128_cbc_encrypt(key, iv, pt);
  // First block matches the NIST vector; the rest is PKCS#7 padding block.
  ASSERT_GE(ct.size(), 16u);
  EXPECT_EQ(to_hex(ByteView(ct.data(), 16)), "7649abac8119b246cee98e9b12e9197d");

  // F.2.1/F.2.2, all four blocks, plus the padding block: five blocks
  // straddle the AES-NI decryption's 4-block interleave.
  Bytes full = *from_hex(kSp80038aPlaintext);
  at_both_aes_kernels([&](AesKernel k) {
    Aes128 aes(key, k);
    Bytes buf(cbc_padded_size(full.size()));
    std::memcpy(buf.data(), full.data(), full.size());
    aes128_cbc_encrypt_inplace(aes, iv.data(), buf, full.size());
    EXPECT_EQ(to_hex(ByteView(buf.data(), 64)),
              "7649abac8119b246cee98e9b12e9197d5086cb9b507219ee95db113a917678b2"
              "73bed6b8e3c1743b7116e69e222295163ff1caa1681fac09120eca307586e1a7");
    auto len = aes128_cbc_decrypt_inplace(aes, iv.data(), buf);
    ASSERT_TRUE(len.ok()) << len.error();
    EXPECT_EQ(Bytes(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(*len)), full);
  });
}

TEST(Aes, Sp80038aCtrVector) {
  // F.5.1/F.5.2: the initial counter's low bytes f0f1..feff carry into
  // the next byte on the second block.
  auto key = make_aes_key(*from_hex(kSp80038aKey));
  auto counter = *from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  Bytes pt = *from_hex(kSp80038aPlaintext);
  const char* expected =
      "874d6191b620e3261bef6864990db6ce9806f66b7970fdff8617187bb9fffdff"
      "5ae4df3edbd5d35e5b4f09020db03eab1e031dda2fbe03d1792170a0f3009cee";
  EXPECT_EQ(to_hex(aes128_ctr(key, counter, pt)), expected);
  at_both_aes_kernels([&](AesKernel k) {
    Aes128 aes(key, k);
    Bytes buf = pt;
    aes128_ctr_inplace(aes, counter.data(), buf);
    EXPECT_EQ(to_hex(buf), expected);
    aes128_ctr_inplace(aes, counter.data(), buf);
    EXPECT_EQ(buf, pt);
  });
}
TEST(Aes, CbcRoundTripVariousSizes) {
  Rng rng(1);
  auto key = make_aes_key(rng.bytes(16));
  for (std::size_t size : {0u, 1u, 15u, 16u, 17u, 31u, 32u, 1000u, 1500u}) {
    Bytes pt = rng.bytes(size);
    Bytes iv = rng.bytes(16);
    Bytes ct = aes128_cbc_encrypt(key, iv, pt);
    EXPECT_EQ(ct.size() % 16, 0u);
    EXPECT_GT(ct.size(), pt.size());  // always padded
    auto back = aes128_cbc_decrypt(key, iv, ct);
    ASSERT_TRUE(back.ok()) << back.error();
    EXPECT_EQ(*back, pt) << "size=" << size;
  }
}

TEST(Aes, CbcDecryptRejectsGarbage) {
  Rng rng(2);
  auto key = make_aes_key(rng.bytes(16));
  Bytes iv = rng.bytes(16);
  EXPECT_FALSE(aes128_cbc_decrypt(key, iv, Bytes{}).ok());
  EXPECT_FALSE(aes128_cbc_decrypt(key, iv, rng.bytes(15)).ok());
  // Wrong key produces invalid padding with overwhelming probability.
  Bytes ct = aes128_cbc_encrypt(key, iv, to_bytes("attack at dawn"));
  auto wrong = make_aes_key(rng.bytes(16));
  auto r = aes128_cbc_decrypt(wrong, iv, ct);
  if (r.ok()) { EXPECT_NE(to_string(*r), "attack at dawn"); }
}

TEST(Aes, CtrRoundTripAndSymmetry) {
  Rng rng(3);
  auto key = make_aes_key(rng.bytes(16));
  Bytes nonce = rng.bytes(16);
  for (std::size_t size : {0u, 1u, 16u, 17u, 100u, 4096u}) {
    Bytes pt = rng.bytes(size);
    Bytes ct = aes128_ctr(key, nonce, pt);
    EXPECT_EQ(ct.size(), pt.size());
    EXPECT_EQ(aes128_ctr(key, nonce, ct), pt);
    if (size > 0) { EXPECT_NE(ct, pt); }
  }
}

TEST(Aes, CtrCounterAdvancesAcrossBlocks) {
  Rng rng(4);
  auto key = make_aes_key(rng.bytes(16));
  Bytes nonce(16, 0xff);  // forces carry propagation on increment
  Bytes pt(64, 0);
  Bytes ks = aes128_ctr(key, nonce, pt);
  // keystream blocks must all differ
  for (int i = 0; i < 4; ++i)
    for (int j = i + 1; j < 4; ++j)
      EXPECT_FALSE(std::equal(ks.begin() + i * 16, ks.begin() + (i + 1) * 16,
                              ks.begin() + j * 16));
}

TEST(Aes, CtrCounterIsA128BitBigEndianAdd) {
  // Keystream block i is E(nonce + i), the sum taken over all 16 bytes:
  // the carry out of the low 4, the low 8 and all 16 bytes (the last
  // wraps to zero) must land exactly as the portable byte loop puts it.
  Rng rng(12);
  auto key = make_aes_key(rng.bytes(16));
  at_both_aes_kernels([&](AesKernel k) {
    Aes128 aes(key, k);
    for (std::size_t ff_bytes : {4u, 8u, 16u}) {
      Bytes nonce = rng.bytes(16);
      std::fill(nonce.end() - static_cast<std::ptrdiff_t>(ff_bytes), nonce.end(), 0xff);
      constexpr std::size_t kBlocks = 6;  // one 4-block group plus two singles
      Bytes ks(kBlocks * kAesBlockSize, 0);
      aes128_ctr_inplace(aes, nonce.data(), ks);
      Bytes counter = nonce;
      for (std::size_t i = 0; i < kBlocks; ++i) {
        std::uint8_t expected[kAesBlockSize];
        aes.encrypt_block(counter.data(), expected);
        EXPECT_EQ(to_hex(ByteView(ks.data() + i * kAesBlockSize, kAesBlockSize)),
                  to_hex(ByteView(expected, kAesBlockSize)))
            << ff_bytes << " low 0xff bytes, block " << i;
        for (std::size_t b = kAesBlockSize; b-- > 0;)
          if (++counter[b] != 0) break;
      }
    }
  });
}

// ---- AES-NI and SHA-NI against the portable kernels ----------------------

TEST(CryptoKernels, DefaultsFollowTheHardwareAndTheOverride) {
  // ENDBOX_FORCE_SCALAR=1 pins both portable kernels; otherwise each
  // primitive takes its instruction when the CPU has it, probed apart.
  bool pinned = common::force_scalar();
  AesKernel aes = common::hardware_has_aes() && !pinned ? AesKernel::AesNi : AesKernel::Portable;
  ShaKernel sha = common::hardware_has_sha() && !pinned ? ShaKernel::ShaNi : ShaKernel::Portable;
  EXPECT_EQ(Aes128::default_kernel(), aes);
  EXPECT_EQ(Aes128(AesKey{}).kernel(), aes);
  EXPECT_EQ(Sha256::default_kernel(), sha);
  Sha256 state;
  EXPECT_EQ(state.kernel(), sha);
  Sha256 copy = state;
  EXPECT_EQ(copy.kernel(), sha);
  if (!common::hardware_has_aes()) {
    EXPECT_THROW(Aes128(AesKey{}, AesKernel::AesNi), std::invalid_argument);
  }
  if (!common::hardware_has_sha()) {
    EXPECT_THROW(Sha256(ShaKernel::ShaNi), std::invalid_argument);
  }
}

// The buffer a mode runs over, placed `offset` bytes into its own
// allocation and ending at the allocation's end, so a 16-byte access
// past the data is a heap overflow under ASan.
struct Unaligned {
  Unaligned(ByteView data, std::size_t offset, std::size_t size)
      : storage(offset + size, 0xee), offset(offset) {
    std::copy_n(data.begin(), std::min(data.size(), size),
                storage.begin() + static_cast<std::ptrdiff_t>(offset));
  }
  std::span<std::uint8_t> span() { return {storage.data() + offset, storage.size() - offset}; }
  Bytes bytes() const { return Bytes(storage.begin() + static_cast<std::ptrdiff_t>(offset), storage.end()); }
  Bytes storage;
  std::size_t offset;
};

TEST(CryptoKernels, AesNiMatchesPortableByteForByte) {
  if (!common::hardware_has_aes())
    GTEST_SKIP() << "no AES-NI on this host: nothing to compare the portable kernel with";
  Rng rng(2026);
  // Every length 0-130 B, then random lengths up to 2 KiB: 0-8 blocks
  // and more straddle the 4-block interleave and the partial CTR tail.
  std::vector<std::size_t> lengths(131);
  std::iota(lengths.begin(), lengths.end(), 0);
  for (int i = 0; i < 64; ++i) lengths.push_back(rng.uniform(0, 2048));
  for (std::size_t n = 0; n < lengths.size(); ++n) {
    std::size_t len = lengths[n];
    std::size_t offset = 1 + n % 15;
    SCOPED_TRACE("length " + std::to_string(len) + " at offset " + std::to_string(offset));
    auto key = make_aes_key(rng.bytes(16));
    Aes128 soft(key, AesKernel::Portable), hard(key, AesKernel::AesNi);
    Bytes iv = rng.bytes(16);
    Bytes pt = rng.bytes(len);

    // CBC encrypt.
    std::size_t padded = cbc_padded_size(len);
    Unaligned a(pt, offset, padded), b(pt, offset, padded);
    aes128_cbc_encrypt_inplace(soft, iv.data(), a.span(), len);
    aes128_cbc_encrypt_inplace(hard, iv.data(), b.span(), len);
    ASSERT_EQ(to_hex(a.bytes()), to_hex(b.bytes()));
    Bytes ct = a.bytes();

    // CBC decrypt back to the plaintext.
    auto soft_len = aes128_cbc_decrypt_inplace(soft, iv.data(), a.span());
    auto hard_len = aes128_cbc_decrypt_inplace(hard, iv.data(), b.span());
    ASSERT_TRUE(soft_len.ok() && hard_len.ok());
    EXPECT_EQ(*soft_len, len);
    EXPECT_EQ(*hard_len, len);
    EXPECT_EQ(a.bytes(), b.bytes());
    EXPECT_EQ(Bytes(b.storage.begin() + static_cast<std::ptrdiff_t>(offset),
                    b.storage.begin() + static_cast<std::ptrdiff_t>(offset + len)),
              pt);

    // Corrupted padding: flipping the top bit of the byte that lands on
    // the last plaintext byte makes the pad value > 16; a random flip
    // anywhere in the last block garbles it. Both kernels must fail (or
    // pass) alike, with the same text and the same decrypted bytes.
    for (int corruption = 0; corruption < 2; ++corruption) {
      Bytes bad_iv = iv;
      Bytes bad_ct = ct;
      if (corruption == 0) {
        (padded == kAesBlockSize ? bad_iv[15] : bad_ct[padded - kAesBlockSize - 1]) ^= 0x80;
      } else {
        bad_ct[padded - 1 - rng.uniform(0, kAesBlockSize - 1)] ^=
            static_cast<std::uint8_t>(rng.uniform(1, 255));
      }
      Unaligned c(bad_ct, offset, padded), d(bad_ct, offset, padded);
      auto soft_bad = aes128_cbc_decrypt_inplace(soft, bad_iv.data(), c.span());
      auto hard_bad = aes128_cbc_decrypt_inplace(hard, bad_iv.data(), d.span());
      ASSERT_EQ(soft_bad.ok(), hard_bad.ok()) << "corruption " << corruption;
      if (corruption == 0) {
        EXPECT_FALSE(hard_bad.ok());
      }
      if (soft_bad.ok()) {
        EXPECT_EQ(*soft_bad, *hard_bad);
      } else {
        EXPECT_EQ(soft_bad.error(), hard_bad.error());
      }
      EXPECT_EQ(c.bytes(), d.bytes());
    }

    // CTR, with nonces whose low 4, low 8 or all 16 bytes are 0xff.
    Bytes nonce = rng.bytes(16);
    static constexpr std::size_t kFfBytes[] = {0, 4, 8, 16};
    std::size_t ff = kFfBytes[n % 4];
    std::fill(nonce.end() - static_cast<std::ptrdiff_t>(ff), nonce.end(), 0xff);
    Unaligned e(pt, offset, len), f(pt, offset, len);
    aes128_ctr_inplace(soft, nonce.data(), e.span());
    aes128_ctr_inplace(hard, nonce.data(), f.span());
    ASSERT_EQ(to_hex(e.bytes()), to_hex(f.bytes())) << ff << " low 0xff nonce bytes";
  }
}

TEST(CryptoKernels, ShaNiMatchesPortableOverRandomChunkings) {
  if (!common::hardware_has_sha())
    GTEST_SKIP() << "no SHA-NI on this host: nothing to compare the portable kernel with";
  Rng rng(2013);
  // Feeds `msg` to `h` in random chunks of 0-300 B (each kernel gets its
  // own chunking), starting at an odd offset into the buffer.
  auto digest = [&](Sha256 h, ByteView msg) {
    for (std::size_t off = 0; off < msg.size();) {
      std::size_t n = std::min<std::size_t>(rng.uniform(0, 300), msg.size() - off);
      h.update(msg.subspan(off, n));
      off += n;
    }
    return h.finish();
  };
  for (int round = 0; round < 300; ++round) {
    std::size_t len = round < 130 ? static_cast<std::size_t>(round) : rng.uniform(0, 4096);
    Bytes storage = rng.bytes(len + 1 + round % 15);
    ByteView msg(storage.data() + 1 + round % 15, len);
    auto soft = digest(Sha256(ShaKernel::Portable), msg);
    EXPECT_EQ(soft, digest(Sha256(ShaKernel::ShaNi), msg)) << "length " << len;
    EXPECT_EQ(soft, digest(Sha256(ShaKernel::Portable), msg)) << "length " << len;

    // HMAC over the same message, with keys shorter and longer than a block.
    Bytes key = rng.bytes(rng.uniform(0, 200));
    EXPECT_EQ(HmacKey(key, ShaKernel::Portable).mac(msg),
              HmacKey(key, ShaKernel::ShaNi).mac(msg))
        << "key " << key.size() << " B, message " << len << " B";
  }
}

TEST(CryptoKernels, MultiChainCbcMatchesThePortableSingleChain) {
  Rng rng(2010);
  // 1-8 chains of unequal length (plaintexts of 0-130 whole blocks plus
  // a random tail), then runs of 9-20 that refill freed lanes. Each
  // chain sits at its own odd offset and ends at its allocation's end.
  for (int round = 0; round < 120; ++round) {
    std::size_t count = round < 96 ? 1 + round % 8 : rng.uniform(9, 20);
    auto key = make_aes_key(rng.bytes(16));
    Aes128 soft(key, AesKernel::Portable);
    std::vector<Bytes> ivs, plains;
    std::vector<Unaligned> want, got_soft, got_hard;
    for (std::size_t c = 0; c < count; ++c) {
      ivs.push_back(rng.bytes(16));
      plains.push_back(rng.bytes(rng.uniform(0, 130) * kAesBlockSize + rng.uniform(0, 15)));
      std::size_t padded = cbc_padded_size(plains.back().size());
      std::size_t offset = 1 + (round + c) % 15;
      want.emplace_back(plains.back(), offset, padded);
      got_soft.emplace_back(plains.back(), offset, padded);
      got_hard.emplace_back(plains.back(), offset, padded);
      aes128_cbc_encrypt_inplace(soft, ivs.back().data(), want.back().span(),
                                 plains.back().size());
    }
    auto encrypt = [&](AesKernel kernel, std::vector<Unaligned>& bufs) {
      std::vector<CbcChain> chains;
      for (std::size_t c = 0; c < count; ++c)
        chains.push_back({ivs[c].data(), bufs[c].span(), plains[c].size()});
      aes128_cbc_encrypt_chains(Aes128(key, kernel), chains);
      for (std::size_t c = 0; c < count; ++c)
        ASSERT_EQ(to_hex(bufs[c].bytes()), to_hex(want[c].bytes()))
            << "chain " << c << " of " << count << ", " << plains[c].size() << " B";
    };
    SCOPED_TRACE("round " + std::to_string(round));
    encrypt(AesKernel::Portable, got_soft);
    if (common::hardware_has_aes()) encrypt(AesKernel::AesNi, got_hard);
  }
  if (!common::hardware_has_aes())
    GTEST_SKIP() << "no AES-NI on this host: the multi-chain kernel is unchecked";
}

TEST(CryptoKernels, TwoStreamShaNiMatchesThePortableCompression) {
  Rng rng(2012);
  // Message pairs of random, unequal lengths from states that have
  // hashed a whole number of blocks (the two-stream case) or a partial
  // one (one after the other); each pair against portable
  // update() + finish(), and HMAC pairs against mac().
  for (int round = 0; round < 300; ++round) {
    std::size_t prefix = round % 3 == 0 ? 64 * rng.uniform(0, 2) : rng.uniform(0, 130);
    Bytes head = rng.bytes(prefix);
    Bytes a = rng.bytes(round < 130 ? static_cast<std::size_t>(round) : rng.uniform(0, 3000));
    Bytes b = rng.bytes(rng.uniform(0, 3000));
    auto portable = [&](ByteView msg) {
      Sha256 h(ShaKernel::Portable);
      h.update(head);
      h.update(msg);
      return h.finish();
    };
    auto pair_at = [&](ShaKernel kernel) {
      Sha256 h(kernel);
      h.update(head);
      return Sha256::finish_pair(h, a, h, b);
    };
    SCOPED_TRACE("prefix " + std::to_string(prefix) + ", lengths " +
                 std::to_string(a.size()) + " and " + std::to_string(b.size()));
    std::array<Sha256Digest, 2> want{portable(a), portable(b)};
    EXPECT_EQ(pair_at(ShaKernel::Portable), want);
    Bytes key = rng.bytes(rng.uniform(0, 100));
    std::array<Sha256Digest, 2> macs{HmacKey(key, ShaKernel::Portable).mac(a),
                                     HmacKey(key, ShaKernel::Portable).mac(b)};
    EXPECT_EQ(HmacKey(key, ShaKernel::Portable).mac_pair(a, b), macs);
    if (!common::hardware_has_sha()) continue;
    EXPECT_EQ(pair_at(ShaKernel::ShaNi), want);
    EXPECT_EQ(HmacKey(key, ShaKernel::ShaNi).mac_pair(a, b), macs);
  }
  if (!common::hardware_has_sha())
    GTEST_SKIP() << "no SHA-NI on this host: the two-stream kernel is unchecked";
}

// Every AES x SHA kernel pairing seals the same burst, in one process:
// a host (or CI runner) may have AES-NI without SHA-NI. 37 fragments
// fill two groups of the seal body and leave an odd tail, whose last
// MAC runs alone; each frame must match the byte-wise oracle.
struct KernelPairing {
  AesKernel aes;
  ShaKernel sha;
};

class SealKernelPairings : public ::testing::TestWithParam<KernelPairing> {};

TEST_P(SealKernelPairings, SealBurstMatchesTheOracle) {
  const KernelPairing pairing = GetParam();
  if (pairing.aes == AesKernel::AesNi && !common::hardware_has_aes())
    GTEST_SKIP() << "no AES-NI on this host: the hardware AES half is unchecked";
  if (pairing.sha == ShaKernel::ShaNi && !common::hardware_has_sha())
    GTEST_SKIP() << "no SHA-NI on this host: the hardware SHA half is unchecked";
  Rng rng(2018);
  vpn::SessionKeys keys(rng.bytes(16), rng.bytes(32));
  keys.aes_cache.emplace(make_aes_key(keys.enc_key), pairing.aes);
  keys.hmac_cache.emplace(keys.mac_key, pairing.sha);
  for (vpn::MsgType type : {vpn::MsgType::Data, vpn::MsgType::DataIntegrityOnly}) {
    std::vector<Bytes> payloads;
    for (std::size_t i = 0; i < 37; ++i) payloads.push_back(rng.bytes(rng.uniform(0, 1600)));
    std::vector<Bytes> frames(payloads.size());
    Rng iv_rng(5), ref_rng(5);
    vpn::SealRun run(keys, type, 0x0a0b0c0d, iv_rng);
    for (std::size_t i = 0; i < payloads.size(); ++i)
      run.add(vpn::FragmentHeader{i + 1, 3, 0, 1}, payloads[i], frames[i]);
    run.flush();
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      vpn::FragmentHeader frag{i + 1, 3, 0, 1};
      Bytes want{static_cast<std::uint8_t>(type), 0x0a, 0x0b, 0x0c, 0x0d};
      append(want, type == vpn::MsgType::Data
                       ? vpn::reference::seal_data_body(keys, frag, payloads[i], ref_rng)
                       : vpn::reference::seal_integrity_body(keys, frag, payloads[i]));
      ASSERT_EQ(to_hex(frames[i]), to_hex(want)) << "frame " << i << ", " << payloads[i].size() << " B";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AesSha, SealKernelPairings,
    ::testing::Values(KernelPairing{AesKernel::Portable, ShaKernel::Portable},
                      KernelPairing{AesKernel::AesNi, ShaKernel::Portable},
                      KernelPairing{AesKernel::Portable, ShaKernel::ShaNi},
                      KernelPairing{AesKernel::AesNi, ShaKernel::ShaNi}),
    [](const ::testing::TestParamInfo<KernelPairing>& info) {
      return std::string(info.param.aes == AesKernel::AesNi ? "AesNi" : "PortableAes") +
             (info.param.sha == ShaKernel::ShaNi ? "ShaNi" : "PortableSha");
    });

// ---- toy RSA -------------------------------------------------------------

TEST(Rsa, ModexpKnownValues) {
  EXPECT_EQ(modexp(2, 10, 1000000007), 1024u);
  EXPECT_EQ(modexp(7, 0, 13), 1u);
  EXPECT_EQ(modexp(5, 117, 19), 1u);  // 117 = 18*6+9 and 5^9 = 1 (mod 19)
  // Fermat: a^(p-1) = 1 mod p
  EXPECT_EQ(modexp(123456789, 1000000006, 1000000007), 1u);
}

TEST(Rsa, IsPrimeBasics) {
  EXPECT_FALSE(is_prime(0));
  EXPECT_FALSE(is_prime(1));
  EXPECT_TRUE(is_prime(2));
  EXPECT_TRUE(is_prime(3));
  EXPECT_FALSE(is_prime(4));
  EXPECT_TRUE(is_prime(2147483647));        // 2^31 - 1, Mersenne prime
  EXPECT_FALSE(is_prime(2147483647ull * 3));
  EXPECT_FALSE(is_prime(3215031751ull));    // strong pseudoprime to bases 2,3,5,7
}

TEST(Rsa, SignVerifyRoundTrip) {
  Rng rng(5);
  auto key = rsa_generate(rng);
  Bytes msg = to_bytes("attest me");
  Bytes sig = rsa_sign(key, msg);
  EXPECT_TRUE(rsa_verify(key.pub, msg, sig));
}

TEST(Rsa, VerifyRejectsTamperedMessageAndSignature) {
  Rng rng(6);
  auto key = rsa_generate(rng);
  Bytes msg = to_bytes("attest me");
  Bytes sig = rsa_sign(key, msg);
  EXPECT_FALSE(rsa_verify(key.pub, to_bytes("attest ME"), sig));
  Bytes bad = sig;
  bad[7] ^= 1;
  EXPECT_FALSE(rsa_verify(key.pub, msg, bad));
  EXPECT_FALSE(rsa_verify(key.pub, msg, Bytes{}));
}

TEST(Rsa, VerifyRejectsWrongKey) {
  Rng rng(7);
  auto k1 = rsa_generate(rng);
  auto k2 = rsa_generate(rng);
  Bytes msg = to_bytes("hello");
  EXPECT_FALSE(rsa_verify(k2.pub, msg, rsa_sign(k1, msg)));
}

TEST(Rsa, EncryptDecryptRoundTrip) {
  Rng rng(8);
  auto key = rsa_generate(rng);
  std::uint64_t secret = 0xdead1234;
  Bytes ct = rsa_encrypt(key.pub, secret);
  EXPECT_EQ(rsa_decrypt(key, ct), secret);
}

TEST(Rsa, PublicKeySerializeRoundTrip) {
  Rng rng(9);
  auto key = rsa_generate(rng);
  auto bytes = key.pub.serialize();
  EXPECT_EQ(RsaPublicKey::deserialize(bytes), key.pub);
}

TEST(Rsa, DistinctKeysFromDistinctSeeds) {
  Rng a(10), b(11);
  EXPECT_NE(rsa_generate(a).pub, rsa_generate(b).pub);
}

}  // namespace
}  // namespace endbox::crypto
