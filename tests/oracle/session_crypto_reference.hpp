// Test oracle: the pre-optimisation data-channel seal/open (the first
// implementation, verbatim): one Bytes allocation per field plus a full
// body copy inside the MAC, per-call HMAC key processing, and the
// byte-wise AES (SubBytes/ShiftRows/MixColumns on a byte array, key
// schedule re-expanded every call). Header-only and outside the production
// library: property tests assert wire-format equivalence against it
// and bench_micro prices the optimised fast path against it. The MAC
// runs on the portable SHA-256 whatever the host has, so a sweep of the
// production seal (SHA-NI where available) never checks a kernel
// against itself.
#pragma once

#include <array>
#include <cstring>
#include <string_view>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "crypto/aes.hpp"
#include "crypto/hmac.hpp"
#include "vpn/session_crypto.hpp"

namespace endbox::vpn::reference {

namespace detail {

// ---- Byte-wise AES-128 (the original crypto layer) ----

constexpr std::array<std::uint8_t, 256> make_sbox() {
  std::array<std::uint8_t, 256> sbox{};
  std::array<std::uint8_t, 256> log{}, alog{};
  std::uint8_t x = 1;
  for (int i = 0; i < 255; ++i) {
    alog[i] = x;
    log[x] = static_cast<std::uint8_t>(i);
    std::uint8_t x2 = static_cast<std::uint8_t>((x << 1) ^ ((x & 0x80) ? 0x1b : 0));
    x = static_cast<std::uint8_t>(x ^ x2);
  }
  for (int i = 0; i < 256; ++i) {
    std::uint8_t inv =
        (i == 0) ? 0 : alog[(255 - log[static_cast<std::uint8_t>(i)]) % 255];
    std::uint8_t s = inv;
    std::uint8_t r = inv;
    for (int j = 0; j < 4; ++j) {
      r = static_cast<std::uint8_t>((r << 1) | (r >> 7));
      s ^= r;
    }
    sbox[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(s ^ 0x63);
  }
  return sbox;
}

inline constexpr std::array<std::uint8_t, 256> kSbox = make_sbox();

constexpr std::array<std::uint8_t, 256> make_inv_sbox() {
  std::array<std::uint8_t, 256> inv{};
  for (int i = 0; i < 256; ++i)
    inv[kSbox[static_cast<std::size_t>(i)]] = static_cast<std::uint8_t>(i);
  return inv;
}

inline constexpr std::array<std::uint8_t, 256> kInvSbox = make_inv_sbox();

inline std::uint8_t xtime(std::uint8_t a) {
  return static_cast<std::uint8_t>((a << 1) ^ ((a & 0x80) ? 0x1b : 0));
}

template <std::uint8_t C>
constexpr std::array<std::uint8_t, 256> make_gmul_table() {
  std::array<std::uint8_t, 256> table{};
  for (int i = 0; i < 256; ++i) {
    std::uint8_t a = static_cast<std::uint8_t>(i), b = C, r = 0;
    while (b) {
      if (b & 1) r ^= a;
      a = static_cast<std::uint8_t>((a << 1) ^ ((a & 0x80) ? 0x1b : 0));
      b >>= 1;
    }
    table[static_cast<std::size_t>(i)] = r;
  }
  return table;
}
inline constexpr auto kMul9 = make_gmul_table<9>();
inline constexpr auto kMul11 = make_gmul_table<11>();
inline constexpr auto kMul13 = make_gmul_table<13>();
inline constexpr auto kMul14 = make_gmul_table<14>();

class RefAes128 {
 public:
  explicit RefAes128(const crypto::AesKey& key) {
    std::memcpy(round_keys_.data(), key.data(), 16);
    std::uint8_t rcon = 1;
    for (int i = 16; i < 176; i += 4) {
      std::uint8_t temp[4];
      std::memcpy(temp, round_keys_.data() + i - 4, 4);
      if (i % 16 == 0) {
        std::uint8_t t = temp[0];
        temp[0] = static_cast<std::uint8_t>(kSbox[temp[1]] ^ rcon);
        temp[1] = kSbox[temp[2]];
        temp[2] = kSbox[temp[3]];
        temp[3] = kSbox[t];
        rcon = xtime(rcon);
      }
      for (int j = 0; j < 4; ++j) {
        round_keys_[static_cast<std::size_t>(i + j)] =
            round_keys_[static_cast<std::size_t>(i + j - 16)] ^ temp[j];
      }
    }
  }

  void encrypt_block(const std::uint8_t* in, std::uint8_t* out) const {
    std::uint8_t s[16];
    for (int i = 0; i < 16; ++i)
      s[i] = in[i] ^ round_keys_[static_cast<std::size_t>(i)];
    for (int round = 1; round <= 10; ++round) {
      for (auto& b : s) b = kSbox[b];
      std::uint8_t t[16];
      for (int col = 0; col < 4; ++col)
        for (int row = 0; row < 4; ++row)
          t[col * 4 + row] = s[((col + row) % 4) * 4 + row];
      std::memcpy(s, t, 16);
      if (round != 10) {
        for (int col = 0; col < 4; ++col) {
          std::uint8_t* c = s + col * 4;
          std::uint8_t a0 = c[0], a1 = c[1], a2 = c[2], a3 = c[3];
          c[0] = static_cast<std::uint8_t>(xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3);
          c[1] = static_cast<std::uint8_t>(a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3);
          c[2] = static_cast<std::uint8_t>(a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3));
          c[3] = static_cast<std::uint8_t>((xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3));
        }
      }
      for (int i = 0; i < 16; ++i)
        s[i] ^= round_keys_[static_cast<std::size_t>(round * 16 + i)];
    }
    std::memcpy(out, s, 16);
  }

  void decrypt_block(const std::uint8_t* in, std::uint8_t* out) const {
    std::uint8_t s[16];
    for (int i = 0; i < 16; ++i)
      s[i] = in[i] ^ round_keys_[static_cast<std::size_t>(160 + i)];
    for (int round = 9; round >= 0; --round) {
      std::uint8_t t[16];
      for (int col = 0; col < 4; ++col)
        for (int row = 0; row < 4; ++row)
          t[((col + row) % 4) * 4 + row] = s[col * 4 + row];
      std::memcpy(s, t, 16);
      for (auto& b : s) b = kInvSbox[b];
      for (int i = 0; i < 16; ++i)
        s[i] ^= round_keys_[static_cast<std::size_t>(round * 16 + i)];
      if (round != 0) {
        for (int col = 0; col < 4; ++col) {
          std::uint8_t* c = s + col * 4;
          std::uint8_t a0 = c[0], a1 = c[1], a2 = c[2], a3 = c[3];
          c[0] = static_cast<std::uint8_t>(kMul14[a0] ^ kMul11[a1] ^ kMul13[a2] ^ kMul9[a3]);
          c[1] = static_cast<std::uint8_t>(kMul9[a0] ^ kMul14[a1] ^ kMul11[a2] ^ kMul13[a3]);
          c[2] = static_cast<std::uint8_t>(kMul13[a0] ^ kMul9[a1] ^ kMul14[a2] ^ kMul11[a3]);
          c[3] = static_cast<std::uint8_t>(kMul11[a0] ^ kMul13[a1] ^ kMul9[a2] ^ kMul14[a3]);
        }
      }
    }
    std::memcpy(out, s, 16);
  }

 private:
  std::array<std::uint8_t, 176> round_keys_;
};

inline Bytes ref_cbc_encrypt(const crypto::AesKey& key, ByteView iv, ByteView plaintext) {
  RefAes128 aes(key);  // key schedule re-expanded per call, as originally
  std::size_t pad = crypto::kAesBlockSize - plaintext.size() % crypto::kAesBlockSize;
  Bytes padded(plaintext.begin(), plaintext.end());
  padded.insert(padded.end(), pad, static_cast<std::uint8_t>(pad));

  Bytes out(padded.size());
  std::uint8_t prev[crypto::kAesBlockSize];
  std::memcpy(prev, iv.data(), crypto::kAesBlockSize);
  for (std::size_t off = 0; off < padded.size(); off += crypto::kAesBlockSize) {
    std::uint8_t block[crypto::kAesBlockSize];
    for (std::size_t i = 0; i < crypto::kAesBlockSize; ++i)
      block[i] = padded[off + i] ^ prev[i];
    aes.encrypt_block(block, out.data() + off);
    std::memcpy(prev, out.data() + off, crypto::kAesBlockSize);
  }
  return out;
}

inline Result<Bytes> ref_cbc_decrypt(const crypto::AesKey& key, ByteView iv,
                              ByteView ciphertext) {
  if (ciphertext.empty() || ciphertext.size() % crypto::kAesBlockSize != 0)
    return err("CBC ciphertext must be a positive multiple of 16 bytes");
  RefAes128 aes(key);
  Bytes out(ciphertext.size());
  std::uint8_t prev[crypto::kAesBlockSize];
  std::memcpy(prev, iv.data(), crypto::kAesBlockSize);
  for (std::size_t off = 0; off < ciphertext.size(); off += crypto::kAesBlockSize) {
    std::uint8_t block[crypto::kAesBlockSize];
    aes.decrypt_block(ciphertext.data() + off, block);
    for (std::size_t i = 0; i < crypto::kAesBlockSize; ++i)
      out[off + i] = block[i] ^ prev[i];
    std::memcpy(prev, ciphertext.data() + off, crypto::kAesBlockSize);
  }
  std::uint8_t pad = out.back();
  if (pad == 0 || pad > crypto::kAesBlockSize || pad > out.size())
    return err("bad CBC padding");
  for (std::size_t i = out.size() - pad; i < out.size(); ++i)
    if (out[i] != pad) return err("bad CBC padding");
  out.resize(out.size() - pad);
  return out;
}

// ---- Original seal/open wire logic ----

inline Bytes frag_bytes(const FragmentHeader& frag) {
  Bytes out;
  put_u64(out, frag.packet_id);
  put_u32(out, frag.frag_id);
  put_u16(out, frag.index);
  put_u16(out, frag.count);
  return out;
}

inline FragmentHeader read_frag(ByteReader& r) {
  FragmentHeader frag;
  frag.packet_id = r.u64();
  frag.frag_id = r.u32();
  frag.index = r.u16();
  frag.count = r.u16();
  return frag;
}

inline Bytes mac_over(const SessionKeys& keys, std::string_view label, ByteView data) {
  Bytes input = to_bytes(label);
  append(input, data);
  auto mac = crypto::HmacKey(keys.mac_key, crypto::Sha256::Kernel::Portable).mac(input);
  return Bytes(mac.begin(), mac.end());
}

}  // namespace detail

inline Bytes seal_data_body(const SessionKeys& keys, const FragmentHeader& frag,
                     ByteView payload, Rng& rng) {
  Bytes body = detail::frag_bytes(frag);
  Bytes iv = rng.bytes(16);
  append(body, iv);
  append(body, detail::ref_cbc_encrypt(crypto::make_aes_key(keys.enc_key), iv, payload));
  append(body, detail::mac_over(keys, "data", body));
  return body;
}

inline Bytes seal_integrity_body(const SessionKeys& keys, const FragmentHeader& frag,
                          ByteView payload) {
  Bytes body = detail::frag_bytes(frag);
  append(body, payload);
  append(body, detail::mac_over(keys, "integ", body));
  return body;
}

inline Result<OpenedBody> open_data_body(const SessionKeys& keys, ByteView body) {
  if (body.size() < kFragHeaderSize + 16 + kMacSize)
    return err("data body: too short");
  std::size_t authed_len = body.size() - kMacSize;
  if (!ct_equal(detail::mac_over(keys, "data", body.subspan(0, authed_len)),
                body.subspan(authed_len)))
    return err("data body: MAC verification failed");

  ByteReader r(body.subspan(0, authed_len));
  OpenedBody opened;
  opened.frag = detail::read_frag(r);
  Bytes iv = r.take(16);
  auto plaintext =
      detail::ref_cbc_decrypt(crypto::make_aes_key(keys.enc_key), iv, r.rest());
  if (!plaintext.ok()) return err("data body: " + plaintext.error());
  opened.payload = std::move(*plaintext);
  return opened;
}

inline Result<OpenedBody> open_integrity_body(const SessionKeys& keys, ByteView body) {
  if (body.size() < kFragHeaderSize + kMacSize)
    return err("integrity body: too short");
  std::size_t authed_len = body.size() - kMacSize;
  if (!ct_equal(detail::mac_over(keys, "integ", body.subspan(0, authed_len)),
                body.subspan(authed_len)))
    return err("integrity body: MAC verification failed");
  ByteReader r(body.subspan(0, authed_len));
  OpenedBody opened;
  opened.frag = detail::read_frag(r);
  opened.payload = r.rest();
  return opened;
}

}  // namespace endbox::vpn::reference
