// HMAC-SHA-256 (RFC 2104) and HKDF-style key derivation. The VPN data
// channel, config-file signing and the enclave sealing format all
// authenticate with HMAC-SHA-256.
#pragma once

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace endbox::crypto {

/// Reusable HMAC-SHA-256 key: the ipad/opad block states are hashed
/// once at construction, so each MAC afterwards costs only the data
/// blocks plus one finalisation — per-session instead of per-packet key
/// processing on the VPN data path. Copy/assignment are cheap (a few
/// hundred bytes of midstate, no heap).
class HmacKey {
 public:
  HmacKey() = default;
  /// `kernel` compresses the key and every MAC begun from it.
  explicit HmacKey(ByteView key,
                   Sha256::Kernel kernel = Sha256::default_kernel());

  /// Incremental MAC seeded from the precomputed states. All state
  /// lives on the stack; update() accepts any chunking of the input.
  class Mac {
   public:
    void update(ByteView data) { inner_.update(data); }
    Sha256Digest finish();

   private:
    friend class HmacKey;
    Mac(const Sha256& inner, const Sha256& outer) : inner_(inner), outer_(outer) {}
    Sha256 inner_;
    Sha256 outer_;
  };

  Mac begin() const { return Mac(inner_, outer_); }

  /// One-shot MAC over a single span (no allocation).
  Sha256Digest mac(ByteView data) const;

  /// Constant-time verification against an expected MAC.
  bool verify(ByteView data, ByteView mac) const;

 private:
  Sha256 inner_;  ///< state after hashing key ^ ipad
  Sha256 outer_;  ///< state after hashing key ^ opad
};

/// Computes HMAC-SHA-256 over `data` with `key` (any key length).
Bytes hmac_sha256(ByteView key, ByteView data);

/// True when `mac` equals HMAC(key, data), compared in constant time.
bool hmac_verify(ByteView key, ByteView data, ByteView mac);

/// Simple HKDF-expand style derivation: HMAC(key, label || 0x01),
/// truncated/expanded to `length` bytes by counter-mode re-hashing.
Bytes derive_key(ByteView key, std::string_view label, std::size_t length);

}  // namespace endbox::crypto
