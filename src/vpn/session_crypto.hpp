// Session key derivation and data-channel seal/open.
//
// Both tunnel endpoints derive {enc, mac} keys from the handshake seed
// and nonces. Data bodies are encrypt-then-MAC (AES-128-CBC + HMAC) or,
// in the ISP scenario's integrity-only mode (section IV-A), plaintext +
// HMAC. Both modes authenticate the fragment header, so flagged QoS
// bytes and packet ids cannot be forged.
//
// The seal/open fast path is allocation-free in steady state: sealing
// writes into a caller-provided reusable WireBuffer (payload encrypted
// in place, headers prepended into headroom, MAC computed incrementally
// from the session's precomputed HMAC state), and opening consumes the
// body, decrypts in place and hands the payload back inside the same
// buffer. Callers that hold only a view copy it into a (pooled) buffer
// first, as both tunnel endpoints do.
//
// The session's AES key schedule and HMAC block states pick their
// kernels (AES-NI and SHA-NI, or the portable fallback) once, when they
// are built, so no packet re-reads the dispatch. With AES-NI a seal
// costs about 1.6x an open: CBC encryption is one serial chain, while
// the open's CBC decryption runs four blocks at a time.
#pragma once

#include <optional>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/wire_buffer.hpp"
#include "crypto/aes.hpp"
#include "crypto/hmac.hpp"
#include "vpn/wire.hpp"

namespace endbox::vpn {

/// Fixed body geometry: [frag:16][iv:16][ct][mac:32] (encrypted) or
/// [frag:16][payload][mac:32] (integrity-only).
inline constexpr std::size_t kMacSize = 32;
inline constexpr std::size_t kFragHeaderSize = 16;  // 8 + 4 + 2 + 2
/// Headroom a WireBuffer needs for seal_*_body plus a prepended
/// 5-byte wire-message header.
inline constexpr std::size_t kSealHeadroom = 5 + kFragHeaderSize + 16;

struct SessionKeys {
  SessionKeys() = default;
  SessionKeys(Bytes enc, Bytes mac)
      : enc_key(std::move(enc)), mac_key(std::move(mac)) {}

  Bytes enc_key;  ///< 16 bytes
  Bytes mac_key;  ///< 32 bytes

  /// Per-session crypto state, derived from the key bytes on first use
  /// (eagerly by derive_vpn_keys): the AES key schedule and the HMAC
  /// ipad/opad block states are computed once instead of per packet.
  const crypto::Aes128& aes() const;
  const crypto::HmacKey& hmac() const;

  // Lazily-built caches for the accessors above; cleared copies are
  // rebuilt on demand, and tests that aggregate-initialise the key
  // bytes get them transparently.
  mutable std::optional<crypto::Aes128> aes_cache;
  mutable std::optional<crypto::HmacKey> hmac_cache;
};

/// Derives direction-shared session keys from the handshake material.
SessionKeys derive_vpn_keys(std::uint64_t seed, ByteView client_nonce,
                            ByteView server_nonce);

/// Seals a Data (encrypted) body into `out` (reset with kSealHeadroom;
/// steady-state reuse of the same buffer performs no heap allocation).
void seal_data_body(const SessionKeys& keys, const FragmentHeader& frag,
                    ByteView payload, Rng& rng, WireBuffer& out);
/// Seals a DataIntegrityOnly body into `out`.
void seal_integrity_body(const SessionKeys& keys, const FragmentHeader& frag,
                         ByteView payload, WireBuffer& out);

struct OpenedBody {
  FragmentHeader frag;
  Bytes payload;
};

/// Verifies and decrypts a Data body, consuming `body`: decryption
/// happens in place and the payload is moved out of the authenticated
/// prefix, so the steady-state open performs no heap allocation.
Result<OpenedBody> open_data_body(const SessionKeys& keys, Bytes&& body);
/// Verifies a DataIntegrityOnly body, consuming `body` (payload moved
/// out of the authenticated prefix, no copy).
Result<OpenedBody> open_integrity_body(const SessionKeys& keys, Bytes&& body);

/// Prepends the wire header ([type][session_id]) into the headroom a
/// seal left in `out`, so `out.view()` is a complete frame without
/// assembly copies.
inline void prepend_wire_header(WireBuffer& out, MsgType type,
                                std::uint32_t session_id) {
  std::uint8_t* header = out.prepend(kWireHeaderSize);
  header[0] = static_cast<std::uint8_t>(type);
  put_u32(header + 1, session_id);
}

/// Seals a ping body (control channel) into `out` (reset with
/// kSealHeadroom so a wire header can be prepended); steady-state reuse
/// allocates nothing.
void seal_ping_body(const SessionKeys& keys, const PingInfo& info,
                    WireBuffer& out);
Result<PingInfo> open_ping_body(const SessionKeys& keys, ByteView body);

}  // namespace endbox::vpn
