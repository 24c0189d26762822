// Session key derivation and data-channel seal/open.
//
// Both tunnel endpoints derive {enc, mac} keys from the handshake seed
// and nonces. Data bodies are encrypt-then-MAC (AES-128-CBC + HMAC) or,
// in the ISP scenario's integrity-only mode (section IV-A), plaintext +
// HMAC. Both modes authenticate the fragment header, so flagged QoS
// bytes and packet ids cannot be forged.
//
// Both endpoints seal through one body, SealRun: a run of one
// session's messages is written straight into the caller's frame
// buffers as complete wire messages (capacity reused, so the
// steady-state seal allocates nothing). Within a run the CBC chains of
// up to eight frames advance side by side and the MACs run in pairs —
// the multi-buffer technique (Gopal et al., Intel 2010; Gueron &
// Krasnov 2012), since one frame's CBC chain and HMAC are each serial.
// A single packet or ping is a run of one. Opening consumes the body,
// decrypts in place and hands the payload back inside the same buffer;
// callers that hold only a view copy it into a (pooled) buffer first,
// as both tunnel endpoints do.
//
// The session's AES key schedule and HMAC block states pick their
// kernels (AES-NI and SHA-NI, or the portable fallback, which seals a
// run frame by frame) once, when they are built, so no packet re-reads
// the dispatch.
#pragma once

#include <array>
#include <optional>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "crypto/aes.hpp"
#include "crypto/hmac.hpp"
#include "vpn/wire.hpp"

namespace endbox::vpn {

/// Fixed body geometry: [frag:16][iv:16][ct][mac:32] (encrypted) or
/// [frag:16][payload][mac:32] (integrity-only).
inline constexpr std::size_t kMacSize = 32;
inline constexpr std::size_t kFragHeaderSize = 16;  // 8 + 4 + 2 + 2

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

/// The one seal body of both tunnel endpoints. A run collects one
/// session's messages, each bound for a caller-owned frame, and seals
/// them a group at a time as complete wire messages
/// ([type][session_id][body]) straight into those frames. A Data run
/// draws every IV from `rng` in the order the messages were added,
/// before any interleaving, so the bytes equal sealing them one by one;
/// then the group's CBC chains run together
/// (crypto::aes128_cbc_encrypt_chains) and its MACs in pairs
/// (HmacKey::mac_pair).
/// Each MAC's label is hashed in place: it sits in the frame's
/// wire-header bytes until the MAC is written.
class SealRun {
 public:
  /// `type` is Data, DataIntegrityOnly or Ping; `keys` and `rng` must
  /// outlive the run.
  SealRun(const SessionKeys& keys, MsgType type, std::uint32_t session_id, Rng& rng)
      : keys_(keys), type_(type), session_id_(session_id), rng_(rng) {}
  SealRun(const SealRun&) = delete;
  SealRun& operator=(const SealRun&) = delete;

  /// Queues a data fragment; `payload` must stay valid until it is
  /// sealed.
  void add(const FragmentHeader& frag, ByteView payload, Bytes& frame);
  /// Queues a ping (its 16 fields are the body).
  void add(const PingInfo& info, Bytes& frame);
  /// Seals every queued message. A full group seals on its own; call
  /// flush() after the last add().
  void flush();

 private:
  static constexpr std::size_t kGroup = 16;
  struct Item {
    std::array<std::uint8_t, kFragHeaderSize> head;  ///< fragment header or ping fields
    ByteView payload;
    Bytes* frame;
  };
  void push(ByteView payload, Bytes& frame);

  const SessionKeys& keys_;
  MsgType type_;
  std::uint32_t session_id_;
  Rng& rng_;
  std::size_t count_ = 0;
  std::array<Item, kGroup> items_;
};

Result<PingInfo> open_ping_body(const SessionKeys& keys, ByteView body);

}  // namespace endbox::vpn
