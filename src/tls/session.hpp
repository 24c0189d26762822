// Simplified TLS: handshake + record layer.
//
// EndBox's encrypted-traffic analysis (section III-D) does not rely on
// TLS internals — it relies on the *session keys* being forwarded from
// the client's (untrusted) TLS library into the enclave, where a Click
// element decrypts application records transparently. This module
// provides a structurally-faithful miniature TLS:
//
//   ClientHello{client_random, max_version}
//   ServerHello{server_random, chosen_version}
//   key = HKDF(pre_master, client_random || server_random)
//   record := [type:1][version:2][seq:8][len:2][ciphertext][mac:16]
//
// with AES-128-CTR encryption and truncated HMAC-SHA-256 integrity.
// The "custom OpenSSL" hook of the paper maps to the key-export
// callback on TlsClient: one call that forwards the negotiated keys.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"

namespace endbox::tls {

enum class TlsVersion : std::uint16_t {
  Tls10 = 0x0301,
  Tls11 = 0x0302,
  Tls12 = 0x0303,
  Tls13 = 0x0304,
};

std::string version_name(TlsVersion v);

/// Keys for one direction-symmetric session (simplified: both
/// directions share keys but use disjoint sequence spaces).
struct SessionKeys {
  Bytes enc_key;   ///< 16 bytes (AES-128)
  Bytes mac_key;   ///< 32 bytes
  std::uint64_t session_id = 0;

  bool operator==(const SessionKeys&) const = default;
};

struct ClientHello {
  Bytes client_random;      ///< 32 bytes
  TlsVersion max_version = TlsVersion::Tls13;
};

struct ServerHello {
  Bytes server_random;      ///< 32 bytes
  TlsVersion chosen_version = TlsVersion::Tls13;
  std::uint64_t session_id = 0;
};

/// Derives session keys from the pre-master secret and both randoms.
SessionKeys derive_session_keys(ByteView pre_master, const ClientHello& ch,
                                const ServerHello& sh, std::uint64_t session_id);

/// One encrypted application-data record.
struct TlsRecord {
  std::uint8_t content_type = 23;  ///< 23 = application data
  TlsVersion version = TlsVersion::Tls13;
  std::uint64_t sequence = 0;
  Bytes ciphertext;
  Bytes mac;  ///< 16-byte truncated HMAC

  Bytes serialize() const;
  static Result<TlsRecord> parse(ByteView wire);
};

/// Encrypts one application record with `keys` at sequence `seq`.
TlsRecord seal_record(const SessionKeys& keys, std::uint64_t seq,
                      ByteView plaintext, TlsVersion version);

/// Verifies and decrypts; fails on MAC mismatch or truncation.
Result<Bytes> open_record(const SessionKeys& keys, const TlsRecord& record);

/// A TLS client endpoint with the paper's key-forwarding hook: when the
/// handshake completes, `key_export` (if set) receives the negotiated
/// session keys — this models the one-line OpenSSL modification that
/// forwards keys to the enclave via the management interface.
class TlsClient {
 public:
  using KeyExportHook = std::function<void(const SessionKeys&)>;

  explicit TlsClient(Rng& rng, TlsVersion max_version = TlsVersion::Tls13)
      : rng_(rng), max_version_(max_version) {}

  void set_key_export_hook(KeyExportHook hook) { key_export_ = std::move(hook); }

  ClientHello start_handshake();
  /// Completes the handshake given the server's reply; rejects a server
  /// that "chose" a version above what we offered.
  Status finish_handshake(const ServerHello& server_hello, ByteView pre_master);

  bool established() const { return keys_.has_value(); }
  const SessionKeys& keys() const { return *keys_; }
  TlsVersion negotiated_version() const { return negotiated_version_; }

  /// Encrypts application data as the next record.
  TlsRecord send(ByteView plaintext);
  /// Decrypts a record from the server.
  Result<Bytes> receive(const TlsRecord& record);

 private:
  Rng& rng_;
  TlsVersion max_version_;
  std::optional<ClientHello> hello_;
  std::optional<SessionKeys> keys_;
  TlsVersion negotiated_version_ = TlsVersion::Tls13;
  std::uint64_t send_seq_ = 0;
  KeyExportHook key_export_;
};

/// A TLS server endpoint (the web servers in the evaluation).
class TlsServer {
 public:
  explicit TlsServer(Rng& rng) : rng_(rng) {}

  /// Responds to a ClientHello, negotiating the highest mutual version;
  /// fails when the client's maximum is below TLS 1.2 (server-side
  /// downgrade protection).
  Result<ServerHello> accept(const ClientHello& client_hello, ByteView pre_master);

  bool established() const { return keys_.has_value(); }
  const SessionKeys& keys() const { return *keys_; }

  TlsRecord send(ByteView plaintext);
  Result<Bytes> receive(const TlsRecord& record);

 private:
  Rng& rng_;
  std::optional<SessionKeys> keys_;
  TlsVersion negotiated_version_ = TlsVersion::Tls13;
  std::uint64_t send_seq_ = 1'000'000'000;  ///< disjoint from client seqs
  std::uint64_t next_session_id_ = 1;
};

}  // namespace endbox::tls
