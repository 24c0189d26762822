// VPN client session (the tunnel endpoint that EndBox moves inside the
// enclave). Mechanism only: the EndBox client wraps every call here in
// an ecall and charges the perf model; this class implements the
// protocol state machine.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ca/certificate.hpp"
#include "common/rng.hpp"
#include "common/wire_buffer.hpp"
#include "vpn/fragment.hpp"
#include "vpn/replay.hpp"
#include "vpn/session_crypto.hpp"
#include "vpn/wire.hpp"

namespace endbox::vpn {

struct VpnClientConfig {
  bool encrypt_data = true;   ///< false = ISP integrity-only mode (section IV-A)
  std::size_t mtu = 9000;     ///< tunnel MTU for fragmentation
  std::uint32_t config_version = 1;  ///< middlebox config currently applied
};

class VpnClientSession {
 public:
  /// `certificate` and `enclave_key` come from the provisioning flow
  /// (unattested clients have no certificate and cannot connect);
  /// `server_key` is the pinned VPN server public key.
  VpnClientSession(Rng& rng, ca::Certificate certificate,
                   crypto::RsaKeyPair enclave_key,
                   crypto::RsaPublicKey server_key, VpnClientConfig config = {});

  // ---- Handshake -----------------------------------------------------
  WireMessage create_handshake_init(std::uint16_t proposed_version = kVersionTls13);
  Status process_handshake_reply(const WireMessage& reply);
  bool established() const { return keys_.has_value(); }
  std::uint32_t session_id() const { return session_id_; }

  // ---- Data path -------------------------------------------------------
  /// Seals a burst of IP packets (each fragmented at the MTU) as one run
  /// of the seal body (vpn::SealRun) into complete wire frames
  /// ([type][session_id][sealed body]) at `frames[at..]`, packet after
  /// packet: `frames` grows once, up front, when the burst needs more
  /// slots, and existing slots' capacity is reused, so steady-state
  /// calls allocate nothing. The bytes equal sealing the packets one by
  /// one. Returns the index one past the last frame written, so callers
  /// chain bursts. Throws if not established.
  std::size_t seal_packets_wire_at(std::span<const Bytes> ip_packets,
                                   std::vector<Bytes>& frames, std::size_t at);
  /// A burst of one:
  /// `n = seal_packet_wire_at(p0, frames, 0); n = seal_packet_wire_at(p1, frames, n);`
  std::size_t seal_packet_wire_at(ByteView ip_packet, std::vector<Bytes>& frames,
                                  std::size_t at);
  /// Opens a complete data frame ([type][session_id][body]) from the
  /// server; returns the reassembled IP packet when a fragment group
  /// completes, nullopt while pending. The body is copied into
  /// `body_scratch` (capacity reused) and decrypted in place, and the
  /// returned payload occupies that same buffer — recycle it through a
  /// pool and the steady-state open allocates nothing. A rejected frame
  /// returns the scratch to the set_buffer_pool() pool.
  Result<std::optional<Bytes>> open_data_frame(ByteView frame, Bytes&& body_scratch);

  // ---- Control channel --------------------------------------------------
  /// Seals a ping into a complete wire frame as a run of one of the
  /// seal body; reusing `frame` makes the control path allocation-free
  /// in steady state. Throws if not established.
  void create_ping_wire(Bytes& frame);
  Result<PingInfo> process_ping(const WireMessage& msg);

  void set_config_version(std::uint32_t version) { config_.config_version = version; }
  std::uint32_t config_version() const { return config_.config_version; }
  bool encrypt_data() const { return config_.encrypt_data; }

  /// Attaches the buffer pool the open path recycles through: fragment
  /// reassembly's part buffers and wholes, and the body scratch of every
  /// frame open_data_frame rejects — multi-fragment ingress stays
  /// allocation-free and a bad-frame flood cannot drain the pool. The
  /// pool must outlive the session.
  void set_buffer_pool(net::PacketPool* pool) {
    pool_ = pool;
    reassembler_.set_pool(pool);
  }

  // ---- Stats ---------------------------------------------------------
  std::uint64_t packets_sealed() const { return packets_sealed_; }
  std::uint64_t packets_opened() const { return packets_opened_; }
  std::uint64_t auth_failures() const { return auth_failures_; }
  std::uint64_t replays_rejected() const { return replay_.replays_rejected(); }
  std::uint16_t negotiated_version() const { return negotiated_version_; }

 private:
  /// The body of both seal entry points; `packets` holds ByteViews or
  /// Bytes.
  template <typename Packets>
  std::size_t seal_run(const Packets& packets, std::vector<Bytes>& frames,
                       std::size_t at);
  /// Returns a rejected frame's buffer to the attached pool.
  void recycle(Bytes&& buffer) {
    if (pool_) pool_->release_bytes(std::move(buffer));
  }

  Rng& rng_;
  ca::Certificate certificate_;
  crypto::RsaKeyPair enclave_key_;
  crypto::RsaPublicKey server_key_;
  VpnClientConfig config_;

  std::optional<Bytes> client_nonce_;
  std::optional<SessionKeys> keys_;
  std::uint32_t session_id_ = 0;
  std::uint16_t proposed_version_ = kVersionTls13;
  std::uint16_t negotiated_version_ = 0;

  std::uint64_t next_packet_id_ = 1;
  std::uint32_t next_frag_id_ = 1;
  std::uint64_t next_ping_seq_ = 1;
  ReplayWindow replay_;
  Reassembler reassembler_;
  net::PacketPool* pool_ = nullptr;  ///< set_buffer_pool(); may be null
  /// Unused since the seal body writes straight into the caller's
  /// frames. Kept so that the session's size and the allocation its
  /// construction makes stay as they were: bench_e2e's setup_s reads
  /// glibc's heap trimming, and without this member (and its twin in
  /// VpnServer::Session) stream_split's setup_s doubled (CHANGES.md).
  WireBuffer seal_scratch_;

  std::uint64_t packets_sealed_ = 0;
  std::uint64_t packets_opened_ = 0;
  std::uint64_t auth_failures_ = 0;
};

}  // namespace endbox::vpn
