// The EndBox enclave: everything inside the green box of Fig 3.
//
// Trusted state: the enclave key pair, the CA-issued certificate, the
// pre-shared config key, the VPN session (keys never leave), the Click
// router with the middlebox configuration, and the TLS session-key
// store. Every entry point is an ecall guarded for lifecycle and
// counted for the perf model; input validation on each ecall mirrors
// the paper's hardened interface (section IV-B).
//
// The data path is one shape: the graph runs on a ShardedRouter of N
// flow-hashed lanes (one lane by default — the case N = 1, not a
// separate path), and the two data ecalls each take a burst and push
// it through once. A single packet or frame is a burst of one.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ca/authority.hpp"
#include "click/packet_batch.hpp"
#include "click/sharded_router.hpp"
#include "config/bundle.hpp"
#include "elements/context.hpp"
#include "net/packet_pool.hpp"
#include "sgx/enclave.hpp"
#include "tls/keystore.hpp"
#include "vpn/client.hpp"

namespace endbox {

/// Code identity string of the canonical EndBox enclave build. The CA
/// allow-lists its measurement.
inline constexpr std::string_view kEndBoxEnclaveIdentity = "endbox-enclave-v1.0";

/// Result of one egress batch ecall. The caller owns the struct and
/// passes it back every burst: frame buffers keep their capacity, so
/// the steady-state batch path writes sealed frames without allocating.
/// Note: the data path seals one frame set per accepted ToDevice
/// delivery, so a config whose Tee branches both reach ToDevice seals a
/// packet once per delivery; no standard EndBox configuration wires
/// such a graph.
struct EgressBatch {
  std::uint32_t accepted = 0;
  std::uint32_t rejected = 0;
  std::size_t frame_count = 0;  ///< valid prefix of `frames`
  std::vector<Bytes> frames;    ///< sealed wire frames, reused across calls
};

/// Result of one ingress batch ecall. Accepted packets come back in a
/// PacketBatch backed by pool buffers; the caller releases them to
/// packet_pool() (or keeps them) before the next call.
struct IngressBatch {
  std::uint32_t complete = 0;   ///< reassembled packets (incl. rejected)
  std::uint32_t accepted = 0;
  std::uint32_t rejected = 0;
  std::uint32_t bypassed = 0;   ///< skipped Click via the peer's QoS flag
  /// Frames refused before Click: pings on the data path, frames that
  /// fail to open (header, MAC, replay) and packets that do not parse.
  std::uint32_t dropped = 0;
  click::PacketBatch packets;   ///< delivered (accepted) packets, in order
};

struct EnclaveOptions {
  bool encrypt_data = true;  ///< false = ISP integrity-only mode
  bool c2c_flagging = true;  ///< set/honour the QoS 0xeb flag
  std::size_t mtu = 9000;
  /// Element-graph lanes the middlebox functions run on (RSS flow
  /// sharding, one worker thread per busy lane beyond the caller — SGX
  /// enclaves are multi-threaded via multiple TCSs). One lane is the
  /// single-core case of the same path: its burst runs inline.
  std::size_t shards = 1;
};

class EndBoxEnclave : public sgx::Enclave {
 public:
  using Options = EnclaveOptions;

  EndBoxEnclave(sgx::SgxPlatform& platform, sgx::SgxMode mode,
                crypto::RsaPublicKey ca_public_key, Rng& rng,
                Options options = EnclaveOptions{});

  // ---- Attestation & provisioning (Fig 4) ---------------------------
  /// Step 1: key pair generated inside; the private key never leaves.
  const crypto::RsaPublicKey& ecall_public_key();
  /// Step 2: report binding the public key, for the Quoting Enclave.
  sgx::Report ecall_create_report();
  /// Steps 6-7: verify the certificate against the pre-deployed CA key,
  /// decrypt the config key, seal the credentials.
  Status ecall_store_provisioning(const ca::ProvisioningResponse& response);
  bool provisioned() const { return certificate_.has_value(); }
  /// Sealed credential blob (persisted by the untrusted host; only this
  /// enclave can unseal it — attestation happens once, section III-C).
  Bytes ecall_sealed_credentials();
  Status ecall_restore_credentials(ByteView sealed);

  // ---- Middlebox configuration (section III-E) ------------------------
  /// Verifies, decrypts and hot-swaps a config bundle. Rejects version
  /// rollback (monotonic versions enforced inside the enclave).
  Status ecall_install_config(const config::ConfigBundle& bundle);
  std::uint32_t config_version() const { return config_version_; }
  /// Lane 0's graph (nullptr before the first install).
  const click::Router* router() const {
    return sharded_ ? &sharded_->shard(0) : nullptr;
  }

  // ---- Sharding (multi-core scaling) ----------------------------------
  /// Changes the shard count at runtime, migrating per-element state
  /// (Counter totals, Queue contents re-hashed per flow, IDPS stream
  /// statistics) into the new shard set. Requires an installed config.
  Status ecall_reshard(std::size_t shards);
  std::size_t shard_count() const { return sharded_ ? sharded_->shard_count() : 1; }
  const click::ShardedRouter* sharded_router() const { return sharded_.get(); }

  // ---- VPN handshake ----------------------------------------------------
  Result<Bytes> ecall_handshake_init(crypto::RsaPublicKey server_key);
  Status ecall_handshake_reply(ByteView wire);
  bool connected() const { return session_ && session_->established(); }

  // ---- Data path (the 4 steps of Fig 3, one ecall per burst) ----------
  /// Egress: copy in 1, Click 2, verdict 3, seal 4 for a whole burst,
  /// with one enclave transition and one virtual call per element,
  /// sealing the accepted packets into `out`. Input packet buffers are
  /// recycled into packet_pool(); `out`'s frame buffers are reused
  /// across calls, so the steady-state egress burst performs no heap
  /// allocation.
  Status ecall_process_egress_batch(click::PacketBatch&& batch, EgressBatch& out);
  /// Ingress: opens a burst of data frames, runs Click once over the
  /// completed packets (except those the peer's QoS flag says were
  /// already processed) and returns the accepted ones (backed by pool
  /// buffers).
  /// A frame that fails to open or parse is dropped alone: its buffers
  /// return to the pool, it counts in `out.dropped`, and the rest of
  /// the burst goes on. Fails only when the tunnel is down, the burst
  /// exceeds kMaxBurst or Click fans out past the batch capacity.
  Status ecall_process_ingress_batch(std::span<const Bytes> wires,
                                     IngressBatch& out);
  /// The payload-buffer free list the batch path recycles through;
  /// callers acquire input packets here and release delivered ones.
  net::PacketPool& packet_pool() { return pool_; }

  // ---- Control channel ---------------------------------------------------
  /// Seals a keep-alive ping into `frame` through the session buffer
  /// (no allocation once `frame` is warm).
  Status ecall_create_ping_wire(Bytes& frame);
  Result<vpn::PingInfo> ecall_handle_ping(ByteView wire);

  // ---- Encrypted traffic analysis (section III-D) ------------------------
  /// Receives session keys forwarded by the instrumented TLS library
  /// via the management interface.
  Status ecall_forward_tls_key(const tls::SessionKeys& keys);

  /// Registers (or replaces) a named IDPS rule set available to
  /// IDSMatcher configs; the first install that names it compiles it.
  void ecall_add_ruleset(const std::string& name,
                         std::vector<idps::SnortRule> rules);
  const idps::RuleSets& rulesets() const { return rulesets_; }

  // ---- Introspection ----------------------------------------------------
  /// Aggregated CTX-chain (stream inspection) state across every lane:
  /// how many flows each lane tracks, how much memory out-of-order
  /// segments pin, and how many split-payload evasions the resumable
  /// scanner caught. Counters sum over lanes; bytes_buffered_peak is
  /// the max any single lane reached (the per-lane bound that matters).
  struct StreamStatsSnapshot {
    std::size_t flows_tracked = 0;       ///< live contexts, all lanes
    std::uint64_t flows_classified = 0;
    std::uint64_t flows_expired = 0;
    std::uint64_t flows_rejected_full = 0;  ///< CTX table at capacity
    std::uint64_t bytes_buffered = 0;       ///< parked payload bytes now
    std::uint64_t bytes_buffered_peak = 0;  ///< max over lanes
    std::uint64_t segments_parked = 0;
    std::uint64_t segments_dropped_overflow = 0;
    std::uint64_t segments_expired_age = 0;
    std::uint64_t stream_chunks = 0;     ///< stream windows scanned
    std::uint64_t evasions_caught = 0;   ///< cross-segment matches
    std::uint64_t flows_killed = 0;      ///< flows put into drop-flow
    // Two-tier scanning: how much traffic tier 1 (the literal
    // prefilter) screened, how many candidate windows tier 2 had to
    // confirm, and how many scans fell back to the full walk.
    std::uint64_t prefiltered_bytes = 0;
    std::uint64_t confirmed_windows = 0;
    std::uint64_t fallback_scans = 0;
  };
  StreamStatsSnapshot stream_stats() const;

  const vpn::VpnClientSession* session() const {
    return session_ ? &*session_ : nullptr;
  }
  std::uint64_t packets_rejected_by_click() const { return rejected_; }
  std::uint64_t click_bypassed_ingress() const { return c2c_bypassed_; }

 private:
  /// Per-lane plumbing: each lane owns an ElementContext (its graph
  /// shares no mutable state with other lanes), a result sink its
  /// ToDevice fills with accepted packets on the lane's thread, and a
  /// PacketPool that recycles rejected packets' buffers without
  /// cross-lane contention. Trusted-time reads tally in the lane's
  /// context (lane threads must not touch the enclave statistics) and
  /// fold into the ocall count after each burst.
  struct ShardRig {
    elements::ElementContext context;
    click::ElementRegistry registry;
    std::vector<net::Packet> accepted;
    net::PacketPool pool;
    ShardRig() : registry(elements::make_endbox_registry(context)) {}
  };
  /// Runs a whole burst through the lanes with one virtual call per
  /// element per lane; accepted packets land in the rigs' `accepted`
  /// lists (consume them in lane order), rejected buffers return to
  /// the main pool. Returns false when no configuration is installed or
  /// the entry element is missing.
  bool run_click_burst(click::PacketBatch&& batch);
  /// Creates shard rigs up to `count` (contexts wired to this enclave).
  void ensure_shard_rigs(std::size_t count);
  /// Factory building shard i's router from shard i's registry.
  click::ShardedRouter::RouterFactory shard_router_factory();
  /// Seals one accepted packet into `out` and recycles its buffers.
  void seal_egress_packet(net::Packet&& packet, EgressBatch& out);

  Rng& rng_;
  crypto::RsaPublicKey ca_public_key_;
  Options options_;

  crypto::RsaKeyPair enclave_key_;
  std::optional<ca::Certificate> certificate_;
  std::uint64_t config_key_ = 0;

  tls::SessionKeyStore key_store_;
  idps::RuleSets rulesets_;  ///< one compiled engine per set, all lanes
  // The graphs: one per lane in sharded_ (created by the first install),
  // wired to the per-lane rigs (lane 0's rig exists from construction).
  std::vector<std::unique_ptr<ShardRig>> shard_rigs_;
  std::unique_ptr<click::ShardedRouter> sharded_;
  std::uint32_t config_version_ = 0;
  std::size_t config_epc_bytes_ = 0;

  std::optional<vpn::VpnClientSession> session_;

  click::PacketBatch ingress_stage_;  ///< pre-Click staging for ingress bursts
  net::PacketPool pool_;
  Bytes egress_packet_scratch_;  ///< reused for egress serialisation
  std::uint64_t rejected_ = 0;
  std::uint64_t c2c_bypassed_ = 0;
};

}  // namespace endbox
