// VPN server: the single entry point into the managed network (R2).
//
// Accepts handshakes only from clients presenting CA-signed enclave
// certificates, maintains per-session keys/replay windows, and enforces
// configuration-version freshness: after a configurable grace period,
// traffic from clients still running an old middlebox configuration is
// blocked (section III-E).
//
// The data plane is session-sharded (NFOS-style state partitioning,
// mirroring the enclave's RSS flow sharding): sessions are pinned to
// one of N lanes by splitmix64(session_id) % N, and each lane owns its
// sessions, buffer pool, per-burst index list and data-path statistics.
// open_batch / seal_jobs run the lanes run-to-completion: the caller's
// only serial work is lane dispatch (size/type check, RSS hash, append
// the frame or job index to its lane's list); the lane itself looks the
// session up, decrypts, checks replay, reassembles and emits — and
// results concatenate in lane order. A single busy lane runs inline on
// the caller, two or more on the worker pool. Ordering is therefore
// guaranteed per session only (each session lives on exactly one FIFO
// lane), not across the burst — the run-to-completion contract; one
// lane is the N = 1 case and keeps exact arrival order. No mutable
// state is shared between lanes, so per-session order needs no locks.
// reshard_sessions() changes the lane count at runtime without losing
// replay windows or pending fragment groups.
//
// Each direction has one lane body. Opening: open_batch runs it on
// every lane; the per-frame handle(), which also takes the control
// channel (handshakes, pings), runs it on the session's lane and copies
// the completed packet out. Sealing: seal_jobs runs it per lane and
// seal_packet_wire_at for one session; both size their output up front.
// The gateway oracle is a model in tests/oracle/gateway.hpp.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "ca/certificate.hpp"
#include "click/sharded_router.hpp"
#include "common/hash.hpp"
#include "common/lifecycle_table.hpp"
#include "common/rng.hpp"
#include "sim/clock.hpp"
#include "vpn/fragment.hpp"
#include "vpn/replay.hpp"
#include "vpn/session_crypto.hpp"
#include "vpn/wire.hpp"

namespace endbox::vpn {

struct VpnServerConfig {
  bool allow_integrity_only = false;  ///< accept ISP-mode unencrypted data
  std::size_t mtu = 9000;
  /// Session shards of the server data plane (one worker thread per
  /// shard beyond the first). 1 keeps the single-threaded baseline.
  std::size_t session_shards = 1;
  /// Session-table admission bound per shard: handshakes beyond it are
  /// rejected (counted in handshakes_rejected / sessions_rejected_full)
  /// so enclave memory stays bounded under a connect storm.
  std::size_t session_capacity_per_shard = std::size_t{1} << 20;
  /// Sessions with no authenticated traffic for this long expire from
  /// their shard's timer wheel (checked at the top of handle() and
  /// open_batch(), amortised O(1)). 0 keeps sessions forever.
  sim::Time session_idle_timeout = 0;
  /// Age horizon for incomplete fragment groups within a session —
  /// Reassembler::set_horizon for every session's reassembler. 0 keeps
  /// the count-based cap only.
  sim::Time fragment_horizon = 0;
  /// Admission policy at shard capacity: false keeps reject-at-capacity
  /// (the PR-6 behaviour); true evicts the idle-longest unpinned
  /// session to admit the new handshake, so an admission storm recycles
  /// stale state instead of locking out legitimate clients. Evictions
  /// count in sessions_evicted_lru() and fire the close hook.
  bool lru_eviction = false;
  /// Eviction shield for freshly-admitted sessions: never an LRU victim
  /// until this long after the handshake (or until the first
  /// authenticated frame unpins it, whichever comes first), so a storm
  /// cannot evict a session that is still mid-handshake.
  sim::Time handshake_pin = 3 * sim::kSecond;
  /// Duplicate-handshake suppression: an identical HandshakeInit seen
  /// again within this horizon returns the cached reply instead of
  /// minting a second session (the client reliability layer
  /// retransmits inits; the network duplicates frames). 0 disables.
  sim::Time handshake_dedupe_horizon = 10 * sim::kSecond;
};

class VpnServer {
 public:
  // Events returned by handle():
  struct HandshakeDone {
    std::uint32_t session_id;
    Bytes reply_wire;  ///< send back to the client
  };
  struct PacketIn {
    std::uint32_t session_id;
    Bytes ip_packet;       ///< fully reassembled
    bool was_encrypted;    ///< false for integrity-only mode
  };
  struct FragmentPending {
    std::uint32_t session_id;
  };
  struct PingIn {
    std::uint32_t session_id;
    PingInfo info;
  };
  using Event = std::variant<HandshakeDone, PacketIn, FragmentPending, PingIn>;

  VpnServer(Rng& rng, crypto::RsaPublicKey ca_key, VpnServerConfig config = {});

  /// Pinned by clients (compiled into enclave binaries alongside the
  /// CA key in a real deployment).
  const crypto::RsaPublicKey& public_key() const { return key_.pub; }

  /// Processes one wire message arriving at time `now`. A data frame
  /// runs open_batch's lane body on its session's lane. Errors cover
  /// every rejection: bad certificate, bad MAC, replay, unknown
  /// session, stale configuration after grace expiry, version floor.
  Result<Event> handle(ByteView wire, sim::Time now);

  /// Seals an IP packet towards a client session into complete wire
  /// frames through the session's scratch buffer, mirroring
  /// VpnClientSession::seal_packet_wire_at: writes this packet's frames
  /// at `frames[at..]`, reusing slot capacity (steady-state
  /// allocation-free), and returns the index one past the last frame
  /// written. Throws std::logic_error on unknown sessions.
  std::size_t seal_packet_wire_at(std::uint32_t session_id, ByteView ip_packet,
                                  std::vector<Bytes>& frames, std::size_t at);

  // ---- Batched data path (the uplink drains bursts back to back) -----
  /// One opened data frame of a batch; `ip_packet` keeps its buffer
  /// capacity across calls (valid-prefix contract, like the enclave's
  /// EgressBatch::frames).
  struct BatchPacket {
    std::uint32_t session_id = 0;
    std::uint32_t burst_tag = 0;  ///< arrival index within the burst
    bool was_encrypted = true;
    Bytes ip_packet;
  };
  /// Result of open_batch. The caller owns it and passes it back every
  /// burst so the packet buffers are reused.
  struct OpenBatch {
    std::uint32_t complete = 0;    ///< fully reassembled packets
    std::uint32_t pending = 0;     ///< fragments still waiting
    std::uint32_t rejected = 0;    ///< malformed/auth/replay/stale/unknown
    std::size_t packet_count = 0;  ///< valid prefix of `packets`
    std::vector<BatchPacket> packets;
  };

  /// Opens a burst of data frames on the run-to-completion lane
  /// pipeline: the caller's serial pass is lane dispatch only
  /// (size/type check, RSS hash, index-list append), then every frame
  /// runs entirely on its session's lane — session lookup, decrypt,
  /// replay check, reassembly — with lane-local pools, scratch and
  /// stats, and the lanes' results concatenate in lane order with no
  /// cross-lane merge. Completed packets land in
  /// `out.packets[0..packet_count)` in per-session arrival order
  /// (each session lives on one FIFO lane); the order ACROSS sessions
  /// depends on the lane count — that is the per-flow ordering
  /// contract. burst_tag still carries each packet's arrival index,
  /// so callers needing the global order can sort. Frames may belong
  /// to different sessions. A bad frame rejects that frame only — a
  /// shared server keeps serving its other clients. Non-data frames
  /// (ping/handshake) are rejected here; they belong on handle().
  void open_batch(std::span<const Bytes> wires, sim::Time now, OpenBatch& out);

  /// One downlink packet of a multi-session seal burst.
  struct SealJob {
    std::uint32_t session_id = 0;
    ByteView ip_packet;
  };
  /// Seals a burst of packets spanning any number of sessions: the
  /// caller computes every job's fragment count and output slot range
  /// up front (so `frames` is sized once and jobs never contend for
  /// slots), appends each job to its session's lane list, and the
  /// lanes seal run-to-completion (on the worker pool when two or more
  /// are busy) — each job's frames land at its precomputed `frames`
  /// range, so the output is byte-identical at any lane count and
  /// preserves input order. Returns the total frame count. Throws std::logic_error on
  /// unknown sessions (validated on the caller before any lane
  /// starts, as the disjoint-slot computation requires).
  std::size_t seal_jobs(std::span<const SealJob> jobs, std::vector<Bytes>& frames);

  // ---- Session sharding ----------------------------------------------
  std::size_t session_shard_count() const { return shards_.size(); }
  /// The shard `session_id` is pinned to (splitmix64 spread, so
  /// sequentially assigned ids still balance).
  std::size_t shard_of_session(std::uint32_t session_id) const {
    return shard_of_id(session_id, shards_.size());
  }
  /// Sessions currently pinned to `shard`.
  std::size_t shard_session_count(std::size_t shard) const {
    return shards_.at(shard)->sessions.size();
  }
  std::uint64_t reshard_count() const { return reshard_count_; }
  /// Worker threads backing the shard pool (0 = single-shard inline).
  std::size_t worker_threads() const { return pool_ ? pool_->worker_count() : 0; }

  // ---- Lane introspection ---------------------------------------------
  /// Largest per-burst index list (open frames or seal jobs) `lane`
  /// received since the last reset_lane_stats(): the deepest backlog
  /// dispatch ever built on that lane. A hot lane shows a peak near the
  /// burst size while its siblings stay shallow.
  std::uint64_t lane_ring_peak(std::size_t lane) const {
    return shards_.at(lane)->lane_peak;
  }
  /// Lane-local PacketPool starvation count: acquires that found the
  /// pool empty and heap-allocated (cumulative; see PacketPool).
  std::uint64_t pool_starved(std::size_t lane) const {
    return shards_.at(lane)->pool.starved();
  }
  /// Buffers the lane's pool adopted from siblings (the
  /// starvation-rebalance trace; cumulative).
  std::uint64_t pool_refills(std::size_t lane) const {
    return shards_.at(lane)->pool.refills();
  }
  /// Buffers currently pooled on `lane`.
  std::size_t lane_pool_buffers(std::size_t lane) const {
    return shards_.at(lane)->pool.pooled();
  }
  /// Zeroes every lane's backlog peak, so the next peak covers only
  /// the bursts that follow.
  void reset_lane_stats() {
    for (auto& shard : shards_) shard->lane_peak = 0;
  }

  /// Changes the session-shard count at runtime: every session moves
  /// wholesale to the shard its id now hashes to — keys, replay
  /// window, pending fragment groups and seal scratch intact — pooled
  /// buffers are adopted into the new shards, and per-shard statistics
  /// fold into the new shard set, so nothing is lost or double-counted
  /// across the transition. The worker pool is reused when shrinking
  /// (see ShardWorkerPool's hand-off protocol). The client half is
  /// EndBoxEnclave::ecall_reshard.
  Status reshard_sessions(std::size_t new_shards);

  /// Builds the periodic server ping announcing the current config
  /// version and remaining grace (section III-E, step 4) as a complete
  /// wire frame, sealed through the session's scratch buffer.
  Bytes create_ping(std::uint32_t session_id);

  /// Administrator action (step 2-3): announce `version` with a grace
  /// period; after `now + grace` clients on older versions are blocked.
  void announce_config(std::uint32_t version, std::uint32_t grace_secs,
                       sim::Time now);

  std::uint32_t current_config_version() const { return config_version_; }
  std::size_t session_count() const {
    std::size_t n = 0;
    for (const auto& shard : shards_) n += shard->sessions.size();
    return n;
  }
  bool has_session(std::uint32_t session_id) const {
    const SessionShard& shard = *shards_[shard_of_session(session_id)];
    return shard.sessions.contains(session_id);
  }
  /// Last config version a session reported via ping/handshake.
  std::uint32_t session_config_version(std::uint32_t session_id) const;

  // ---- Session lifecycle ----------------------------------------------
  /// Expires sessions idle past session_idle_timeout as of `now`
  /// (per-shard timer wheels, amortised O(1) per tick). Runs
  /// automatically at the top of handle() and open_batch(); exposed
  /// for explicit sweeps. Only
  /// authenticated traffic (MAC-verified, replay-fresh) counts as
  /// activity — a garbage flood cannot keep a session alive. Returns
  /// the number expired (close hook fires per session).
  std::size_t expire_idle_sessions(sim::Time now);
  /// Drops one session explicitly (client disconnect / re-key): keys,
  /// replay window and pending fragments go at once, and the close
  /// hook fires. Returns false for unknown sessions.
  bool close_session(std::uint32_t session_id);
  /// Simulates a server crash + restart: every session closes (hooks
  /// fire, so dependent ledgers re-seed), the handshake dedupe cache
  /// empties, and the signing key and session-id counter survive (the
  /// operator restarts the same server). Clients notice through
  /// keepalive loss / rejected traffic and re-handshake. Returns the
  /// number of sessions closed.
  std::size_t restart();
  /// Invoked with the session id whenever a session ends — explicit
  /// close or idle expiry — so state keyed by session id elsewhere
  /// (EndBoxServer's per-session routers and ledgers) is torn down in
  /// the same step instead of leaking.
  void set_session_close_hook(std::function<void(std::uint32_t)> hook) {
    session_close_hook_ = std::move(hook);
  }
  /// Activity stamp driving a session's idle expiry (tests/migration).
  std::optional<sim::Time> session_last_activity(std::uint32_t session_id) const {
    return shards_[shard_of_session(session_id)]->sessions.last_activity(session_id);
  }

  // ---- Stats -----------------------------------------------------------
  // Data-path rejections tally on the shard that processed the frame;
  // the accessors sum across shards (plus handshake-time counts).
  std::uint64_t auth_failures() const;
  std::uint64_t replays_rejected() const;
  std::uint64_t stale_config_drops() const;
  std::uint64_t handshakes_rejected() const { return handshakes_rejected_; }
  /// Sessions evicted by the idle timer wheels (folds across reshards).
  std::uint64_t sessions_expired() const;
  /// Handshakes refused because the target shard was at capacity.
  std::uint64_t sessions_rejected_full() const;
  /// Sessions evicted by the LRU admission policy (capacity pressure).
  std::uint64_t sessions_evicted_lru() const;
  /// Duplicate HandshakeInits answered from the dedupe cache.
  std::uint64_t handshakes_deduped() const { return handshakes_deduped_; }
  /// Fragment groups dropped by the per-session reassembly age horizon
  /// (live sessions only — a session's count goes with it when it ends).
  std::uint64_t fragments_expired() const;
  /// Peak concurrent sessions a shard has held (occupancy ceiling).
  std::size_t shard_peak_sessions(std::size_t shard) const {
    return shards_.at(shard)->sessions.stats().peak_size;
  }
  std::size_t session_capacity_per_shard() const {
    return config_.session_capacity_per_shard;
  }

 private:
  struct Session {
    SessionKeys keys;
    ReplayWindow replay;
    Reassembler reassembler;
    Rng iv_rng{0};  ///< per-session IV stream: seal paths never touch
                    ///< the shared server Rng, so shards seal without
                    ///< synchronisation and byte-identically at any
                    ///< shard count
    std::uint32_t config_version = 0;
    std::uint64_t next_packet_id = 1;
    std::uint32_t next_frag_id = 1;
    std::uint64_t next_ping_seq = 1;
    WireBuffer seal_scratch;  ///< reused by the seal fast path
  };
  /// Bounded per-shard session store: open addressing under the
  /// configured capacity, generation-stamped slots, idle expiry via
  /// the shard's timer wheel (common/lifecycle_table.hpp).
  using SessionTable = LifecycleTable<std::uint32_t, Session>;

  /// One session lane: sessions, buffer pool, per-burst index list,
  /// data-path statistics and per-burst scratch, owned exclusively by
  /// one worker during a burst (dispatch fills every list before any
  /// lane runs; the ShardWorkerPool mutex publishes the lists to the
  /// workers and their results back, as for ShardedRouter).
  struct SessionShard {
    explicit SessionShard(SessionTable::Options options)
        : sessions(options) {}
    SessionTable sessions;
    net::PacketPool pool;  ///< open scratch + reassembly buffers
    std::uint64_t auth_failures = 0;
    std::uint64_t replays_rejected = 0;
    std::uint64_t stale_config_drops = 0;
    std::vector<std::uint32_t> lane;  ///< this burst's frame/job indices
    std::uint64_t lane_peak = 0;      ///< largest `lane` since reset_lane_stats
    std::uint64_t starved_mark = 0;  ///< pool.starved() at last rebalance
    OpenBatch scratch;                     ///< per-shard open results
  };

  static std::size_t shard_of_id(std::uint32_t session_id, std::size_t shards) {
    return shards <= 1 ? 0 : splitmix64(session_id) % shards;
  }

  Result<Event> handle_handshake(const WireMessage& msg, sim::Time now);
  Result<Event> handle_ping(const WireMessage& msg, sim::Time now);
  Session* find_session(std::uint32_t id);
  SessionTable::Entry* find_session_entry(std::uint32_t id);
  SessionShard& shard_of(std::uint32_t session_id) {
    return *shards_[shard_of_session(session_id)];
  }
  std::unique_ptr<SessionShard> make_shard() {
    SessionTable::Options options{
        config_.session_capacity_per_shard, config_.session_idle_timeout, {}};
    if (config_.lru_eviction) options.eviction = EvictionPolicy::EvictIdleLongest;
    auto shard = std::make_unique<SessionShard>(options);
    if (config_.lru_eviction)
      shard->sessions.set_evict_hook(
          [this](std::uint32_t id, Session&&) { fire_close_hook(id); });
    return shard;
  }
  void fire_close_hook(std::uint32_t session_id) {
    if (session_close_hook_) session_close_hook_(session_id);
  }
  /// (Re)creates the worker pool for the current shard count, reusing
  /// it when the count shrank (ShardWorkerPool hand-off protocol).
  void ensure_worker_pool();
  /// What the lane body did with one data frame. handle() turns a
  /// refusal into its error text; open_batch counts it as rejected.
  enum class Opened : std::uint8_t {
    Complete,          ///< packet in shard.scratch.packets[packet_count - 1]
    Pending,           ///< fragment group still waiting
    UnknownSession,
    IntegrityRefused,  ///< integrity-only frame, not allowed by policy
    StaleConfig,
    AuthFailed,        ///< malformed body or MAC failure
    Replayed,
  };
  /// The lane body: opens one data frame on its session's lane, end to
  /// end — session lookup (unknown sessions reject here; lane dispatch
  /// never looks them up), policy, freshness, decrypt, replay,
  /// reassembly, emit into the lane's scratch slot `idx` tags.
  Opened open_frame_on_shard(SessionShard& shard, ByteView wire,
                             std::uint32_t idx, sim::Time now);
  /// Lane dispatch for open_batch, the pipeline's only serial section:
  /// size/type check, RSS hash, index append — no session lookup.
  /// Records lane peaks and returns the count of malformed or non-data
  /// frames.
  std::uint32_t dispatch_frames(std::span<const Bytes> wires);
  /// Records each lane's list size as a candidate backlog peak.
  void note_lane_peaks();
  /// Drains `shard`'s index list run-to-completion (the lane worker
  /// body of open_batch).
  void open_lane_frames(SessionShard& shard, std::span<const Bytes> wires,
                        sim::Time now);
  /// Appends `shard`'s opened results to `out` (swapping packet
  /// buffers, so the circulation stays allocation-free).
  static void collect_lane(SessionShard& shard, OpenBatch& out);
  /// Seals the jobs listed on `shard` into their slots.
  void seal_lane_jobs(SessionShard& shard, std::span<const SealJob> jobs,
                      std::vector<Bytes>& frames);
  /// Tops up lanes that starved this burst from the richest sibling
  /// pool, so a hot lane adopts circulating buffers instead of
  /// allocating silently forever (runs single-threaded between bursts).
  void rebalance_lane_pools();
  /// Seals one packet's fragments for `session` into the pre-sized
  /// slots frames[at..], never touching the vector itself (worker-safe).
  std::size_t seal_fragments(std::uint32_t session_id, Session& session,
                             ByteView ip_packet, std::vector<Bytes>& frames,
                             std::size_t at);

  /// One cached handshake reply: answers retransmitted/duplicated
  /// inits idempotently. The nonce disambiguates hash collisions.
  struct CachedHandshake {
    Bytes nonce;
    Bytes reply_wire;
    std::uint32_t session_id = 0;
  };
  using HandshakeCache = LifecycleTable<std::uint64_t, CachedHandshake>;

  Rng& rng_;
  crypto::RsaPublicKey ca_key_;
  VpnServerConfig config_;
  crypto::RsaKeyPair key_;
  std::vector<std::unique_ptr<SessionShard>> shards_;
  std::optional<HandshakeCache> handshake_cache_;
  std::unique_ptr<click::ShardWorkerPool> pool_;  ///< absent for 1 shard
  std::vector<std::size_t> seal_bases_;           ///< seal_jobs slot bases
  std::uint32_t next_session_id_ = 1;
  std::uint64_t reshard_count_ = 0;

  std::uint32_t config_version_ = 1;
  std::uint32_t grace_secs_ = 0;
  sim::Time grace_deadline_ = 0;
  bool grace_active_ = false;

  std::uint64_t handshakes_rejected_ = 0;
  std::uint64_t handshakes_deduped_ = 0;
  std::function<void(std::uint32_t)> session_close_hook_;
};

}  // namespace endbox::vpn
