#include "vpn/server.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

#include "crypto/hmac.hpp"

namespace endbox::vpn {

namespace {
/// Bound on the handshake dedupe cache (oldest entries recycle beyond it).
constexpr std::size_t kHandshakeDedupeCapacity = 4096;

void clear_results(VpnServer::OpenBatch& batch) {
  batch.complete = batch.pending = batch.rejected = 0;
  batch.packet_count = 0;
}
}  // namespace

VpnServer::VpnServer(Rng& rng, crypto::RsaPublicKey ca_key, VpnServerConfig config)
    : rng_(rng), ca_key_(ca_key), config_(config), key_(crypto::rsa_generate(rng)) {
  std::size_t shards = config_.session_shards == 0 ? 1 : config_.session_shards;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) shards_.push_back(make_shard());
  ensure_worker_pool();
  if (config_.handshake_dedupe_horizon > 0) {
    HandshakeCache::Options options{kHandshakeDedupeCapacity,
                                    config_.handshake_dedupe_horizon, {}};
    // A full cache recycles its oldest entry: a connect storm degrades
    // dedupe coverage, never admission.
    options.eviction = EvictionPolicy::EvictIdleLongest;
    handshake_cache_.emplace(options);
  }
}

void VpnServer::ensure_worker_pool() {
  click::ShardWorkerPool::ensure(pool_, shards_.size());
}

VpnServer::Session* VpnServer::find_session(std::uint32_t id) {
  SessionTable::Entry* entry = shard_of(id).sessions.find(id);
  return entry ? &entry->value : nullptr;
}

VpnServer::SessionTable::Entry* VpnServer::find_session_entry(std::uint32_t id) {
  return shard_of(id).sessions.find(id);
}

std::uint32_t VpnServer::session_config_version(std::uint32_t session_id) const {
  const auto& sessions = shards_[shard_of_session(session_id)]->sessions;
  const SessionTable::Entry* entry = sessions.find(session_id);
  return entry ? entry->value.config_version : 0;
}

std::uint64_t VpnServer::auth_failures() const {
  std::uint64_t n = 0;
  for (const auto& shard : shards_) n += shard->auth_failures;
  return n;
}

std::uint64_t VpnServer::replays_rejected() const {
  std::uint64_t n = 0;
  for (const auto& shard : shards_) n += shard->replays_rejected;
  return n;
}

std::uint64_t VpnServer::stale_config_drops() const {
  std::uint64_t n = 0;
  for (const auto& shard : shards_) n += shard->stale_config_drops;
  return n;
}

std::uint64_t VpnServer::sessions_expired() const {
  std::uint64_t n = 0;
  for (const auto& shard : shards_) n += shard->sessions.stats().expired_idle;
  return n;
}

std::uint64_t VpnServer::sessions_rejected_full() const {
  std::uint64_t n = 0;
  for (const auto& shard : shards_) n += shard->sessions.stats().rejected_full;
  return n;
}

std::uint64_t VpnServer::sessions_evicted_lru() const {
  std::uint64_t n = 0;
  for (const auto& shard : shards_) n += shard->sessions.stats().evicted_lru;
  return n;
}

std::uint64_t VpnServer::fragments_expired() const {
  std::uint64_t n = 0;
  for (const auto& shard : shards_)
    shard->sessions.for_each([&](std::uint32_t, const Session& session) {
      n += session.reassembler.expired();
    });
  return n;
}

std::size_t VpnServer::expire_idle_sessions(sim::Time now) {
  if (config_.session_idle_timeout == 0) return 0;
  std::size_t expired = 0;
  for (auto& shard : shards_)
    expired += shard->sessions.expire_idle(
        now, [&](std::uint32_t id, Session&&) { fire_close_hook(id); });
  return expired;
}

bool VpnServer::close_session(std::uint32_t session_id) {
  if (!shard_of(session_id).sessions.erase(session_id)) return false;
  fire_close_hook(session_id);
  return true;
}

std::size_t VpnServer::restart() {
  std::size_t closed = 0;
  for (auto& shard : shards_)
    shard->sessions.extract_all([&](std::uint32_t id, Session&&, sim::Time) {
      fire_close_hook(id);
      ++closed;
    });
  // The cached replies name sessions that no longer exist; drop them so
  // a retransmitted init gets a fresh handshake, not a dead session id.
  if (handshake_cache_)
    handshake_cache_->extract_all([](std::uint64_t, CachedHandshake&&, sim::Time) {});
  return closed;
}

Result<VpnServer::Event> VpnServer::handle(ByteView wire, sim::Time now) {
  expire_idle_sessions(now);
  if (handshake_cache_)
    handshake_cache_->expire_idle(now, [](std::uint64_t, CachedHandshake&&) {});
  // Only control messages are parsed into a WireMessage (a body copy);
  // the lane body opens a data frame from the wire itself.
  auto type = parse_wire_type(wire);
  if (!type.ok()) return err(type.error());
  switch (*type) {
    case MsgType::HandshakeInit:
      return handle_handshake(WireMessage::parse(wire).value(), now);
    case MsgType::HandshakeReply: return err("unexpected handshake reply at server");
    case MsgType::Data:
    case MsgType::DataIntegrityOnly: break;
    case MsgType::Ping: return handle_ping(WireMessage::parse(wire).value(), now);
  }
  std::uint32_t session_id = get_u32(wire.data() + 1);
  SessionShard& shard = shard_of(session_id);
  shard.scratch.packet_count = 0;
  switch (open_frame_on_shard(shard, wire, 0, now)) {
    case Opened::Complete: {
      // A copy, not a move: the slot keeps its buffer, which the lane's
      // next frame recycles into the pool.
      const BatchPacket& slot = shard.scratch.packets[0];
      return Event{PacketIn{session_id, slot.ip_packet, slot.was_encrypted}};
    }
    case Opened::Pending: return Event{FragmentPending{session_id}};
    case Opened::UnknownSession: return err("unknown session");
    case Opened::IntegrityRefused:
      return err("integrity-only mode not allowed by server policy");
    case Opened::StaleConfig:
      return err("stale middlebox configuration (have v" +
                 std::to_string(session_config_version(session_id)) + ", need v" +
                 std::to_string(config_version_) + ")");
    case Opened::AuthFailed: return err("data frame failed authentication");
    case Opened::Replayed: return err("replayed packet");
  }
  return err("unreachable");
}

Result<VpnServer::Event> VpnServer::handle_handshake(const WireMessage& msg,
                                                     sim::Time now) {
  try {
    ByteReader r(msg.body);
    std::uint16_t proposed_version = r.u16();
    std::uint32_t client_config_version = r.u32();
    Bytes client_nonce = r.take(16);
    auto cert = ca::Certificate::deserialize(r.take(r.u16()));
    if (!cert.ok()) {
      ++handshakes_rejected_;
      return err("handshake: " + cert.error());
    }
    // Only CA-certified (i.e. successfully attested) enclaves connect.
    if (!cert->verify(ca_key_)) {
      ++handshakes_rejected_;
      return err("handshake: certificate not signed by our CA");
    }
    // Server-side minimum version check (section V-A, downgrade).
    if (proposed_version < kVersionTls12) {
      ++handshakes_rejected_;
      return err("handshake: client proposed version below server minimum");
    }
    std::uint16_t chosen_version = proposed_version;

    // Duplicate suppression: a retransmitted or network-duplicated
    // init (same bytes, same nonce) gets the same reply — no second
    // session, no ledger double-entry downstream. The content hash is
    // confirmed against the stored nonce so a collision falls through
    // to a fresh handshake instead of handing out someone else's reply.
    std::uint64_t dedupe_key = 0;
    if (handshake_cache_) {
      dedupe_key = hash_bytes(msg.body.data(), msg.body.size());
      if (HandshakeCache::Entry* hit = handshake_cache_->find(dedupe_key);
          hit && hit->value.nonce == client_nonce &&
          has_session(hit->value.session_id)) {
        ++handshakes_deduped_;
        return Event{HandshakeDone{hit->value.session_id, hit->value.reply_wire}};
      }
    }

    // Session secret, encrypted to the enclave public key: only the
    // attested enclave can derive the data-channel keys.
    std::uint64_t seed = rng_.uniform(1, (1ULL << 48) - 1);
    Bytes server_nonce = rng_.bytes(16);
    Bytes encrypted_seed = crypto::rsa_encrypt(cert->subject_key, seed);
    std::uint32_t session_id = next_session_id_++;

    // Fixed-size transcript ([version:2][session_id:4][client_nonce:16]
    // [server_nonce:16][encrypted_seed:8]) assembled on the stack —
    // mirrors the enclave side, no per-handshake heap traffic. The
    // session id is inside the signature, so flipping it in the wire
    // header cannot bind the client to a different session.
    std::array<std::uint8_t, 2 + 4 + 16 + 16 + 8> transcript;
    put_u16(transcript.data(), chosen_version);
    put_u32(transcript.data() + 2, session_id);
    std::memcpy(transcript.data() + 6, client_nonce.data(), 16);
    std::memcpy(transcript.data() + 22, server_nonce.data(), 16);
    std::memcpy(transcript.data() + 38, encrypted_seed.data(), 8);
    Bytes signature = crypto::rsa_sign(key_, transcript);

    SessionShard& shard = shard_of(session_id);
    Session session;
    session.keys = derive_vpn_keys(seed, client_nonce, server_nonce);
    session.config_version = client_config_version;
    // The IV stream is per session (seeded here, on the single-threaded
    // handshake path), so seal paths are shard-safe and the session's
    // ciphertext stream does not depend on the shard count.
    session.iv_rng = Rng(rng_.next_u64());
    session.reassembler.set_pool(&shard.pool);
    session.reassembler.set_horizon(config_.fragment_horizon);
    SessionTable::Entry* entry =
        shard.sessions.insert(session_id, std::move(session), now);
    if (!entry) {
      // Shard at capacity: bounded enclave memory beats a connect storm.
      // (With lru_eviction the table evicted an idle session instead and
      // this only fires when every candidate was pinned mid-handshake.)
      ++handshakes_rejected_;
      return err("handshake: session shard at capacity");
    }
    // Mid-handshake shield: not an LRU victim until the client's first
    // authenticated frame (which unpins) or the grace lapses.
    if (config_.lru_eviction && config_.handshake_pin > 0)
      shard.sessions.pin(*entry, now + config_.handshake_pin);

    WireMessage reply;
    reply.type = MsgType::HandshakeReply;
    reply.session_id = session_id;
    reply.body.reserve(2 + server_nonce.size() + encrypted_seed.size() +
                       signature.size());
    put_u16(reply.body, chosen_version);
    append(reply.body, server_nonce);
    append(reply.body, encrypted_seed);
    append(reply.body, signature);
    Bytes reply_wire = reply.serialize();
    if (handshake_cache_)
      handshake_cache_->insert(
          dedupe_key, CachedHandshake{client_nonce, reply_wire, session_id},
          now);
    return Event{HandshakeDone{session_id, std::move(reply_wire)}};
  } catch (const std::out_of_range&) {
    ++handshakes_rejected_;
    return err("handshake: truncated");
  }
}

Result<VpnServer::Event> VpnServer::handle_ping(const WireMessage& msg,
                                                sim::Time now) {
  SessionTable::Entry* entry = find_session_entry(msg.session_id);
  if (!entry) return err("unknown session");
  Session* session = &entry->value;
  auto info = open_ping_body(session->keys, msg.body);
  if (!info.ok()) {
    ++shard_of(msg.session_id).auth_failures;
    return err(info.error());
  }
  shard_of(msg.session_id).sessions.touch(*entry, now);
  shard_of(msg.session_id).sessions.unpin(*entry);
  // Record the client's (authenticated) configuration version. A ping
  // cannot roll the version back: versions increase monotonically.
  if (info->config_version > session->config_version)
    session->config_version = info->config_version;
  return Event{PingIn{msg.session_id, *info}};
}

std::size_t VpnServer::add_fragments(SealRun& run, Session& session, ByteView ip_packet,
                                     std::vector<Bytes>& frames, std::size_t at) {
  return at + for_each_fragment(ip_packet, config_.mtu, session.next_packet_id,
                                session.next_frag_id++,
                                [&](const FragmentHeader& frag, ByteView slice) {
                                  run.add(frag, slice, frames[at + frag.index]);
                                });
}

std::size_t VpnServer::seal_packet_wire_at(std::uint32_t session_id,
                                           ByteView ip_packet,
                                           std::vector<Bytes>& frames,
                                           std::size_t at) {
  Session* session = find_session(session_id);
  if (!session) throw std::logic_error("VpnServer: unknown session");
  std::size_t end = at + fragment_count(ip_packet.size(), config_.mtu);
  if (frames.size() < end) frames.resize(end);
  SealRun run(session->keys, MsgType::Data, session_id, session->iv_rng);
  add_fragments(run, *session, ip_packet, frames, at);
  run.flush();
  return end;
}

VpnServer::Opened VpnServer::open_frame_on_shard(SessionShard& shard,
                                                 ByteView wire,
                                                 std::uint32_t idx,
                                                 sim::Time now) {
  auto type = static_cast<MsgType>(wire[0]);
  std::uint32_t session_id = get_u32(wire.data() + 1);
  // Dispatch never looked the session up — the lane owns the table,
  // so the unknown-session reject lives here. (Sessions never leave
  // mid-burst: expiry runs on the caller before dispatch.)
  SessionTable::Entry* found = shard.sessions.find(session_id);
  if (!found) return Opened::UnknownSession;
  SessionTable::Entry& entry = *found;
  Session& session = entry.value;
  bool encrypted = type == MsgType::Data;
  if (!encrypted && !config_.allow_integrity_only) {
    ++shard.auth_failures;
    return Opened::IntegrityRefused;
  }
  // Configuration freshness (section III-E): after the grace period,
  // only clients running the current configuration may send traffic.
  if (session.config_version < config_version_ && grace_active_ &&
      now >= grace_deadline_) {
    ++shard.stale_config_drops;
    return Opened::StaleConfig;
  }
  Bytes body = shard.pool.acquire_bytes();
  body.assign(wire.begin() + kWireHeaderSize, wire.end());
  auto opened = encrypted ? open_data_body(session.keys, std::move(body))
                          : open_integrity_body(session.keys, std::move(body));
  if (!opened.ok()) {
    // Failed opens never consume the body (the move happens only on
    // success), so the pooled buffer survives a bad-frame flood.
    shard.pool.release_bytes(std::move(body));
    ++shard.auth_failures;
    return Opened::AuthFailed;
  }
  if (!session.replay.accept(opened->frag.packet_id)) {
    shard.pool.release_bytes(std::move(opened->payload));
    ++shard.replays_rejected;
    return Opened::Replayed;
  }
  // Touch = one relaxed timestamp store, so shard workers refresh
  // idle timers without ever taking the wheel (lazy reschedule).
  // Unpin is the same relaxed store: the first authenticated frame
  // lifts the mid-handshake eviction shield.
  shard.sessions.touch(entry, now);
  shard.sessions.unpin(entry);
  auto whole =
      session.reassembler.add(opened->frag, std::move(opened->payload), now);
  if (!whole) return Opened::Pending;
  OpenBatch& out = shard.scratch;
  if (out.packets.size() <= out.packet_count) out.packets.emplace_back();
  BatchPacket& slot = out.packets[out.packet_count++];
  slot.session_id = session_id;
  slot.burst_tag = idx;
  slot.was_encrypted = encrypted;
  // The slot's previous buffer cycles back into the shard's pool,
  // where the next frame's body scratch picks it up.
  shard.pool.release_bytes(std::move(slot.ip_packet));
  slot.ip_packet = std::move(*whole);
  return Opened::Complete;
}

std::uint32_t VpnServer::dispatch_frames(std::span<const Bytes> wires) {
  for (auto& shard : shards_) {
    shard->lane.clear();
    clear_results(shard->scratch);
  }
  std::uint32_t malformed = 0;
  for (std::size_t i = 0; i < wires.size(); ++i) {
    const Bytes& wire = wires[i];
    auto type = wire.empty() ? MsgType{} : static_cast<MsgType>(wire[0]);
    if (wire.size() < kWireHeaderSize ||
        (type != MsgType::Data && type != MsgType::DataIntegrityOnly)) {
      ++malformed;
      continue;
    }
    shard_of(get_u32(wire.data() + 1)).lane.push_back(static_cast<std::uint32_t>(i));
  }
  note_lane_peaks();
  return malformed;
}

void VpnServer::note_lane_peaks() {
  for (auto& shard : shards_)
    shard->lane_peak = std::max<std::uint64_t>(shard->lane_peak, shard->lane.size());
}

void VpnServer::open_lane_frames(SessionShard& shard,
                                 std::span<const Bytes> wires, sim::Time now) {
  OpenBatch& out = shard.scratch;
  for (std::uint32_t idx : shard.lane) {
    switch (open_frame_on_shard(shard, wires[idx], idx, now)) {
      case Opened::Complete: ++out.complete; break;
      case Opened::Pending: ++out.pending; break;
      default: ++out.rejected; break;
    }
  }
}

void VpnServer::collect_lane(SessionShard& shard, OpenBatch& out) {
  OpenBatch& scratch = shard.scratch;
  out.complete += scratch.complete;
  out.pending += scratch.pending;
  out.rejected += scratch.rejected;
  for (std::size_t k = 0; k < scratch.packet_count; ++k) {
    BatchPacket& src = scratch.packets[k];
    if (out.packets.size() <= out.packet_count) out.packets.emplace_back();
    BatchPacket& dst = out.packets[out.packet_count++];
    // Swap, not move: the caller slot's previous buffer parks in the
    // lane scratch slot, where the lane's next burst recycles it into
    // its pool — the whole circulation stays allocation-free.
    std::swap(dst.ip_packet, src.ip_packet);
    dst.session_id = src.session_id;
    dst.burst_tag = src.burst_tag;
    dst.was_encrypted = src.was_encrypted;
  }
}

void VpnServer::rebalance_lane_pools() {
  if (shards_.size() <= 1) return;
  for (auto& shard : shards_) {
    std::uint64_t starved = shard->pool.starved();
    if (starved == shard->starved_mark) continue;  // no new starvation
    shard->starved_mark = starved;
    // Adopt half of the richest sibling's buffers: the hot lane's next
    // burst draws from the pool instead of the heap, and the donor —
    // by construction the least pressed — keeps circulating.
    SessionShard* donor = nullptr;
    for (auto& other : shards_) {
      if (other.get() == shard.get()) continue;
      if (!donor || other->pool.pooled() > donor->pool.pooled())
        donor = other.get();
    }
    if (donor && donor->pool.pooled() > 1)
      shard->pool.adopt_from(donor->pool, donor->pool.pooled() / 2);
  }
}

void VpnServer::open_batch(std::span<const Bytes> wires, sim::Time now,
                           OpenBatch& out) {
  expire_idle_sessions(now);  // on the caller, before dispatch pins lanes
  clear_results(out);
  out.rejected += dispatch_frames(wires);
  // A single-lane server never touches a lock: its one busy lane runs
  // inline on the caller.
  click::ShardWorkerPool::run_busy(
      pool_.get(), shards_.size(),
      [&](std::size_t s) { return !shards_[s]->lane.empty(); },
      [&](std::size_t s) { open_lane_frames(*shards_[s], wires, now); });

  // Collect in lane order — no cross-lane merge barrier. Per-session
  // order is exact (one FIFO lane per session); global order is not
  // part of the contract.
  for (auto& shard : shards_) collect_lane(*shard, out);
  rebalance_lane_pools();
}

void VpnServer::seal_lane_jobs(SessionShard& shard, std::span<const SealJob> jobs,
                               std::vector<Bytes>& frames) {
  // Each session's consecutive jobs are one run of the seal body.
  const std::vector<std::uint32_t>& lane = shard.lane;
  for (std::size_t k = 0; k < lane.size();) {
    const std::uint32_t session_id = jobs[lane[k]].session_id;
    Session& session = shard.sessions.find(session_id)->value;
    SealRun run(session.keys, MsgType::Data, session_id, session.iv_rng);
    for (; k < lane.size() && jobs[lane[k]].session_id == session_id; ++k)
      add_fragments(run, session, jobs[lane[k]].ip_packet, frames, seal_bases_[lane[k]]);
    run.flush();
  }
}

std::size_t VpnServer::seal_jobs(std::span<const SealJob> jobs,
                                 std::vector<Bytes>& frames) {
  for (auto& shard : shards_) shard->lane.clear();
  seal_bases_.resize(jobs.size());
  std::size_t total = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (!find_session(jobs[j].session_id))
      throw std::logic_error("VpnServer: unknown session");
    seal_bases_[j] = total;
    total += fragment_count(jobs[j].ip_packet.size(), config_.mtu);
    shard_of(jobs[j].session_id).lane.push_back(static_cast<std::uint32_t>(j));
  }
  note_lane_peaks();
  // Size the output once, up front: every job's slot range is disjoint,
  // so lane workers write without ever touching the vector itself.
  if (frames.size() < total) frames.resize(total);
  // Each lane drains its list run-to-completion; output slots are
  // disjoint and precomputed, so the frames are byte-identical at any
  // lane count.
  click::ShardWorkerPool::run_busy(
      pool_.get(), shards_.size(),
      [&](std::size_t s) { return !shards_[s]->lane.empty(); },
      [&](std::size_t s) { seal_lane_jobs(*shards_[s], jobs, frames); });
  return total;
}

Status VpnServer::reshard_sessions(std::size_t new_shards) {
  if (new_shards == 0)
    return err("reshard: session-shard count must be positive");
  if (new_shards == shards_.size()) return {};

  std::vector<std::unique_ptr<SessionShard>> built;
  built.reserve(new_shards);
  for (std::size_t i = 0; i < new_shards; ++i) built.push_back(make_shard());

  for (std::size_t o = 0; o < shards_.size(); ++o) {
    SessionShard& old_shard = *shards_[o];
    // Sessions move wholesale to the shard their id now hashes to:
    // keys, replay window and pending fragment groups all
    // travel, so in-flight reassembly and anti-replay survive the
    // transition.
    // Activity stamps travel too, and insert_migrated re-arms each
    // session's idle timer at last_activity + timeout on the new
    // shard's wheel — a reshard neither expires a session early nor
    // immortalises it. Migration bypasses the admission bound (moves
    // must be lossless); the bound re-applies to new handshakes.
    old_shard.sessions.extract_all(
        [&](std::uint32_t id, Session&& session, sim::Time last_activity) {
          SessionShard& target = *built[shard_of_id(id, new_shards)];
          session.reassembler.set_pool(&target.pool);
          target.sessions.insert_migrated(id, std::move(session), last_activity);
        });
    // Statistics fold like ShardedRouter::reshard: old shard o merges
    // into new shard o % n exactly once, preserving aggregate totals
    // (including the lifecycle counters: expiries, capacity rejects).
    SessionShard& fold = *built[o % new_shards];
    fold.auth_failures += old_shard.auth_failures;
    fold.replays_rejected += old_shard.replays_rejected;
    fold.stale_config_drops += old_shard.stale_config_drops;
    fold.sessions.absorb_stats(old_shard.sessions.stats());
    // Pooled buffers are capacity, not state: adopt them so the new
    // shard set starts warm instead of re-allocating its way up.
    fold.pool.adopt_from(old_shard.pool);
  }
  shards_ = std::move(built);
  ensure_worker_pool();
  ++reshard_count_;
  return {};
}

Bytes VpnServer::create_ping(std::uint32_t session_id) {
  Session* session = find_session(session_id);
  if (!session) throw std::logic_error("VpnServer: unknown session");
  Bytes frame;
  SealRun run(session->keys, MsgType::Ping, session_id, session->iv_rng);
  run.add(PingInfo{session->next_ping_seq++, config_version_, grace_secs_}, frame);
  run.flush();
  return frame;
}

void VpnServer::announce_config(std::uint32_t version, std::uint32_t grace_secs,
                                sim::Time now) {
  if (version <= config_version_) return;  // versions only move forward
  config_version_ = version;
  grace_secs_ = grace_secs;
  grace_deadline_ = now + static_cast<sim::Time>(grace_secs) * sim::kSecond;
  grace_active_ = true;
}

}  // namespace endbox::vpn
