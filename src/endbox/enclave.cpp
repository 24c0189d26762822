#include "endbox/enclave.hpp"

#include <algorithm>
#include <utility>

#include "elements/ctx_manager.hpp"
#include "elements/ids_matcher.hpp"

namespace endbox {

EndBoxEnclave::EndBoxEnclave(sgx::SgxPlatform& platform, sgx::SgxMode mode,
                             crypto::RsaPublicKey ca_public_key, Rng& rng,
                             Options options)
    : sgx::Enclave(platform, std::string(kEndBoxEnclaveIdentity), mode),
      rng_(rng),
      ca_public_key_(ca_public_key),
      options_(options),
      enclave_key_(crypto::rsa_generate(rng)),
      key_store_(tls::SessionKeyStore::Options{}) {
  if (options_.shards == 0) options_.shards = 1;
  ensure_shard_rigs(1);
}

void EndBoxEnclave::ensure_shard_rigs(std::size_t count) {
  while (shard_rigs_.size() < count) {
    auto rig = std::make_unique<ShardRig>();
    rig->context.key_store = &key_store_;
    rig->context.rulesets = rulesets_;
    // sgx_get_trusted_time is an ocall into the platform service. Lane
    // threads must not touch the shared enclave statistics, so the
    // reads tally in context.trusted_time_calls and run_click_burst
    // folds them into the ocall count on the ecall thread.
    rig->context.trusted_time = [this] { return this->platform().trusted_time(); };
    rig->context.untrusted_time = [this] { return this->platform().trusted_time(); };
    ShardRig* raw = rig.get();
    rig->context.to_device = [raw](net::Packet&& packet, bool accepted) {
      // Accepted packets collect in the lane's list; rejected ones
      // recycle their buffers into the lane-local pool, contention-free.
      if (accepted) {
        raw->accepted.push_back(std::move(packet));
      } else {
        raw->pool.release(std::move(packet));
      }
    };
    rig->accepted.reserve(click::PacketBatch::kMaxBurst);
    shard_rigs_.push_back(std::move(rig));
  }
}

const crypto::RsaPublicKey& EndBoxEnclave::ecall_public_key() {
  EcallGuard guard(*this);
  return enclave_key_.pub;
}

sgx::Report EndBoxEnclave::ecall_create_report() {
  EcallGuard guard(*this);
  return create_report(sgx::bind_report_data(enclave_key_.pub.serialize()));
}

Status EndBoxEnclave::ecall_store_provisioning(
    const ca::ProvisioningResponse& response) {
  EcallGuard guard(*this);
  // Check the received certificate with the pre-deployed CA key (Fig 4,
  // step 7 precondition).
  if (!response.certificate.verify(ca_public_key_))
    return err("provisioning: certificate not signed by the expected CA");
  if (response.certificate.subject_key != enclave_key_.pub)
    return err("provisioning: certificate is for a different key");
  certificate_ = response.certificate;
  config_key_ = crypto::rsa_decrypt(enclave_key_, response.encrypted_config_key);
  return {};
}

Bytes EndBoxEnclave::ecall_sealed_credentials() {
  EcallGuard guard(*this);
  if (!certificate_) throw std::logic_error("not provisioned");
  Bytes blob;
  put_u64(blob, enclave_key_.pub.n);
  put_u64(blob, enclave_key_.pub.e);
  put_u64(blob, enclave_key_.d);
  put_u64(blob, config_key_);
  Bytes cert = certificate_->serialize();
  put_u16(blob, static_cast<std::uint16_t>(cert.size()));
  append(blob, cert);
  return seal(blob);
}

Status EndBoxEnclave::ecall_restore_credentials(ByteView sealed) {
  EcallGuard guard(*this);
  auto blob = unseal(sealed);
  if (!blob.ok()) return err("restore: " + blob.error());
  try {
    ByteReader r(*blob);
    crypto::RsaKeyPair key;
    key.pub.n = r.u64();
    key.pub.e = r.u64();
    key.d = r.u64();
    std::uint64_t config_key = r.u64();
    auto cert = ca::Certificate::deserialize(r.take(r.u16()));
    if (!cert.ok()) return err("restore: " + cert.error());
    if (!cert->verify(ca_public_key_)) return err("restore: stale certificate");
    enclave_key_ = key;
    config_key_ = config_key;
    certificate_ = *cert;
    return {};
  } catch (const std::out_of_range&) {
    return err("restore: truncated blob");
  }
}

Status EndBoxEnclave::ecall_install_config(const config::ConfigBundle& bundle) {
  EcallGuard guard(*this);
  if (!certificate_) return err("install config: not provisioned");
  // Rollback protection: versions increase monotonically (section III-E).
  if (bundle.version <= config_version_)
    return err("install config: version " + std::to_string(bundle.version) +
               " is not newer than " + std::to_string(config_version_));
  auto text = config::open_bundle(bundle, ca_public_key_, config_key_);
  if (!text.ok()) return err("install config: " + text.error());

  if (sharded_) {
    auto status = sharded_->hot_swap(*text);
    if (!status.ok()) return err("install config: " + status.error());
  } else {
    auto built =
        click::ShardedRouter::create(*text, options_.shards, shard_router_factory());
    if (!built.ok()) return err("install config: " + built.error());
    sharded_ = std::move(*built);
  }
  config_version_ = bundle.version;
  if (session_) session_->set_config_version(bundle.version);

  // EPC accounting: the config text plus the transition tables of
  // every rule set compiled so far. Lanes, hot-swap and reshard share
  // one engine per set, so each set counts once per enclave.
  free_epc(config_epc_bytes_);
  config_epc_bytes_ = text->size() + rulesets_.compiled_bytes();
  allocate_epc(config_epc_bytes_);
  return {};
}

click::ShardedRouter::RouterFactory EndBoxEnclave::shard_router_factory() {
  return [this](std::size_t i, const std::string& cfg) {
    ensure_shard_rigs(i + 1);
    return click::Router::from_config(cfg, shard_rigs_[i]->registry);
  };
}

Status EndBoxEnclave::ecall_reshard(std::size_t shards) {
  EcallGuard guard(*this);
  if (shards == 0) return err("reshard: shard count must be positive");
  if (!sharded_) return err("reshard: no middlebox configuration installed");
  auto status = sharded_->reshard(shards);
  if (!status.ok()) return err("reshard: " + status.error());
  return {};
}

Result<Bytes> EndBoxEnclave::ecall_handshake_init(crypto::RsaPublicKey server_key) {
  EcallGuard guard(*this);
  if (!certificate_) return err("handshake: not provisioned (attestation required)");
  if (!sharded_) return err("handshake: no middlebox configuration installed");
  vpn::VpnClientConfig vpn_config;
  vpn_config.encrypt_data = options_.encrypt_data;
  vpn_config.mtu = options_.mtu;
  vpn_config.config_version = config_version_;
  session_.emplace(rng_, *certificate_, enclave_key_, server_key, vpn_config);
  session_->set_buffer_pool(&pool_);
  return session_->create_handshake_init().serialize();
}

Status EndBoxEnclave::ecall_handshake_reply(ByteView wire) {
  EcallGuard guard(*this);
  if (!session_) return err("handshake: no session in progress");
  auto msg = vpn::WireMessage::parse(wire);
  if (!msg.ok()) return err(msg.error());
  return session_->process_handshake_reply(*msg);
}

bool EndBoxEnclave::run_click_burst(click::PacketBatch&& batch) {
  if (!sharded_) return false;
  // burst_tag stamps the arrival index — the per-flow ordering witness
  // consumers assert against.
  std::uint32_t tag = 0;
  for (net::Packet& packet : batch) packet.burst_tag = tag++;
  bool routed = sharded_->push_batch_to("from_device", std::move(batch));
  // Back on the ecall thread: rejected packets recycled into the
  // lane-local pools, so adopt the buffers into the main pool (the
  // ecall-boundary circulation callers acquire from never starves),
  // and charge the lanes' trusted-time reads as ocalls.
  for (auto& rig : shard_rigs_) {
    pool_.adopt_from(rig->pool);
    count_ocall(std::exchange(rig->context.trusted_time_calls, 0));
  }
  return routed;
}

Status EndBoxEnclave::ecall_process_egress_batch(click::PacketBatch&& batch,
                                                 EgressBatch& out) {
  EcallGuard guard(*this);
  out.accepted = out.rejected = 0;
  out.frame_count = 0;
  if (!connected()) return err("egress: tunnel not established");
  // Interface hardening: reject obviously malformed metadata before it
  // reaches element code (Iago-style attacks, section IV-B).
  for (const net::Packet& packet : batch)
    if (packet.payload.size() > 512 * 1024) return err("egress: oversized packet");

  std::uint32_t offered = static_cast<std::uint32_t>(batch.size());
  if (run_click_burst(std::move(batch))) {
    // Lane order: per-flow order is exact (a flow lives in one lane).
    for (std::size_t s = 0; s < sharded_->shard_count(); ++s) {
      for (net::Packet& packet : shard_rigs_[s]->accepted) {
        if (options_.c2c_flagging) packet.set_processed_flag();
        packet.decrypted_payload.clear();  // never leaks out of the enclave
        if (out.accepted == egress_wires_.size()) egress_wires_.emplace_back();
        packet.serialize_into(egress_wires_[out.accepted++]);
        pool_.release(std::move(packet));
      }
      shard_rigs_[s]->accepted.clear();
    }
    // The whole accepted burst is one run of the seal body.
    out.frame_count = session_->seal_packets_wire_at(
        std::span<const Bytes>(egress_wires_.data(), out.accepted), out.frames, 0);
  }
  // Packets that never reached ToDevice (discarded mid-graph) count as
  // rejected.
  out.rejected = offered > out.accepted ? offered - out.accepted : 0;
  rejected_ += out.rejected;
  return {};
}

Status EndBoxEnclave::ecall_process_ingress_batch(std::span<const Bytes> wires,
                                                  IngressBatch& out) {
  EcallGuard guard(*this);
  out.complete = out.accepted = out.rejected = out.bypassed = out.dropped = 0;
  out.packets.clear();
  if (!connected()) return err("ingress: tunnel not established");
  if (wires.size() > click::PacketBatch::kMaxBurst)
    return err("ingress: burst larger than kMaxBurst");

  // Stage 1: open every frame (decrypt in place inside pooled scratch)
  // and collect the completed packets into one burst for Click. A
  // refused frame drops alone, so one forged frame cannot spend the
  // replay slots of the frames opened before it or strand those after.
  ingress_stage_.clear();
  for (const Bytes& wire : wires) {
    // Pings stay off the data path (strict interface separation).
    if (!wire.empty() && static_cast<vpn::MsgType>(wire[0]) == vpn::MsgType::Ping) {
      ++out.dropped;
      continue;
    }
    // A failed open has already returned its body scratch to the pool.
    auto opened = session_->open_data_frame(wire, pool_.acquire_bytes());
    if (!opened.ok()) {
      ++out.dropped;
      continue;
    }
    if (!opened->has_value()) continue;  // fragment pending

    net::Packet packet = pool_.acquire();
    auto parsed = net::Packet::parse_into(**opened, packet);
    pool_.release_bytes(std::move(**opened));
    if (!parsed.ok()) {
      pool_.release(std::move(packet));
      ++out.dropped;
      continue;
    }
    ++out.complete;

    // Client-to-client optimisation (section IV-A): packets flagged as
    // already processed by the sender's EndBox bypass Click here.
    if (options_.c2c_flagging && packet.processed_flag()) {
      ++c2c_bypassed_;
      ++out.bypassed;
      ++out.accepted;
      packet.clear_processed_flag();
      out.packets.push_back(std::move(packet));
      continue;
    }
    ingress_stage_.push_back(std::move(packet));
  }

  // Stage 2: one batched Click traversal for everything that needs it.
  std::uint32_t to_click = static_cast<std::uint32_t>(ingress_stage_.size());
  if (to_click == 0) return {};
  std::uint32_t accepted_by_click = 0;
  if (run_click_burst(std::move(ingress_stage_))) {
    for (std::size_t s = 0; s < sharded_->shard_count(); ++s) {
      std::vector<net::Packet>& accepted = shard_rigs_[s]->accepted;
      for (net::Packet& packet : accepted) {
        // Only fan-out configs (a Tee whose branches both reach
        // ToDevice) can deliver more packets than came in; fail with
        // the Status contract instead of overflowing the batch.
        if (out.packets.full()) {
          for (auto& rig : shard_rigs_) rig->accepted.clear();
          return err("ingress: Click fan-out exceeded the batch capacity");
        }
        ++accepted_by_click;
        out.packets.push_back(std::move(packet));
      }
      accepted.clear();
    }
  }
  out.accepted += accepted_by_click;
  std::uint32_t rejected =
      to_click > accepted_by_click ? to_click - accepted_by_click : 0;
  out.rejected += rejected;
  rejected_ += rejected;
  return {};
}

Status EndBoxEnclave::ecall_create_ping_wire(Bytes& frame) {
  EcallGuard guard(*this);
  if (!connected()) return err("ping: tunnel not established");
  session_->create_ping_wire(frame);
  return {};
}

Result<vpn::PingInfo> EndBoxEnclave::ecall_handle_ping(ByteView wire) {
  EcallGuard guard(*this);
  if (!connected()) return err("ping: tunnel not established");
  auto msg = vpn::WireMessage::parse(wire);
  if (!msg.ok()) return err(msg.error());
  // Authenticity of ping messages is validated inside the enclave
  // (section III-E) — crafted pings fail here.
  return session_->process_ping(*msg);
}

Status EndBoxEnclave::ecall_forward_tls_key(const tls::SessionKeys& keys) {
  EcallGuard guard(*this);
  if (keys.enc_key.size() != 16 || keys.mac_key.size() != 32)
    return err("forward key: malformed key material");
  if (!key_store_.put(keys)) return err("forward key: key store at capacity");
  return {};
}

void EndBoxEnclave::ecall_add_ruleset(const std::string& name,
                                      std::vector<idps::SnortRule> rules) {
  EcallGuard guard(*this);
  // One store for every lane: graphs already running keep their engine.
  rulesets_[name] = std::move(rules);
}

EndBoxEnclave::StreamStatsSnapshot EndBoxEnclave::stream_stats() const {
  StreamStatsSnapshot snapshot;
  auto scan_router = [&](const click::Router& router) {
    for (const click::Element* element : router.elements()) {
      if (auto* ctx = dynamic_cast<const elements::CTXManager*>(element)) {
        const elements::StreamStats& stats = ctx->stream_stats();
        snapshot.flows_tracked += ctx->flows_tracked();
        snapshot.flows_classified += stats.flows_classified;
        snapshot.flows_expired += stats.flows_expired;
        snapshot.flows_rejected_full += ctx->table_stats().rejected_full;
        snapshot.bytes_buffered += stats.bytes_buffered;
        snapshot.bytes_buffered_peak =
            std::max(snapshot.bytes_buffered_peak, stats.bytes_buffered_peak);
        snapshot.segments_parked += stats.segments_parked;
        snapshot.segments_dropped_overflow += stats.segments_dropped_overflow;
        snapshot.segments_expired_age += stats.segments_expired_age;
      } else if (auto* ids = dynamic_cast<const elements::IDSMatcher*>(element)) {
        snapshot.stream_chunks += ids->stream_chunks();
        snapshot.evasions_caught += ids->stream_evasions();
        snapshot.flows_killed += ids->flows_killed();
        snapshot.prefiltered_bytes += ids->prefiltered_bytes();
        snapshot.confirmed_windows += ids->confirmed_windows();
        snapshot.fallback_scans += ids->fallback_scans();
      }
    }
  };
  if (sharded_)
    for (std::size_t i = 0; i < sharded_->shard_count(); ++i)
      scan_router(sharded_->shard(i));
  return snapshot;
}

}  // namespace endbox
