#include "endbox/client.hpp"

#include "common/hash.hpp"

namespace endbox {

EndBoxClient::EndBoxClient(std::string name, sgx::SgxPlatform& platform, Rng& rng,
                           sim::CpuAccount& cpu, const sim::PerfModel& model,
                           crypto::RsaPublicKey ca_public_key,
                           EndBoxClientOptions options)
    : name_(std::move(name)), rng_(rng), cpu_(cpu), model_(model), options_(options) {
  EndBoxEnclave::Options enclave_options;
  enclave_options.encrypt_data = options.encrypt_data;
  enclave_options.c2c_flagging = options.c2c_flagging;
  enclave_options.mtu = options.mtu;
  enclave_options.shards = options.shards;
  enclave_ = std::make_unique<EndBoxEnclave>(platform, options.sgx_mode,
                                             ca_public_key, rng, enclave_options);
}

Status EndBoxClient::attest(ca::CertificateAuthority& authority) {
  // Fig 4, steps 1-2: key pair + report, quoted by the QE.
  sgx::QuotingEnclave qe(enclave_->platform());
  auto quote = qe.quote(enclave_->ecall_create_report());
  if (!quote.ok()) return err("attest: " + quote.error());
  // Steps 3-6 run at the CA (which consults the IAS).
  auto response = authority.provision(quote->serialize(), enclave_->ecall_public_key());
  if (!response.ok()) return err("attest: " + response.error());
  auto status = enclave_->ecall_store_provisioning(*response);
  if (!status.ok()) return status;
  // Step 7: seal credentials so attestation happens only once.
  sealed_credentials_ = enclave_->ecall_sealed_credentials();
  return {};
}

void EndBoxClient::add_ruleset(const std::string& name,
                               std::vector<idps::SnortRule> rules) {
  enclave_->ecall_add_ruleset(name, std::move(rules));
}

Result<sim::Time> EndBoxClient::install_config(const config::ConfigBundle& bundle,
                                               sim::Time now) {
  auto status = enclave_->ecall_install_config(bundle);
  if (!status.ok()) return err(status.error());
  // Table II: in-enclave decryption then hot-swap; EndBox skips vanilla
  // Click's ToDevice/FromDevice fd set-up because OpenVPN owns the
  // device (the 0.74 ms vs 2.4 ms difference).
  double decrypt_cycles =
      model_.config_decrypt_cycles_per_byte * static_cast<double>(bundle.payload.size());
  sim::Time done = cpu_.charge(now, decrypt_cycles);
  done += static_cast<sim::Time>(model_.config_decrypt_base_ns);
  done += static_cast<sim::Time>(model_.click_hotswap_base_ns);
  return done;
}

Result<Bytes> EndBoxClient::start_connect(const crypto::RsaPublicKey& server_key) {
  return enclave_->ecall_handshake_init(server_key);
}

Status EndBoxClient::finish_connect(ByteView reply_wire) {
  return enclave_->ecall_handshake_reply(reply_wire);
}

Status EndBoxClient::connect_resilient(
    const crypto::RsaPublicKey& server_key,
    std::function<void(ByteView, sim::Time)> send, sim::Time now,
    vpn::ControlPlaneConfig config) {
  vpn::ClientControlPlane::Hooks hooks;
  // ecall_handshake_init re-emplaces a fresh enclave session (new
  // nonce, old keys discarded), so the control plane calling make_init
  // IS the re-key.
  hooks.make_init = [this, server_key]() { return start_connect(server_key); };
  hooks.on_reply = [this](ByteView wire) { return finish_connect(wire); };
  hooks.make_ping = [this](Bytes& frame) {
    return enclave_->ecall_create_ping_wire(frame);
  };
  hooks.on_ping = [this](ByteView wire, sim::Time t) -> Status {
    auto outcome = handle_server_ping(wire, control_file_server_, t);
    if (!outcome.ok()) return err(outcome.error());
    return {};
  };
  // Every control frame leaving the host — first init, retransmits,
  // keepalives — pays the control-message cost before transmission.
  hooks.send = [this, user_send = std::move(send)](ByteView frame,
                                                   sim::Time t) {
    cpu_.charge(t, model_.vpn_control_msg_cycles);
    user_send(frame, t);
  };
  // Decorrelate backoff jitter per client so a fleet re-connecting
  // after a blackout doesn't thunder back in lock-step.
  config.seed ^= hash_bytes(name_.data(), name_.size());
  control_plane_ =
      std::make_unique<vpn::ClientControlPlane>(config, std::move(hooks));
  return control_plane_->start(now);
}

void EndBoxClient::advance_control(sim::Time now) {
  if (control_plane_) control_plane_->advance(now);
}

Status EndBoxClient::deliver_control(ByteView wire, sim::Time now) {
  if (!control_plane_) return err("control: connect_resilient not started");
  return control_plane_->deliver(wire, now);
}

sim::Time EndBoxClient::charge_data_path(sim::Time now, std::size_t payload_bytes,
                                         std::size_t fragments, bool run_click) {
  return charge_data_path_batch(now, payload_bytes, fragments, 1, run_click);
}

sim::Time EndBoxClient::charge_data_path_batch(sim::Time now,
                                               std::size_t payload_bytes,
                                               std::size_t fragments,
                                               std::size_t packets,
                                               bool run_click) {
  double per_byte_crypto = options_.encrypt_data
                               ? model_.vpn_crypto_cycles_per_byte
                               : model_.vpn_integrity_cycles_per_byte;
  double cycles =
      static_cast<double>(fragments) * model_.vpn_packet_cycles +
      per_byte_crypto * static_cast<double>(payload_bytes);

  // Partitioning cost (both SIM and hardware modes split OpenVPN).
  cycles += static_cast<double>(fragments) * model_.partition_packet_cycles +
            model_.partition_cycles_per_byte * static_cast<double>(payload_bytes);

  std::size_t shards = enclave_->shard_count();
  bool sharded_click = run_click && shards > 1 && enclave_->router();

  double click_cycles = 0;
  if (run_click && !sharded_click && enclave_->router())
    click_cycles = model_.enclave_click_packet_cycles +
                   pipeline_cycles_sharded(*enclave_->router(), payload_bytes,
                                           packets, shards, model_);

  double compute_multiplier = 1.0;
  if (options_.sgx_mode == sgx::SgxMode::Hardware) {
    // A batch ecall crosses the enclave boundary once for the whole
    // burst — the transition cost no longer scales with packets.
    unsigned transitions = options_.batched_ecalls
                               ? model_.ecalls_per_packet_optimised
                               : model_.ecalls_per_packet_unoptimised;
    cycles += static_cast<double>(transitions) * model_.enclave_transition_cycles;
    cycles += model_.epc_cycles_per_byte * static_cast<double>(payload_bytes);
    compute_multiplier = model_.enclave_compute_multiplier;
    click_cycles *= compute_multiplier;
  }
  cycles += click_cycles;

  if (!sharded_click) return cpu_.charge(now, cycles);

  // Sharded burst, honest multi-core accounting: the single-threaded
  // part (tunnel crypto, boundary copies, the graph-entry call, the
  // per-frame lane dispatch) charges first, then every lane's slice of
  // the pipeline runs as its own core's job. The burst completes at
  // the critical path while *all* lanes' cycles count as busy time —
  // shard-count sweeps no longer get the work of N cores for the price
  // of one.
  // Lane dispatch (RSS hash + hand-off per packet) runs inside the
  // batch ecall like the rest of the Click work, so it pays the EPC
  // compute multiplier too.
  cycles += model_.enclave_click_packet_cycles * compute_multiplier;
  cycles += model_.lane_dispatch_cycles_per_frame * static_cast<double>(packets) *
            compute_multiplier;
  pipeline_cycles_per_shard(*enclave_->router(), payload_bytes, packets, shards,
                            model_, shard_cycles_scratch_);
  for (double& shard : shard_cycles_scratch_) shard *= compute_multiplier;
  return cpu_.charge_parallel(now, cycles, shard_cycles_scratch_);
}

Result<EndBoxClient::SendResult> EndBoxClient::send_packet(net::Packet packet,
                                                           sim::Time now) {
  std::size_t payload_bytes = packet.wire_size();
  auto egress = enclave_->ecall_process_egress(std::move(packet));
  if (!egress.ok()) return err(egress.error());

  SendResult result;
  result.accepted = egress->accepted;
  std::size_t fragments = std::max<std::size_t>(egress->wire.size(), 1);
  result.done = charge_data_path(now, payload_bytes, fragments, /*run_click=*/true);
  result.wire = std::move(egress->wire);
  return result;
}

Result<EndBoxClient::RecvResult> EndBoxClient::receive_wire(ByteView wire,
                                                            sim::Time now) {
  auto ingress = enclave_->ecall_process_ingress(wire);
  if (!ingress.ok()) {
    // A frame that fails to open while we believe we're established is
    // epoch evidence: a streak of these re-keys (the server restarted
    // and its ledger no longer has our session).
    if (control_plane_) control_plane_->note_auth_failure(now);
    return err(ingress.error());
  }
  if (control_plane_) control_plane_->note_peer_activity(now);

  RecvResult result;
  result.complete = ingress->complete;
  result.accepted = ingress->accepted;
  std::size_t payload_bytes = wire.size();
  // Click runs on the reassembled packet only, and not at all when the
  // peer's QoS flag let us bypass it (charged accordingly).
  bool ran_click = ingress->complete && !ingress->click_bypassed;
  result.done = charge_data_path(now, payload_bytes, 1, ran_click);
  if (ingress->complete && ingress->accepted) result.packet = std::move(ingress->packet);
  return result;
}

Result<EndBoxClient::BatchSendResult> EndBoxClient::send_batch(
    click::PacketBatch&& batch, EgressBatch& out, sim::Time now) {
  std::size_t packets = batch.size();
  auto status = enclave_->ecall_process_egress_batch(std::move(batch), out);
  if (!status.ok()) return err(status.error());

  BatchSendResult result;
  result.accepted = out.accepted;
  result.rejected = out.rejected;
  result.frames = out.frame_count;
  // Mirror send_packet's accounting: every packet pays at least one
  // fragment's per-message cost, even when rejected.
  std::size_t fragments = out.frame_count + out.rejected;
  result.done = charge_data_path_batch(now, out.offered_bytes,
                                       std::max<std::size_t>(fragments, 1),
                                       packets, /*run_click=*/true);
  return result;
}

Result<EndBoxClient::BatchRecvResult> EndBoxClient::receive_batch(
    std::span<const Bytes> wires, IngressBatch& out, sim::Time now) {
  auto status = enclave_->ecall_process_ingress_batch(wires, out);
  if (!status.ok()) {
    // Batch opening stops at the first unauthenticated frame — same
    // epoch-change evidence as the per-frame path.
    if (control_plane_) control_plane_->note_auth_failure(now);
    return err(status.error());
  }
  if (control_plane_ && !wires.empty()) control_plane_->note_peer_activity(now);

  BatchRecvResult result;
  result.complete = out.complete;
  result.accepted = out.accepted;
  std::size_t payload_bytes = 0;
  for (const Bytes& wire : wires) payload_bytes += wire.size();
  std::size_t ran_click = out.complete - out.bypassed;
  result.done = charge_data_path_batch(now, payload_bytes,
                                       std::max<std::size_t>(wires.size(), 1),
                                       std::max<std::size_t>(ran_click, 1),
                                       /*run_click=*/ran_click > 0);
  return result;
}

Result<Bytes> EndBoxClient::create_ping(sim::Time now, sim::Time* done) {
  auto ping = enclave_->ecall_create_ping();
  if (!ping.ok()) return err(ping.error());
  sim::Time completed = cpu_.charge(now, model_.vpn_control_msg_cycles);
  if (done) *done = completed;
  return ping;
}

Status EndBoxClient::create_ping_wire(Bytes& frame, sim::Time now,
                                      sim::Time* done) {
  auto status = enclave_->ecall_create_ping_wire(frame);
  if (!status.ok()) return status;
  sim::Time completed = cpu_.charge(now, model_.vpn_control_msg_cycles);
  if (done) *done = completed;
  return {};
}

Result<EndBoxClient::PingOutcome> EndBoxClient::handle_server_ping(
    ByteView wire, const config::ConfigFileServer* file_server, sim::Time now) {
  auto info = enclave_->ecall_handle_ping(wire);
  if (!info.ok()) return err(info.error());

  PingOutcome outcome;
  outcome.info = *info;
  outcome.done = cpu_.charge(now, model_.vpn_control_msg_cycles);

  if (info->config_version > enclave_->config_version() && file_server) {
    outcome.update_started = true;
    // Fetch the announced bundle from the config file server (an ocall
    // plus a network round trip, 0.86 ms in Table II). The fetch and
    // install run in the background: traffic keeps flowing meanwhile.
    auto bundle = file_server->fetch(info->config_version);
    if (!bundle) return err("announced config version not on file server");
    sim::Time fetch_done = outcome.done + static_cast<sim::Time>(model_.config_fetch_ns);
    auto installed = install_config(*bundle, fetch_done);
    if (!installed.ok()) return err(installed.error());
    outcome.done = *installed;
  }
  return outcome;
}

Status EndBoxClient::forward_tls_key(const tls::SessionKeys& keys) {
  return enclave_->ecall_forward_tls_key(keys);
}

}  // namespace endbox
