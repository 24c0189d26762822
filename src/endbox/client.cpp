#include "endbox/client.hpp"

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

sim::Time EndBoxClient::charge_data_path(sim::Time now, std::size_t payload_bytes,
                                         std::size_t fragments, bool run_click) {
  double per_byte_crypto = options_.encrypt_data
                               ? model_.vpn_crypto_cycles_per_byte
                               : model_.vpn_integrity_cycles_per_byte;
  double cycles =
      static_cast<double>(fragments) * model_.vpn_packet_cycles +
      per_byte_crypto * static_cast<double>(payload_bytes);

  // Partitioning cost (both SIM and hardware modes split OpenVPN).
  cycles += static_cast<double>(fragments) * model_.partition_packet_cycles +
            model_.partition_cycles_per_byte * static_cast<double>(payload_bytes);

  double click_cycles = 0;
  if (run_click && enclave_->router())
    click_cycles = model_.enclave_click_packet_cycles +
                   pipeline_cycles(*enclave_->router(), payload_bytes, model_);

  if (options_.sgx_mode == sgx::SgxMode::Hardware) {
    // One ecall per packet, or one per crypto operation without the
    // section IV-A batching.
    unsigned transitions = options_.batched_ecalls
                               ? model_.ecalls_per_packet_optimised
                               : model_.ecalls_per_packet_unoptimised;
    cycles += static_cast<double>(transitions) * model_.enclave_transition_cycles;
    cycles += model_.epc_cycles_per_byte * static_cast<double>(payload_bytes);
    click_cycles *= model_.enclave_compute_multiplier;
  }
  cycles += click_cycles;
  return cpu_.charge(now, cycles);
}

Result<EndBoxClient::SendResult> EndBoxClient::send_packet(net::Packet packet,
                                                           sim::Time now) {
  std::size_t payload_bytes = packet.wire_size();
  click::PacketBatch batch;
  batch.push_back(std::move(packet));
  EgressBatch egress;
  auto status = enclave_->ecall_process_egress_batch(std::move(batch), egress);
  if (!status.ok()) return err(status.error());

  SendResult result;
  result.accepted = egress.accepted > 0;
  result.wire = std::move(egress.frames);
  result.wire.resize(egress.frame_count);
  std::size_t fragments = std::max<std::size_t>(result.wire.size(), 1);
  result.done = charge_data_path(now, payload_bytes, fragments, /*run_click=*/true);
  return result;
}

Result<EndBoxClient::RecvResult> EndBoxClient::receive_wire(ByteView wire,
                                                            sim::Time now) {
  Bytes frame(wire.begin(), wire.end());
  IngressBatch ingress;
  auto status = enclave_->ecall_process_ingress_batch({&frame, 1}, ingress);
  if (!status.ok()) return err(status.error());
  if (ingress.dropped > 0) return err("ingress: frame dropped");

  RecvResult result;
  result.complete = ingress.complete > 0;
  result.accepted = ingress.accepted > 0;
  std::size_t payload_bytes = wire.size();
  // Click runs on the reassembled packet only, and not at all when the
  // peer's QoS flag let us bypass it (charged accordingly).
  bool ran_click = result.complete && ingress.bypassed == 0;
  result.done = charge_data_path(now, payload_bytes, 1, ran_click);
  if (result.complete && result.accepted) result.packet = std::move(ingress.packets[0]);
  return result;
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
