#include "endbox/vanilla_client.hpp"

namespace endbox {

VanillaVpnClient::VanillaVpnClient(std::string name, Rng& rng, sim::CpuAccount& cpu,
                                   const sim::PerfModel& model, std::size_t mtu)
    : name_(std::move(name)),
      rng_(rng),
      cpu_(cpu),
      model_(model),
      mtu_(mtu),
      key_(crypto::rsa_generate(rng)) {}

Status VanillaVpnClient::enroll(ca::CertificateAuthority& authority) {
  auto cert = authority.issue_legacy_certificate(key_.pub);
  if (!cert.ok()) return err(cert.error());
  certificate_ = *cert;
  return {};
}

Result<Bytes> VanillaVpnClient::start_connect(const crypto::RsaPublicKey& server_key) {
  if (!certificate_) return err("vanilla client: not enrolled");
  vpn::VpnClientConfig config;
  config.mtu = mtu_;
  session_.emplace(rng_, *certificate_, key_, server_key, config);
  return session_->create_handshake_init().serialize();
}

Status VanillaVpnClient::finish_connect(ByteView reply_wire) {
  if (!session_) return err("vanilla client: no handshake in progress");
  auto msg = vpn::WireMessage::parse(reply_wire);
  if (!msg.ok()) return err(msg.error());
  return session_->process_handshake_reply(*msg);
}

Result<VanillaVpnClient::SendResult> VanillaVpnClient::send_bytes(ByteView ip_packet,
                                                                  sim::Time now) {
  if (!connected()) return err("vanilla client: not connected");
  SendResult result;
  session_->seal_packet_wire_at(ip_packet, result.wire, 0);
  double cycles =
      static_cast<double>(result.wire.size()) * model_.vpn_packet_cycles +
      model_.vpn_crypto_cycles_per_byte * static_cast<double>(ip_packet.size());
  result.done = cpu_.charge(now, cycles);
  return result;
}

Result<VanillaVpnClient::SendResult> VanillaVpnClient::send_packet(
    const net::Packet& packet, sim::Time now) {
  packet.serialize_into(packet_scratch_);
  return send_bytes(packet_scratch_, now);
}

}  // namespace endbox
