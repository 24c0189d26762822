// Baseline client: unmodified OpenVPN ("vanilla OpenVPN" in the
// evaluation set-ups). No enclave, no Click — just the tunnel, enrolled
// via the conventional PKI path. Shares the send API shape with
// EndBoxClient so benches can swap set-ups.
#pragma once

#include "ca/authority.hpp"
#include "net/packet.hpp"
#include "sim/cpu.hpp"
#include "sim/perf_model.hpp"
#include "vpn/client.hpp"

namespace endbox {

class VanillaVpnClient {
 public:
  VanillaVpnClient(std::string name, Rng& rng, sim::CpuAccount& cpu,
                   const sim::PerfModel& model, std::size_t mtu = 9000);

  const std::string& name() const { return name_; }

  /// Conventional PKI enrolment (no attestation — this is the
  /// traditional OpenVPN deployment baselines use).
  Status enroll(ca::CertificateAuthority& authority);

  Result<Bytes> start_connect(const crypto::RsaPublicKey& server_key);
  Status finish_connect(ByteView reply_wire);
  bool connected() const { return session_ && session_->established(); }

  struct SendResult {
    std::vector<Bytes> wire;
    sim::Time done = 0;
  };
  Result<SendResult> send_packet(const net::Packet& packet, sim::Time now);
  /// Raw IP payload variant used by the throughput harness.
  Result<SendResult> send_bytes(ByteView ip_packet, sim::Time now);

 private:
  std::string name_;
  Rng& rng_;
  sim::CpuAccount& cpu_;
  const sim::PerfModel& model_;
  std::size_t mtu_;
  crypto::RsaKeyPair key_;
  std::optional<ca::Certificate> certificate_;
  std::optional<vpn::VpnClientSession> session_;
  Bytes packet_scratch_;  ///< reused by send_packet's serialisation
};

}  // namespace endbox
