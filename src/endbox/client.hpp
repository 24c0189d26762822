// EndBoxClient: the untrusted half of the EndBox VPN client plus the
// perf-model cost accounting.
//
// The functional work (crypto, Click, parsing) happens inside the
// EndBoxEnclave; this wrapper performs the host-side duties — driving
// attestation, fetching config files (ocalls), moving wire bytes — and
// charges the calibrated cycle costs to the machine's CPU account so
// experiments measure throughput/latency in virtual time. The cost
// model is the paper's (section IV-A): a single-threaded OpenVPN
// client entering the enclave once per packet, charged to one core
// whatever lane count the enclave runs. send_packet and receive_wire
// call the enclave's two burst ecalls with a burst of one; burst
// callers use those ecalls directly and carry no virtual time.
#pragma once

#include <memory>
#include <optional>

#include "ca/authority.hpp"
#include "config/file_server.hpp"
#include "endbox/enclave.hpp"
#include "endbox/pipeline_cost.hpp"
#include "sim/cpu.hpp"
#include "sim/perf_model.hpp"

namespace endbox {

struct EndBoxClientOptions {
  sgx::SgxMode sgx_mode = sgx::SgxMode::Hardware;
  /// IV-A optimisation 1: one ecall per packet instead of one per
  /// crypto operation (evaluated in section V-G: +342% throughput).
  bool batched_ecalls = true;
  /// IV-A optimisation 3: QoS-flag client-to-client bypass.
  bool c2c_flagging = true;
  /// IV-A optimisation 2: false = ISP integrity-only traffic protection.
  bool encrypt_data = true;
  std::size_t mtu = 9000;
  /// Element-graph lanes inside the enclave (RSS flow sharding, one
  /// worker thread per busy lane). Functional only: virtual time
  /// charges the client's one core the same at any lane count.
  std::size_t shards = 1;
};

class EndBoxClient {
 public:
  EndBoxClient(std::string name, sgx::SgxPlatform& platform, Rng& rng,
               sim::CpuAccount& cpu, const sim::PerfModel& model,
               crypto::RsaPublicKey ca_public_key,
               EndBoxClientOptions options = {});

  const std::string& name() const { return name_; }
  EndBoxEnclave& enclave() { return *enclave_; }
  const EndBoxEnclave& enclave() const { return *enclave_; }
  const EndBoxClientOptions& options() const { return options_; }

  /// Full remote attestation + provisioning flow (Fig 4), one-time.
  Status attest(ca::CertificateAuthority& authority);

  /// Registers an IDPS rule set inside the enclave.
  void add_ruleset(const std::string& name, std::vector<idps::SnortRule> rules);

  /// Installs a config bundle; returns completion time including the
  /// in-enclave decrypt + hot-swap (Table II costs; fetch is separate).
  Result<sim::Time> install_config(const config::ConfigBundle& bundle,
                                   sim::Time now);

  // ---- Connection -----------------------------------------------------
  Result<Bytes> start_connect(const crypto::RsaPublicKey& server_key);
  Status finish_connect(ByteView reply_wire);
  bool connected() const { return enclave_->connected(); }

  // ---- Data path ---------------------------------------------------------
  struct SendResult {
    bool accepted = false;
    std::vector<Bytes> wire;  ///< tunnel messages to transmit
    sim::Time done = 0;       ///< when the client CPU finished the packet
  };
  Result<SendResult> send_packet(net::Packet packet, sim::Time now);

  struct RecvResult {
    bool complete = false;
    bool accepted = false;
    net::Packet packet;
    sim::Time done = 0;
  };
  Result<RecvResult> receive_wire(ByteView wire, sim::Time now);

  // ---- Control channel ------------------------------------------------------
  /// Seals a keep-alive ping into `frame` (caller reuses the buffer,
  /// keeping the keep-alive loop allocation-free).
  Status create_ping_wire(Bytes& frame, sim::Time now, sim::Time* done = nullptr);

  struct PingOutcome {
    vpn::PingInfo info;
    bool update_started = false;  ///< a newer config version was announced
    sim::Time done = 0;
  };
  /// Handles a server ping; when it announces a new version, fetches
  /// the bundle from `file_server` (asynchronously in the background,
  /// section III-E) and installs it. `done` includes fetch+decrypt+swap.
  Result<PingOutcome> handle_server_ping(ByteView wire,
                                         const config::ConfigFileServer* file_server,
                                         sim::Time now);

  /// The instrumented-TLS key forwarding path (management interface).
  Status forward_tls_key(const tls::SessionKeys& keys);

  /// Persisted sealed credentials (untrusted storage).
  const Bytes& sealed_credentials() const { return sealed_credentials_; }

 private:
  /// Charges cycles for processing `payload_bytes` across `fragments`
  /// tunnel messages, including pipeline and enclave costs.
  sim::Time charge_data_path(sim::Time now, std::size_t payload_bytes,
                             std::size_t fragments, bool run_click);

  std::string name_;
  Rng& rng_;
  sim::CpuAccount& cpu_;
  const sim::PerfModel& model_;
  EndBoxClientOptions options_;
  std::unique_ptr<EndBoxEnclave> enclave_;
  Bytes sealed_credentials_;
};

}  // namespace endbox
