// Shared test/bench harness: a complete EndBox deployment in one
// object — IAS, CA, VPN/EndBox server, a star topology and any number
// of attested clients — so integration tests and benchmarks assemble
// scenarios in a few lines.
//
// Worlds are parameterisable (WorldOptions) and deterministic: the one
// experiment seed fixes every random choice, and each client draws from
// its own forked stream so adding client k never perturbs client k+1.
//
// Virtual time prices the per-packet path only (send_packet /
// handle_wire: one core per client, one OpenVPN process per server
// session). run_uniform_traffic_batched exercises the real burst path
// — batch ecalls, lanes, VpnServer::open_batch — and charges no CPU
// account.
#pragma once

#include <memory>
#include <vector>

#include "endbox/client.hpp"
#include "endbox/configs.hpp"
#include "endbox/server.hpp"
#include "endbox/vanilla_client.hpp"
#include "idps/snort_rules.hpp"
#include "netsim/topology.hpp"

namespace endbox::testing {

/// Everything a World's constructor can vary. Defaults reproduce the
/// single-client deployments the integration tests use.
struct WorldOptions {
  std::uint64_t seed = 0xeb0c5eed;
  std::size_t clients = 0;  ///< built (attested + connected) eagerly
  UseCase use_case = UseCase::Nop;
  ServerMode server_mode = ServerMode::Plain;
  vpn::VpnServerConfig vpn_config = {};
  EndBoxClientOptions client_options = {};
  bool encrypt_config = true;
  netsim::StarTopologyOptions topology = {};
};

/// One client machine: private RNG stream, class-A host in the star
/// topology, single-core CPU slice and an EndBox client.
struct ClientRig {
  Rng rng;  ///< forked from the world seed; owned so streams never interleave
  sim::CpuAccount cpu;
  sgx::SgxPlatform platform;
  EndBoxClient client;

  ClientRig(const std::string& name, Rng stream, const sim::Clock& clock,
            const netsim::Host& host, const sim::PerfModel& model,
            crypto::RsaPublicKey ca_key, EndBoxClientOptions options)
      : rng(stream),
        cpu(host.make_single_core()),  // OpenVPN is single-threaded
        platform(name, rng, clock),
        client(name, platform, rng, cpu, model, ca_key, options) {}
};

struct World {
  WorldOptions options;
  Rng rng;
  sim::Clock clock;
  sim::PerfModel model;
  netsim::StarTopology topology;
  sgx::AttestationService ias{rng};
  ca::CertificateAuthority authority{rng, ias};
  sim::CpuAccount server_cpu;
  EndBoxServer server;
  std::vector<std::unique_ptr<ClientRig>> rigs;
  std::vector<idps::SnortRule> community_rules;

  explicit World(const WorldOptions& opts)
      : options(opts),
        rng(opts.seed),
        topology(model, opts.topology),
        server_cpu(sim::PerfModel{}.server_cores, sim::PerfModel{}.server_hz),
        server(rng, authority, server_cpu, model, opts.server_mode,
               opts.vpn_config) {
    authority.allow_measurement(sgx::measure(std::string(kEndBoxEnclaveIdentity)));
    Rng rules_rng(7);
    community_rules = idps::generate_community_ruleset(377, rules_rng);
    server.add_ruleset("community", community_rules);
    if (opts.clients > 0) {
      auto bundle = publish(opts.use_case, 2, opts.encrypt_config);
      for (std::size_t i = 0; i < opts.clients; ++i)
        add_client(bundle, opts.client_options);
    }
  }

  explicit World(std::uint64_t seed = 0xeb0c5eed,
                 ServerMode server_mode = ServerMode::Plain,
                 vpn::VpnServerConfig vpn_config = {})
      : World(make_options(seed, server_mode, std::move(vpn_config))) {}

  static WorldOptions make_options(std::uint64_t seed, ServerMode server_mode,
                                   vpn::VpnServerConfig vpn_config) {
    WorldOptions opts;
    opts.seed = seed;
    opts.server_mode = server_mode;
    opts.vpn_config = std::move(vpn_config);
    return opts;
  }

  /// Publishes the initial middlebox configuration as version 2 (fresh
  /// enclaves start at version 0 and install whatever is announced).
  config::ConfigBundle publish(UseCase use_case, std::uint32_t version = 2,
                               bool encrypt = true, std::uint32_t grace = 0) {
    auto bundle = server.publish_config(version, use_case_config(use_case),
                                        encrypt, grace, clock.now());
    if (!bundle.ok()) throw std::runtime_error("publish failed: " + bundle.error());
    return *bundle;
  }

  /// Creates, attests and fully connects an EndBox client running the
  /// given bundle.
  EndBoxClient& add_client(const config::ConfigBundle& bundle,
                           EndBoxClientOptions options = {}) {
    std::size_t index = rigs.size();
    std::string name = "client-" + std::to_string(index + 1);
    topology.add_client(name);
    auto rig = std::make_unique<ClientRig>(
        name, rng.fork(index), clock, topology.client_host(index), model,
        authority.public_key(), options);
    EndBoxClient& client = rig->client;
    ias.register_platform(rig->platform.platform_id(),
                          rig->platform.attestation_key().pub);
    if (options.sgx_mode == sgx::SgxMode::Hardware) {
      if (auto s = client.attest(authority); !s.ok())
        throw std::runtime_error("attest: " + s.error());
    } else {
      // Simulation-mode enclaves cannot be remotely attested (like real
      // SGX SIM mode); performance experiments provision them through
      // the conventional PKI path instead.
      auto& key = client.enclave().ecall_public_key();
      auto cert = authority.issue_legacy_certificate(key);
      if (!cert.ok()) throw std::runtime_error(cert.error());
      ca::ProvisioningResponse response;
      response.certificate = *cert;
      response.encrypted_config_key =
          crypto::rsa_encrypt(key, authority.config_key() % key.n);
      if (auto s = client.enclave().ecall_store_provisioning(response); !s.ok())
        throw std::runtime_error("sim provision: " + s.error());
    }
    client.add_ruleset("community", community_rules);
    if (auto t = client.install_config(bundle, clock.now()); !t.ok())
      throw std::runtime_error("install: " + t.error());
    connect(client);
    rigs.push_back(std::move(rig));
    return client;
  }

  void connect(EndBoxClient& client) {
    auto init = client.start_connect(server.public_key());
    if (!init.ok()) throw std::runtime_error("connect: " + init.error());
    auto handled = server.handle_wire(*init, clock.now());
    if (!handled.ok()) throw std::runtime_error("connect: " + handled.error());
    auto& done = std::get<vpn::VpnServer::HandshakeDone>(handled->event);
    if (auto s = client.finish_connect(done.reply_wire); !s.ok())
      throw std::runtime_error("connect: " + s.error());
  }

  /// Sends one packet client->server; returns the PacketIn event (or
  /// the error that blocked it).
  Result<vpn::VpnServer::PacketIn> send_through(EndBoxClient& client,
                                                net::Packet packet) {
    auto sent = client.send_packet(std::move(packet), clock.now());
    if (!sent.ok()) return err(sent.error());
    if (!sent->accepted) return err("rejected by client-side middlebox");
    for (const auto& wire : sent->wire) {
      auto handled = server.handle_wire(wire, clock.now());
      if (!handled.ok()) return err(handled.error());
      if (auto* in = std::get_if<vpn::VpnServer::PacketIn>(&handled->event))
        return *in;
    }
    return err("fragments pending (packet larger than expected)");
  }

  /// Like send_through, but for client `i` with wire fragments carried
  /// over that client's access link and the shared uplink, so the
  /// server sees network arrival times and the topology counts bytes.
  Result<vpn::VpnServer::PacketIn> send_from(std::size_t i, net::Packet packet) {
    ClientRig& rig = *rigs.at(i);
    sim::Time now = clock.now();
    auto sent = rig.client.send_packet(std::move(packet), now);
    if (!sent.ok()) return err(sent.error());
    if (!sent->accepted) return err("rejected by client-side middlebox");
    for (const auto& wire : sent->wire) {
      sim::Time arrival = topology.deliver_to_server(i, now, wire.size());
      auto handled = server.handle_wire(wire, arrival);
      if (!handled.ok()) return err(handled.error());
      if (auto* in = std::get_if<vpn::VpnServer::PacketIn>(&handled->event))
        return *in;
    }
    return err("fragments pending (packet larger than expected)");
  }

  /// Outcome of run_uniform_traffic: what the server saw and what it
  /// paid for it — the quantities the Fig 10a scalability claims are
  /// stated in.
  struct TrafficReport {
    std::uint64_t offered = 0;    ///< packets offered across all clients
    std::uint64_t delivered = 0;  ///< PacketIn events at the server
    std::vector<std::uint64_t> per_client_delivered;
    double server_busy_core_ns = 0;  ///< server CPU work during the run

    double server_cost_per_packet_ns() const {
      return delivered == 0 ? 0.0
                            : server_busy_core_ns / static_cast<double>(delivered);
    }
    double server_cost_per_client_ns() const {
      return per_client_delivered.empty()
                 ? 0.0
                 : server_busy_core_ns /
                       static_cast<double>(per_client_delivered.size());
    }
  };

  /// Every client sends `packets_per_client` benign packets round-robin
  /// through the topology. Deterministic for a fixed world seed.
  TrafficReport run_uniform_traffic(std::uint64_t packets_per_client,
                                    std::size_t payload = 1400) {
    TrafficReport report;
    report.per_client_delivered.assign(rigs.size(), 0);
    double busy_before = server_cpu.busy_core_ns();
    for (std::uint64_t k = 0; k < packets_per_client; ++k) {
      for (std::size_t i = 0; i < rigs.size(); ++i) {
        ++report.offered;
        auto in = send_from(i, benign_packet_from(i, payload));
        if (in.ok()) {
          ++report.delivered;
          ++report.per_client_delivered[i];
        }
      }
    }
    report.server_busy_core_ns = server_cpu.busy_core_ns() - busy_before;
    return report;
  }

  /// Batched counterpart of run_uniform_traffic, functional only:
  /// clients push bursts of `burst` packets through one egress batch
  /// ecall (a sharded enclave spreads them over its lanes by flow), the
  /// sealed frames cross the topology, and the server opens each train
  /// with one VpnServer::open_batch. No CPU account is charged.
  /// `flows` spreads each client's packets over that many 5-tuples
  /// (distinct source ports) so RSS sharding has flows to balance.
  TrafficReport run_uniform_traffic_batched(std::uint64_t packets_per_client,
                                            std::size_t burst = 32,
                                            std::size_t payload = 1400,
                                            std::size_t flows = 1) {
    burst = std::min(burst, click::PacketBatch::kMaxBurst);
    if (flows == 0) flows = 1;
    TrafficReport report;
    report.per_client_delivered.assign(rigs.size(), 0);
    click::PacketBatch batch;
    EgressBatch egress;
    vpn::VpnServer::OpenBatch opened;
    for (std::uint64_t sent_so_far = 0; sent_so_far < packets_per_client;) {
      std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(burst, packets_per_client - sent_so_far));
      for (std::size_t i = 0; i < rigs.size(); ++i) {
        EndBoxEnclave& enclave = rigs[i]->client.enclave();
        net::PacketPool& pool = enclave.packet_pool();
        for (std::size_t k = 0; k < n; ++k) {
          net::Packet packet = benign_packet_from(i, payload);
          packet.src_port = static_cast<std::uint16_t>(
              40000 + (sent_so_far + k) % flows);
          // Steal pooled capacity for the payload before filling it, so
          // warm worlds stop allocating per packet.
          Bytes pooled = pool.acquire_bytes();
          if (pooled.capacity() >= payload) {
            pooled.assign(payload, 'x');
            packet.payload = std::move(pooled);
          }
          batch.push_back(std::move(packet));
        }
        report.offered += n;
        sim::Time now = clock.now();
        auto status = enclave.ecall_process_egress_batch(std::move(batch), egress);
        batch.clear();
        if (!status.ok()) continue;
        std::span<const Bytes> frames(egress.frames.data(), egress.frame_count);
        for (const Bytes& frame : frames) topology.deliver_to_server(i, now, frame.size());
        server.vpn().open_batch(frames, now, opened);
        report.delivered += opened.complete;
        report.per_client_delivered[i] += opened.complete;
      }
      sent_so_far += n;
    }
    return report;
  }

  net::Packet benign_packet(std::size_t payload = 1400, std::uint16_t dport = 5001) {
    return net::Packet::udp(net::Ipv4(10, 8, 0, 2), net::Ipv4(10, 0, 0, 1), 40000,
                            dport, Bytes(payload, 'x'));
  }

  /// benign_packet with a per-client source address (10.8.x.y).
  net::Packet benign_packet_from(std::size_t i, std::size_t payload = 1400,
                                 std::uint16_t dport = 5001) {
    auto host_part = static_cast<std::uint32_t>(i + 2);
    net::Ipv4 src(10, 8, static_cast<std::uint8_t>(host_part >> 8),
                  static_cast<std::uint8_t>(host_part & 0xff));
    return net::Packet::udp(src, net::Ipv4(10, 0, 0, 1), 40000, dport,
                            Bytes(payload, 'x'));
  }
};

}  // namespace endbox::testing
