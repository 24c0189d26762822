// Experiment testbed: assembles the evaluation set-ups of section V-B
// in a few lines each, and adapts them to the iperf harness.
//
//   VanillaOpenVpn — unmodified OpenVPN client + plain VPN server
//   OpenVpnClick   — unmodified client + server-side Click instances
//   EndBoxSim      — EndBox client, SGX simulation mode
//   EndBoxSgx      — EndBox client, SGX hardware mode
//   VanillaClick   — no VPN; a single-threaded Click process at the server
//
// Machines mirror the paper's cluster: clients are class A (SGX Xeon
// v5), servers class B, connected by 10 Gbps links with MTU 9000.
// Traffic runs the paper's per-packet path: each client is one
// single-threaded OpenVPN process on one core, and the server charges
// one OpenVPN process per session.
#pragma once

#include <memory>
#include <vector>

#include "endbox/client.hpp"
#include "endbox/configs.hpp"
#include "endbox/server.hpp"
#include "endbox/vanilla_client.hpp"
#include "netsim/topology.hpp"
#include "workload/iperf.hpp"

namespace endbox {

enum class Setup { VanillaOpenVpn, OpenVpnClick, EndBoxSim, EndBoxSgx, VanillaClick };

const char* setup_name(Setup setup);

class Testbed {
 public:
  /// Builds a deployment of `setup` running `use_case`, with the CA,
  /// IAS, server and config server ready. Throws on set-up errors
  /// (these are programming errors in experiment scripts).
  Testbed(Setup setup, UseCase use_case, std::uint64_t seed = 0xeb5eed,
          vpn::VpnServerConfig vpn_config = {});

  Setup setup() const { return setup_; }

  /// Adds one client machine (attested/enrolled and connected).
  /// Returns its index.
  std::size_t add_client();

  /// iperf adapter for client `i` sending `write_size`-byte UDP writes;
  /// `offered_bps` = 0 for closed loop.
  workload::IperfSource make_source(std::size_t i, std::size_t write_size,
                                    double offered_bps = 0);

  /// iperf server-side adapter (counts delivered application writes).
  workload::IperfHarness::ServeFn make_sink();

  /// Runs an iperf measurement over all currently-added clients.
  workload::IperfReport run_iperf(std::size_t write_size, double offered_bps,
                                  sim::Time duration);

  /// Server CPU utilisation across [0, duration].
  double server_cpu_utilisation(sim::Time duration) const;

  EndBoxServer& server() { return *server_; }
  EndBoxClient& endbox_client(std::size_t i) { return rigs_[i]->endbox->client; }
  sim::PerfModel& model() { return model_; }
  sim::Clock& clock() { return clock_; }
  Rng& rng() { return rng_; }
  netsim::StarTopology& topology() { return topology_; }
  netsim::Link& bottleneck() { return topology_.uplink(); }
  const std::vector<idps::SnortRule>& community_rules() const { return community_rules_; }
  const config::ConfigBundle& bundle() const { return bundle_; }

  /// Direct access for custom experiments.
  struct EndBoxRig {
    sgx::SgxPlatform platform;
    sim::CpuAccount cpu;
    EndBoxClient client;
    EndBoxRig(const std::string& name, Rng& rng, const sim::Clock& clock,
              const sim::PerfModel& model, crypto::RsaPublicKey ca_key,
              EndBoxClientOptions options)
        : platform(name, rng, clock),
          cpu(1, model.client_hz),
          client(name, platform, rng, cpu, model, ca_key, options) {}
  };
  struct VanillaRig {
    sim::CpuAccount cpu;
    VanillaVpnClient client;
    VanillaRig(const std::string& name, Rng& rng, const sim::PerfModel& model)
        : cpu(1, model.client_hz), client(name, rng, cpu, model) {}
  };
  struct Rig {
    std::unique_ptr<EndBoxRig> endbox;
    std::unique_ptr<VanillaRig> vanilla;
  };

  EndBoxClientOptions client_options;  ///< applied to clients added later

 private:
  void provision_endbox(EndBoxRig& rig);

  Setup setup_;
  UseCase use_case_;
  Rng rng_;
  sim::Clock clock_;
  sim::PerfModel model_;
  sgx::AttestationService ias_;
  ca::CertificateAuthority authority_;
  sim::CpuAccount server_cpu_;
  sim::CpuAccount click_core_;  ///< single-threaded vanilla Click process
  std::unique_ptr<EndBoxServer> server_;
  netsim::StarTopology topology_;
  std::vector<std::unique_ptr<Rig>> rigs_;
  std::vector<idps::SnortRule> community_rules_;
  config::ConfigBundle bundle_;

  // VanillaClick set-up state: one shared router on one core.
  elements::ElementContext click_context_;
  click::ElementRegistry click_registry_;
  std::unique_ptr<click::Router> click_router_;
};

}  // namespace endbox
