#include "endbox/testbed.hpp"

#include <stdexcept>

namespace endbox {

namespace {
// The evaluation cluster's wiring: 10 GbE everywhere; the shared
// uplink into the server is the bottleneck (0.05 ms, the old shared
// link), client access links are short patch cables.
netsim::StarTopologyOptions testbed_topology_options() {
  netsim::StarTopologyOptions options;
  options.access_rate_bps = 10e9;
  options.access_latency = sim::from_millis(0.005);
  options.uplink_rate_bps = 10e9;
  options.uplink_latency = sim::from_millis(0.05);
  return options;
}
}  // namespace

const char* setup_name(Setup setup) {
  switch (setup) {
    case Setup::VanillaOpenVpn: return "vanilla OpenVPN";
    case Setup::OpenVpnClick: return "OpenVPN+Click";
    case Setup::EndBoxSim: return "EndBox SIM";
    case Setup::EndBoxSgx: return "EndBox SGX";
    case Setup::VanillaClick: return "vanilla Click";
  }
  return "?";
}

Testbed::Testbed(Setup setup, UseCase use_case, std::uint64_t seed,
                 vpn::VpnServerConfig vpn_config)
    : setup_(setup),
      use_case_(use_case),
      rng_(seed),
      ias_(rng_),
      authority_(rng_, ias_),
      server_cpu_(model_.server_cores, model_.server_hz),
      click_core_(1, model_.server_hz),
      topology_(model_, testbed_topology_options()),
      click_registry_(elements::make_endbox_registry(click_context_)) {
  authority_.allow_measurement(sgx::measure(std::string(kEndBoxEnclaveIdentity)));
  Rng rules_rng(7);
  community_rules_ = idps::generate_community_ruleset(377, rules_rng);

  ServerMode mode =
      setup == Setup::OpenVpnClick ? ServerMode::WithClick : ServerMode::Plain;
  server_ = std::make_unique<EndBoxServer>(rng_, authority_, server_cpu_, model_,
                                           mode, vpn_config);
  server_->add_ruleset("community", community_rules_);
  if (mode == ServerMode::WithClick) {
    // Server-side Click uses the untrusted time source for the DDoS case.
    auto status = server_->set_click_config(
        use_case_config(use_case, /*trusted_time=*/false));
    if (!status.ok()) throw std::runtime_error(status.error());
  }

  // Client-side middlebox configuration exists only in EndBox set-ups;
  // baseline deployments keep middleboxes at the server, so no config
  // version is announced to (or enforced on) their clients.
  if (setup == Setup::EndBoxSim || setup == Setup::EndBoxSgx) {
    auto bundle = server_->publish_config(2, use_case_config(use_case), true, 0, 0);
    if (!bundle.ok()) throw std::runtime_error(bundle.error());
    bundle_ = *bundle;
  }

  if (setup == Setup::VanillaClick) {
    click_context_.rulesets["community"] = community_rules_;
    click_context_.to_device = [](net::Packet&&, bool) {};
    click_context_.trusted_time = [this] { return clock_.now(); };
    click_context_.untrusted_time = [this] { return clock_.now(); };
    auto router = click::Router::from_config(
        use_case_config(use_case, /*trusted_time=*/false), click_registry_);
    if (!router.ok()) throw std::runtime_error(router.error());
    click_router_ = std::move(*router);
  }

  if (setup == Setup::EndBoxSim) client_options.sgx_mode = sgx::SgxMode::Simulation;
}

void Testbed::provision_endbox(EndBoxRig& rig) {
  ias_.register_platform(rig.platform.platform_id(),
                         rig.platform.attestation_key().pub);
  if (client_options.sgx_mode == sgx::SgxMode::Hardware) {
    if (auto s = rig.client.attest(authority_); !s.ok())
      throw std::runtime_error("attest: " + s.error());
  } else {
    auto& key = rig.client.enclave().ecall_public_key();
    auto cert = authority_.issue_legacy_certificate(key);
    if (!cert.ok()) throw std::runtime_error(cert.error());
    ca::ProvisioningResponse response;
    response.certificate = *cert;
    response.encrypted_config_key =
        crypto::rsa_encrypt(key, authority_.config_key() % key.n);
    if (auto s = rig.client.enclave().ecall_store_provisioning(response); !s.ok())
      throw std::runtime_error(s.error());
  }
  rig.client.add_ruleset("community", community_rules_);
  if (auto t = rig.client.install_config(bundle_, clock_.now()); !t.ok())
    throw std::runtime_error("install: " + t.error());
  auto init = rig.client.start_connect(server_->public_key());
  if (!init.ok()) throw std::runtime_error(init.error());
  auto handled = server_->handle_wire(*init, clock_.now());
  if (!handled.ok()) throw std::runtime_error(handled.error());
  auto& done = std::get<vpn::VpnServer::HandshakeDone>(handled->event);
  if (auto s = rig.client.finish_connect(done.reply_wire); !s.ok())
    throw std::runtime_error(s.error());
}

std::size_t Testbed::add_client() {
  auto rig = std::make_unique<Rig>();
  std::string name = "client-" + std::to_string(rigs_.size() + 1);
  topology_.add_client(name);
  bool endbox_mode = setup_ == Setup::EndBoxSim || setup_ == Setup::EndBoxSgx;
  if (endbox_mode) {
    rig->endbox = std::make_unique<EndBoxRig>(name, rng_, clock_, model_,
                                              authority_.public_key(), client_options);
    provision_endbox(*rig->endbox);
  } else if (setup_ != Setup::VanillaClick) {
    rig->vanilla = std::make_unique<VanillaRig>(name, rng_, model_);
    if (auto s = rig->vanilla->client.enroll(authority_); !s.ok())
      throw std::runtime_error(s.error());
    auto init = rig->vanilla->client.start_connect(server_->public_key());
    if (!init.ok()) throw std::runtime_error(init.error());
    auto handled = server_->handle_wire(*init, clock_.now());
    if (!handled.ok()) throw std::runtime_error(handled.error());
    auto& done = std::get<vpn::VpnServer::HandshakeDone>(handled->event);
    if (auto s = rig->vanilla->client.finish_connect(done.reply_wire); !s.ok())
      throw std::runtime_error(s.error());
  } else {
    // VanillaClick: raw senders, minimal client-side cost.
    rig->vanilla = std::make_unique<VanillaRig>(name, rng_, model_);
  }
  rigs_.push_back(std::move(rig));
  return rigs_.size() - 1;
}

workload::IperfSource Testbed::make_source(std::size_t i, std::size_t write_size,
                                           double offered_bps) {
  workload::IperfSource source;
  source.offered_bps = offered_bps;
  source.write_size = write_size;
  Rig* rig = rigs_.at(i).get();
  // Application payload leaving room for the 28-byte UDP/IP headers.
  std::size_t payload = write_size > 28 ? write_size - 28 : 1;

  if (rig->endbox) {
    EndBoxClient* client = &rig->endbox->client;
    source.send = [client, payload](sim::Time now) {
      net::Packet packet =
          net::Packet::udp(net::Ipv4(10, 8, 0, 2), net::Ipv4(10, 0, 0, 1), 40000,
                           5001, Bytes(payload, 'x'));
      auto sent = client->send_packet(std::move(packet), now);
      if (!sent.ok() || !sent->accepted) return workload::SendOutcome{{}, now};
      return workload::SendOutcome{std::move(sent->wire), sent->done};
    };
  } else if (setup_ == Setup::VanillaClick) {
    VanillaRig* vrig = rig->vanilla.get();
    // The packet template and its serialisation scratch live across
    // sends: the hot loop only rewrites the same buffer.
    auto packet = std::make_shared<net::Packet>(
        net::Packet::udp(net::Ipv4(10, 8, 0, 2), net::Ipv4(10, 0, 0, 1), 40000,
                         5001, Bytes(payload, 'x')));
    auto scratch = std::make_shared<Bytes>();
    source.send = [vrig, packet, scratch](sim::Time now) {
      // Raw send: only the kernel network stack cost, no tunnel.
      packet->serialize_into(*scratch);
      sim::Time done = vrig->cpu.charge(now, 6'000);
      return workload::SendOutcome{{*scratch}, done};
    };
  } else {
    VanillaVpnClient* client = &rig->vanilla->client;
    auto packet = std::make_shared<net::Packet>(
        net::Packet::udp(net::Ipv4(10, 8, 0, 2), net::Ipv4(10, 0, 0, 1), 40000,
                         5001, Bytes(payload, 'x')));
    source.send = [client, packet](sim::Time now) {
      auto sent = client->send_packet(*packet, now);
      if (!sent.ok()) return workload::SendOutcome{{}, now};
      return workload::SendOutcome{std::move(sent->wire), sent->done};
    };
  }
  return source;
}

workload::IperfHarness::ServeFn Testbed::make_sink() {
  if (setup_ == Setup::VanillaClick) {
    return [this](const Bytes& wire, sim::Time now) {
      auto packet = net::Packet::parse(wire);
      workload::ServeOutcome outcome;
      if (!packet.ok()) return outcome;
      std::size_t payload = packet->wire_size();
      click_router_->push_to("from_device", std::move(*packet));
      double cycles = model_.click_packet_cycles + model_.standalone_click_rx_cycles +
                      pipeline_cycles(*click_router_, payload, model_);
      outcome.done = click_core_.charge(now, cycles);
      outcome.delivered = true;
      return outcome;
    };
  }
  return [this](const Bytes& wire, sim::Time now) {
    workload::ServeOutcome outcome;
    auto handled = server_->handle_wire(wire, now);
    if (!handled.ok()) return outcome;
    outcome.done = handled->done;
    outcome.delivered =
        std::holds_alternative<vpn::VpnServer::PacketIn>(handled->event) &&
        handled->click_accepted;
    return outcome;
  };
}

workload::IperfReport Testbed::run_iperf(std::size_t write_size, double offered_bps,
                                         sim::Time duration) {
  workload::IperfConfig config;
  config.duration = duration;
  workload::IperfHarness harness(make_sink(), config);
  for (std::size_t i = 0; i < rigs_.size(); ++i) {
    auto source = make_source(i, write_size, offered_bps);
    source.path = topology_.uplink_path(i);
    harness.add_source(std::move(source));
  }
  return harness.run();
}

double Testbed::server_cpu_utilisation(sim::Time duration) const {
  if (setup_ == Setup::VanillaClick) return click_core_.utilisation(0, duration);
  return server_cpu_.utilisation(0, duration);
}

}  // namespace endbox
