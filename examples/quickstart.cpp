// Quickstart: the complete EndBox lifecycle in one program.
//
//   1. The network owner sets up a CA (with IAS access) and the EndBox
//      server, and publishes a firewall configuration.
//   2. A client machine attests its enclave, receives a certificate and
//      the config key, installs the configuration and connects.
//   3. Traffic flows through the in-enclave middlebox: allowed packets
//      reach the network, disallowed ones never leave the client.
//   4. The administrator pushes a config update; the client picks it up
//      through the in-band ping protocol.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "endbox/client.hpp"
#include "endbox/configs.hpp"
#include "endbox/server.hpp"

using namespace endbox;

int main() {
  Rng rng(42);
  sim::Clock clock;
  sim::PerfModel model;

  // --- Network owner infrastructure -----------------------------------
  sgx::AttestationService ias(rng);           // stands in for Intel IAS
  ca::CertificateAuthority authority(rng, ias);
  authority.allow_measurement(sgx::measure(std::string(kEndBoxEnclaveIdentity)));

  sim::CpuAccount server_cpu(model.server_cores, model.server_hz);
  EndBoxServer server(rng, authority, server_cpu, model);

  // Publish v2: a firewall blocking telnet, everything else allowed.
  auto bundle = server.publish_config(
      2,
      "from_device :: FromDevice; to_device :: ToDevice;"
      "fw :: IPFilter(drop dst port 23, allow all);"
      "from_device -> fw -> to_device; fw[1] -> [1]to_device;",
      /*encrypt=*/true, /*grace_secs=*/0, clock.now());
  if (!bundle.ok()) return std::fprintf(stderr, "%s\n", bundle.error().c_str()), 1;
  std::printf("[admin]  published config v2 (signed + encrypted)\n");

  // --- Client machine ----------------------------------------------------
  sgx::SgxPlatform platform("alice-laptop", rng, clock);
  ias.register_platform("alice-laptop", platform.attestation_key().pub);
  sim::CpuAccount client_cpu(1, model.client_hz);
  EndBoxClient client("alice", platform, rng, client_cpu, model,
                      authority.public_key(), {});

  if (auto s = client.attest(authority); !s.ok())
    return std::fprintf(stderr, "attest: %s\n", s.error().c_str()), 1;
  std::printf("[client] attested: enclave measurement verified by CA via IAS\n");

  if (auto t = client.install_config(*bundle, clock.now()); !t.ok())
    return std::fprintf(stderr, "install: %s\n", t.error().c_str()), 1;
  std::printf("[client] installed config v2 inside the enclave\n");

  auto init = client.start_connect(server.public_key());
  auto handshake = server.handle_wire(*init, clock.now());
  auto& done = std::get<vpn::VpnServer::HandshakeDone>(handshake->event);
  client.finish_connect(done.reply_wire);
  std::printf("[client] VPN tunnel established (session %u)\n", done.session_id);

  // --- Traffic --------------------------------------------------------------
  auto send = [&](std::uint16_t port, const char* label) {
    net::Packet packet = net::Packet::udp(net::Ipv4(10, 8, 0, 2),
                                          net::Ipv4(10, 0, 0, 1), 40000, port,
                                          to_bytes("hello"));
    auto sent = client.send_packet(std::move(packet), clock.now());
    if (!sent.ok() || !sent->accepted) {
      std::printf("[client] %s -> BLOCKED by in-enclave firewall\n", label);
      return;
    }
    for (const auto& wire : sent->wire) {
      auto handled = server.handle_wire(wire, clock.now());
      if (handled.ok() &&
          std::holds_alternative<vpn::VpnServer::PacketIn>(handled->event))
        std::printf("[server] %s -> delivered into the managed network\n", label);
    }
  };
  send(80, "HTTP  packet");
  send(23, "telnet packet");

  // --- Configuration update ---------------------------------------------------
  auto v3 = server.publish_config(
      3,
      "from_device :: FromDevice; to_device :: ToDevice;"
      "fw :: IPFilter(drop dst port 23, drop dst port 21, allow all);"
      "from_device -> fw -> to_device; fw[1] -> [1]to_device;",
      true, 30, clock.now());
  std::printf("[admin]  published config v3 (tightened firewall), 30 s grace\n");
  (void)v3;
  Bytes ping = server.create_ping(done.session_id);
  auto outcome = client.handle_server_ping(ping, &server.file_server(), clock.now());
  if (!outcome.ok())
    return std::fprintf(stderr, "update: %s\n", outcome.error().c_str()), 1;
  if (outcome->update_started)
    std::printf("[client] ping announced v3: fetched, decrypted and hot-swapped "
                "in %.2f ms\n", sim::to_millis(outcome->done - clock.now()));
  Bytes confirm;
  client.create_ping_wire(confirm, clock.now());
  server.handle_wire(confirm, clock.now());
  std::printf("[server] client now attests config v%u\n",
              server.vpn().session_config_version(done.session_id));
  return 0;
}
