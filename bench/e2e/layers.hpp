// Per-layer measurements that need no spans inside the data path:
// shadow replays of recorded bursts through bench-owned objects (the
// same public functions the data path calls), raw floors, and host
// probes. Each shadow result is the median of several replays.
#pragma once

#include <atomic>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ca/authority.hpp"
#include "click/router.hpp"
#include "common/cpu_features.hpp"
#include "crypto/aes.hpp"
#include "crypto/hmac.hpp"
#include "elements/context.hpp"
#include "endbox/configs.hpp"
#include "idps/engine.hpp"
#include "measure.hpp"
#include "sgx/enclave.hpp"
#include "sgx/platform.hpp"
#include "sgx/quote.hpp"
#include "traffic.hpp"
#include "vpn/client.hpp"
#include "vpn/server.hpp"

namespace endbox::e2e {

inline constexpr int kShadowReps = 5;

/// Uplink bursts as the driver sends them (burst b is client b % 8's
/// burst b / 8, so 256 bursts cover every client's first 32 bursts),
/// plus the serialised uplink and downlink packets of the same slots.
struct Recording {
  std::vector<std::vector<net::Packet>> bursts;
  std::vector<Bytes> up_wire;
  std::vector<Bytes> down_wire;
  std::size_t packets = 0;
  std::size_t payload_bytes = 0;
};

inline Recording record(Traffic& traffic, std::size_t bursts) {
  Recording rec;
  for (std::size_t b = 0; b < bursts; ++b) {
    std::size_t c = b % kClients;
    std::uint64_t first = (b / kClients) * kBurst;
    std::vector<net::Packet> burst(kBurst);
    for (std::size_t k = 0; k < kBurst; ++k) {
      traffic.fill_uplink(c, first + k, burst[k]);
      rec.payload_bytes += burst[k].payload.size();
      net::Packet flagged = burst[k];
      flagged.set_processed_flag();  // as the enclave seals it
      rec.up_wire.push_back(flagged.serialize());
      ByteView down = traffic.downlink(c, first + k);
      rec.down_wire.emplace_back(down.begin(), down.end());
    }
    rec.packets += kBurst;
    rec.bursts.push_back(std::move(burst));
  }
  return rec;
}

/// Median over kShadowReps of `pass()`, each a duration in ns.
template <typename Pass>
double median_ns(Pass&& pass) {
  std::vector<double> samples;
  for (int r = 0; r < kShadowReps; ++r) samples.push_back(pass());
  return median(std::move(samples));
}

/// click.chain: the workload's Click config, as installed in the
/// enclave, in a bench-owned Router fed the recorded bursts.
inline double click_chain_ns_per_pkt(UseCase use_case,
                                     const std::vector<idps::SnortRule>& rules,
                                     const Recording& rec) {
  double ns = median_ns([&] {
    elements::ElementContext context;
    tls::SessionKeyStore store;
    net::PacketPool pool(1024);
    context.key_store = &store;
    context.rulesets["community"] = rules;
    context.to_device = [&](net::Packet&& p, bool) { pool.release(std::move(p)); };
    click::ElementRegistry registry = elements::make_endbox_registry(context);
    auto router = click::Router::from_config(use_case_config(use_case), registry);
    if (!router.ok()) throw std::runtime_error("shadow router: " + router.error());
    std::vector<click::PacketBatch> batches(rec.bursts.size());
    for (std::size_t b = 0; b < rec.bursts.size(); ++b)
      for (const net::Packet& p : rec.bursts[b]) batches[b].push_back(net::Packet(p));
    std::int64_t t0 = wall_ns();
    for (auto& batch : batches) (*router)->push_batch_to("from_device", std::move(batch));
    return static_cast<double>(wall_ns() - t0);
  });
  return ns / static_cast<double>(rec.packets);
}

/// memcpy of the recorded payloads: the floor scans are compared with.
inline double memcpy_ns_per_kb(const Recording& rec) {
  Bytes copy(64 * 1024);
  std::size_t sink = 0;
  double ns = median_ns([&] {
    std::int64_t t0 = wall_ns();
    for (const auto& burst : rec.bursts)
      for (const net::Packet& p : burst) {
        std::memcpy(copy.data(), p.payload.data(), p.payload.size());
        sink += copy[p.payload.size() / 2];
      }
    return static_cast<double>(wall_ns() - t0);
  });
  keep(sink);
  return ns / (static_cast<double>(rec.payload_bytes) / 1024.0);
}

/// Scan tiers on the recorded payloads.
struct ScanCosts {
  double tier1_ns_per_kb = 0;    ///< both literal prefilters (find_runs)
  double inspect_ns_per_kb = 0;  ///< IdpsEngine burst inspection
};

inline ScanCosts scan_costs(const std::vector<idps::SnortRule>& rules,
                            const Recording& rec, bool stream) {
  ScanCosts out;
  const double kb = static_cast<double>(rec.payload_bytes) / 1024.0;
  idps::IdpsEngine engine(rules);
  const idps::LiteralPrefilter& cs = engine.cs_automaton().prefilter();
  const idps::LiteralPrefilter& ci = engine.ci_automaton().prefilter();
  std::vector<idps::CandidateRun> runs;
  std::size_t sink = 0;
  out.tier1_ns_per_kb = median_ns([&] {
    std::int64_t t0 = wall_ns();
    for (const auto& burst : rec.bursts)
      for (const net::Packet& p : burst) {
        runs.clear();
        sink += cs.find_runs(p.payload, runs);
        sink += ci.find_runs(p.payload, runs);
      }
    return static_cast<double>(wall_ns() - t0);
  }) / kb;

  idps::IdpsEngine::BatchScratch scratch;
  std::vector<idps::IdpsVerdict> verdicts(kBurst);
  std::vector<const net::Packet*> packets(kBurst);
  std::vector<ByteView> views(kBurst);
  std::vector<idps::StreamMatchState*> states(kBurst);
  out.inspect_ns_per_kb = median_ns([&] {
    std::map<std::pair<std::uint32_t, std::uint16_t>, idps::StreamMatchState> flows;
    std::int64_t total = 0;
    for (const auto& burst : rec.bursts) {
      for (std::size_t k = 0; k < burst.size(); ++k) {
        packets[k] = &burst[k];
        views[k] = burst[k].payload;
        if (stream) states[k] = &flows[{burst[k].src.value(), burst[k].src_port}];
      }
      std::int64_t t0 = wall_ns();
      if (stream) {
        engine.inspect_stream_batch(packets, views, states, scratch, verdicts.data());
      } else {
        engine.inspect_batch(packets, views, scratch, verdicts.data());
      }
      total += wall_ns() - t0;
      sink += verdicts[0].drop;
    }
    return static_cast<double>(total);
  }) / kb;
  keep(sink);
  return out;
}

/// The client half of the tunnel, shadowed: a bench-owned
/// VpnClientSession (provisioned through its own PKI) and a VpnServer
/// peer, at the workload's MTU.
struct TunnelCosts {
  double seal_ns_per_pkt = 0;
  double seal_ns_per_kb = 0;  ///< per KiB of IP packet sealed
  double open_ns_per_pkt = 0;
};

inline TunnelCosts tunnel_costs(const Recording& rec, std::size_t mtu) {
  Rng pki_rng(0x5eed5a);
  sim::Clock clock;
  sgx::AttestationService ias(pki_rng);
  ca::CertificateAuthority authority(pki_rng, ias);
  sgx::SgxPlatform platform("shadow-client", pki_rng, clock);
  sgx::Enclave enclave(platform, "endbox-shadow", sgx::SgxMode::Hardware);
  crypto::RsaKeyPair key = crypto::rsa_generate(pki_rng);
  ias.register_platform("shadow-client", platform.attestation_key().pub);
  authority.allow_measurement(enclave.measurement());
  sgx::QuotingEnclave qe(platform);
  auto quote = qe.quote(enclave.create_report(sgx::bind_report_data(key.pub.serialize())));
  if (!quote.ok()) throw std::runtime_error("shadow quote: " + quote.error());
  auto provisioned = authority.provision(quote->serialize(), key.pub);
  if (!provisioned.ok()) throw std::runtime_error("shadow provision: " + provisioned.error());

  Rng server_rng(0xbe9c5), client_rng(0xc11e47);
  vpn::VpnServerConfig server_config;
  server_config.mtu = mtu;
  vpn::VpnServer server(server_rng, authority.public_key(), server_config);
  vpn::VpnClientConfig client_config;
  client_config.mtu = mtu;
  vpn::VpnClientSession client(client_rng, provisioned->certificate, key,
                               server.public_key(), client_config);
  net::PacketPool pool(1024);
  client.set_buffer_pool(&pool);
  auto event = server.handle(client.create_handshake_init().serialize(), 0);
  if (!event.ok()) throw std::runtime_error("shadow handshake: " + event.error());
  auto reply = vpn::WireMessage::parse(
      std::get<vpn::VpnServer::HandshakeDone>(*event).reply_wire);
  if (!reply.ok() || !client.process_handshake_reply(*reply).ok())
    throw std::runtime_error("shadow handshake reply");
  const std::uint32_t session = client.session_id();

  TunnelCosts out;
  std::size_t up_bytes = 0;
  for (const Bytes& wire : rec.up_wire) up_bytes += wire.size();
  std::vector<Bytes> frames;
  out.seal_ns_per_pkt = median_ns([&] {
    std::size_t at = 0;
    std::int64_t t0 = wall_ns();
    for (const Bytes& wire : rec.up_wire) at = client.seal_packet_wire_at(wire, frames, at);
    return static_cast<double>(wall_ns() - t0);
  });
  out.seal_ns_per_kb = out.seal_ns_per_pkt / (static_cast<double>(up_bytes) / 1024.0);
  out.seal_ns_per_pkt /= static_cast<double>(rec.up_wire.size());

  std::vector<Bytes> down_frames;
  out.open_ns_per_pkt = median_ns([&] {
    std::size_t n = 0;
    for (const Bytes& wire : rec.down_wire)
      n = server.seal_packet_wire_at(session, wire, down_frames, n);
    Bytes scratch;
    std::size_t opened = 0;
    std::int64_t t0 = wall_ns();
    for (std::size_t f = 0; f < n; ++f) {
      auto result = client.open_data_frame(down_frames[f], std::move(scratch));
      if (!result.ok()) throw std::runtime_error("shadow open: " + result.error());
      if (result->has_value()) {
        ++opened;
        scratch = std::move(**result);
      } else {
        scratch = pool.acquire_bytes();
      }
    }
    std::int64_t ns = wall_ns() - t0;
    if (opened != rec.down_wire.size()) throw std::runtime_error("shadow open: lost packets");
    return static_cast<double>(ns);
  }) / static_cast<double>(rec.down_wire.size());
  return out;
}

/// Raw AES-CTR + HMAC-SHA256 over 1 KiB blocks: the crypto floor the
/// tunnel's seal is compared against.
inline double crypto_floor_ns_per_kb() {
  crypto::Aes128 aes(crypto::make_aes_key(Bytes(16, 0x42)));
  crypto::HmacKey hmac(Bytes(32, 0x24));
  Bytes block(1024, 0x5a);
  std::array<std::uint8_t, 16> nonce{};
  std::uint8_t sink = 0;
  constexpr int kBlocks = 2000;
  double ns = median_ns([&] {
    std::int64_t t0 = wall_ns();
    for (int i = 0; i < kBlocks; ++i) {
      nonce[0] = static_cast<std::uint8_t>(i);
      crypto::aes128_ctr_inplace(aes, nonce.data(), block);
      sink ^= hmac.mac(block)[0];
    }
    return static_cast<double>(wall_ns() - t0);
  });
  keep(sink);
  return ns / kBlocks;
}

/// Two threads spinning for about `ms` each: 2.0 when both get a core
/// for the whole probe, 1.0 when the second vCPU never shows up.
inline double parallel_speedup(double ms) {
  auto spin = [](std::uint64_t iters) {
    std::uint64_t x = 1;
    for (std::uint64_t i = 0; i < iters; ++i) x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x;
  };
  std::atomic<std::uint64_t> sink{0};
  std::int64_t t0 = wall_ns();
  sink += spin(1'000'000);
  double ns_per_iter = static_cast<double>(wall_ns() - t0) / 1e6;
  auto iters = static_cast<std::uint64_t>(ms * 1e6 / ns_per_iter);
  t0 = wall_ns();
  sink += spin(iters);
  double one = static_cast<double>(wall_ns() - t0);
  t0 = wall_ns();
  std::thread other([&] { sink += spin(iters); });
  sink += spin(iters);
  other.join();
  double two = static_cast<double>(wall_ns() - t0);
  return 2 * one / two;
}

/// Host fingerprint: CPU model, logical CPUs, SIMD dispatch level.
struct Host {
  std::string cpu_model = "unknown";
  unsigned nproc = 0;
  std::string simd;
};

inline Host host_fingerprint() {
  Host host;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    auto colon = line.find(':');
    if (colon != std::string::npos) host.cpu_model = line.substr(colon + 2);
    break;
  }
  host.nproc = std::thread::hardware_concurrency();
  host.simd = common::simd_level_name(common::current_simd_level());
  return host;
}

}  // namespace endbox::e2e
