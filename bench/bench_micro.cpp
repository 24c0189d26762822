// Micro-benchmarks (google-benchmark) for the hot primitives underneath
// the experiments: crypto, Aho-Corasick matching, Click config parsing
// and hot-swap, VPN seal/open. These quantify real (wall-clock) costs
// of our implementations, independent of the virtual-time model.
//
// Each JSON row pairs a production path with a baseline that is still
// meaningful: the zero-allocation seal/open against the byte-wise test
// oracle (tests/oracle/session_crypto_reference.hpp), a burst seal
// against bursts of one,
// the batched element graph against packet-at-a-time pushes, N-shard
// critical paths against one shard, the timer-wheel
// session table against a periodic full-scan map, the control plane
// and LRU admission against their raw counterparts, and the two-tier
// scanner against a fallback engine whose rule set disables the
// prefilter (one whole-buffer run per scan).
// Running with `--json [path]` skips google-benchmark and instead
// writes the summary (default BENCH_pr12.json) that CI diffs against
// the checked-in baselines, BENCH_pr12.json and then BENCH_pr30.json
// (which adds seal_burst16_1500B and moves no BENCH_pr12.json floor);
// re-record a baseline when a row's meaning or the reference machine
// changes. Older BENCH_prN.json files are history.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <optional>
#include <string>
#include <unordered_map>

#include "ca/authority.hpp"
#include "click/packet_batch.hpp"
#include "common/hash.hpp"
#include "common/lifecycle_table.hpp"
#include "click/router.hpp"
#include "click/sharded_router.hpp"
#include "crypto/aes.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "elements/context.hpp"
#include "endbox/configs.hpp"
#include "idps/engine.hpp"
#include "net/packet_pool.hpp"
#include "sgx/enclave.hpp"
#include "sgx/platform.hpp"
#include "vpn/client.hpp"
#include "vpn/control.hpp"
#include "vpn/server.hpp"
#include "vpn/session_crypto.hpp"
#include "oracle/session_crypto_reference.hpp"

using namespace endbox;

namespace {

// Case-sensitive automaton over every content pattern of the synthetic
// community rule set — the same pattern population the IDPS engine
// scans with.
idps::AhoCorasick community_automaton() {
  Rng rng(7);
  auto rules = idps::generate_community_ruleset(377, rng);
  idps::AhoCorasick automaton;
  for (std::size_t r = 0; r < rules.size(); ++r)
    for (std::size_t c = 0; c < rules[r].contents.size(); ++c)
      automaton.add_pattern(rules[r].contents[c].bytes,
                            static_cast<int>(r << 8 | c));
  automaton.build();
  return automaton;
}

// The representative enclave element chain of the acceptance criteria
// (CheckIPHeader -> IPFilter(16 rules) -> IDSMatcher -> ToDevice) with
// the paper's 16-rule firewall set that matches no evaluation traffic.
std::string chain_config() {
  std::string rules;
  for (int i = 1; i <= 16; ++i)
    rules += "drop src 192.0.2." + std::to_string(i) + ", ";
  return "from_device :: FromDevice; check :: CheckIPHeader;"
         "fw :: IPFilter(" + rules + "allow all);"
         "ids :: IDSMatcher(RULESET bench); to_device :: ToDevice;"
         "from_device -> check -> fw -> ids -> to_device;"
         "check[1] -> [1]to_device; fw[1] -> [1]to_device;"
         "ids[1] -> [1]to_device;";
}

// One wired chain instance, driveable as bursts of one (fresh payload
// buffer per push, like the pre-batching enclave ingress) or as one
// burst (pool-recycled buffers, one virtual call per element per burst).
// `ids_rules` sizes the IDSMatcher rule set: a compact set keeps the
// chain graph-overhead-bound (the regime batching targets), the full
// 377-rule community set makes it scan-bound (batching's floor).
struct ChainBench {
  elements::ElementContext context;
  tls::SessionKeyStore store;
  click::ElementRegistry registry;
  std::unique_ptr<click::Router> router;
  net::PacketPool pool;
  std::uint64_t accepted = 0;
  bool recycle = false;

  explicit ChainBench(std::size_t ids_rules = 12)
      : registry(elements::make_endbox_registry(context)) {
    context.key_store = &store;
    Rng rules_rng(7);
    context.rulesets["bench"] = idps::generate_community_ruleset(ids_rules, rules_rng);
    context.to_device = [this](net::Packet&& packet, bool ok) {
      accepted += ok;
      if (recycle) pool.release(std::move(packet));
    };
    auto built = click::Router::from_config(chain_config(), registry);
    if (!built.ok()) std::abort();
    router = std::move(*built);
  }

  /// Pushes `burst` packets as bursts of one through Router::push_to,
  /// each built with a freshly allocated payload.
  void run_per_packet(const Bytes& payload, std::size_t burst) {
    for (std::size_t k = 0; k < burst; ++k) {
      net::Packet packet = net::Packet::udp(net::Ipv4(10, 8, 0, 2),
                                            net::Ipv4(10, 0, 0, 1), 40000, 5001,
                                            payload);
      router->push_to("from_device", std::move(packet));
    }
  }

  /// Pushes one burst as a PacketBatch drawing payload buffers from the
  /// pool (ToDevice recycles them).
  void run_batch(const Bytes& payload, std::size_t burst) {
    recycle = true;
    click::PacketBatch batch;
    for (std::size_t k = 0; k < burst; ++k) {
      net::Packet packet = pool.acquire();
      packet.src = net::Ipv4(10, 8, 0, 2);
      packet.dst = net::Ipv4(10, 0, 0, 1);
      packet.proto = net::IpProto::Udp;
      packet.src_port = 40000;
      packet.dst_port = 5001;
      packet.payload.assign(payload.begin(), payload.end());
      batch.push_back(std::move(packet));
    }
    router->push_batch_to("from_device", std::move(batch));
    recycle = false;
  }
};

// The same chain cloned into N element-graph shards with per-shard
// contexts and pools (the enclave's sharded layout). The canonical
// burst is 64 packets over 32 flows; each packet's shard follows the
// RSS FlowKey hash, so the assignment is deterministic. run_shard(s)
// builds and runs shard s's share of the burst on the calling thread —
// PR-4's bench methodology times each shard serially and reports the
// burst's critical path (the slowest shard), i.e. the completion time
// when every shard owns a core (CI containers often expose a single
// core, where wall-clock parallel timing would measure the scheduler
// instead of the router).
struct ShardedChainBench {
  static constexpr std::size_t kBurst = click::PacketBatch::kMaxBurst;
  static constexpr std::size_t kFlows = 32;

  struct Rig {
    elements::ElementContext context;
    tls::SessionKeyStore store;
    click::ElementRegistry registry;
    net::PacketPool pool;
    std::uint64_t accepted = 0;
    Rig() : registry(elements::make_endbox_registry(context)) {}
  };

  std::vector<idps::SnortRule> rules;
  std::vector<std::unique_ptr<Rig>> rigs;
  std::unique_ptr<click::ShardedRouter> router;
  std::vector<std::size_t> shard_of_packet;  // packet index -> shard

  explicit ShardedChainBench(std::size_t shards, std::size_t ids_rules = 377) {
    Rng rules_rng(7);
    rules = idps::generate_community_ruleset(ids_rules, rules_rng);
    auto built = click::ShardedRouter::create(
        chain_config(), shards, [this](std::size_t i, const std::string& cfg) {
          while (rigs.size() <= i) {
            auto rig = std::make_unique<Rig>();
            rig->context.key_store = &rig->store;
            rig->context.rulesets["bench"] = rules;
            Rig* raw = rig.get();
            rig->context.to_device = [raw](net::Packet&& packet, bool ok) {
              raw->accepted += ok;
              raw->pool.release(std::move(packet));
            };
            rigs.push_back(std::move(rig));
          }
          return click::Router::from_config(cfg, rigs[i]->registry);
        });
    if (!built.ok()) std::abort();
    router = std::move(*built);
    for (std::size_t k = 0; k < kBurst; ++k) {
      net::FlowKey key{net::Ipv4(10, 8, 0, 2), net::Ipv4(10, 0, 0, 1),
                       static_cast<std::uint16_t>(40000 + k % kFlows), 5001,
                       net::IpProto::Udp};
      shard_of_packet.push_back(click::shard_of(key, shards));
    }
  }

  std::size_t shard_packets(std::size_t s) const {
    std::size_t n = 0;
    for (std::size_t shard : shard_of_packet) n += shard == s;
    return n;
  }

  /// Builds and runs shard `s`'s share of the canonical burst (pool-
  /// backed packets, one push_batch into that shard's graph).
  void run_shard(std::size_t s, const Bytes& payload) {
    Rig& rig = *rigs[s];
    click::PacketBatch batch;
    for (std::size_t k = 0; k < kBurst; ++k) {
      if (shard_of_packet[k] != s) continue;
      net::Packet packet = rig.pool.acquire();
      packet.src = net::Ipv4(10, 8, 0, 2);
      packet.dst = net::Ipv4(10, 0, 0, 1);
      packet.proto = net::IpProto::Udp;
      packet.src_port = static_cast<std::uint16_t>(40000 + k % kFlows);
      packet.dst_port = 5001;
      packet.payload.assign(payload.begin(), payload.end());
      batch.push_back(std::move(packet));
    }
    if (!batch.empty())
      router->shard(s).push_batch_to("from_device", std::move(batch));
  }
};

// PR-8: the run-to-completion lane pipeline. Session ids are assigned
// sequentially by the server, so an arbitrary 16-session population
// can land lopsided across lanes and the row would measure the skew,
// not the pipeline. The fixture therefore handshakes candidate
// sessions until it holds exactly two per splitmix64 residue class
// mod 8 (closing the rest), which is balanced at 8 lanes and — because
// x % 4 == (x % 8) % 4 — at 4, 2 and 1 as well: every lane-count row
// times the same per-lane work shape.
struct LaneChainBench {
  static constexpr std::size_t kSessions = 16;
  static constexpr std::size_t kFramesPerSession = 4;
  static constexpr std::size_t kBurst = kSessions * kFramesPerSession;  // 64

  Rng pki_rng{0x5eed5a};
  sim::Clock clock;
  sgx::AttestationService ias{pki_rng};
  ca::CertificateAuthority authority{pki_rng, ias};
  sgx::SgxPlatform platform{"bench-lane", pki_rng, clock};
  sgx::Enclave enclave{platform, "endbox-v1", sgx::SgxMode::Hardware};
  crypto::RsaKeyPair enclave_key = crypto::rsa_generate(pki_rng);
  ca::Certificate certificate;

  Rng server_rng{0x1a9e5};
  vpn::VpnServer server;
  std::vector<std::unique_ptr<Rng>> client_rngs;
  std::vector<vpn::VpnClientSession> clients;
  Bytes payload;
  std::vector<Bytes> burst;  ///< pre-sealed uplink train
  std::vector<vpn::VpnServer::SealJob> jobs;
  std::vector<Bytes> seal_frames;
  vpn::VpnServer::OpenBatch out;

  explicit LaneChainBench(std::size_t lanes, std::size_t payload_bytes = 1500)
      : server(server_rng, authority.public_key(), [&] {
          vpn::VpnServerConfig config;
          config.session_shards = lanes;
          return config;
        }()) {
    ias.register_platform("bench-lane", platform.attestation_key().pub);
    authority.allow_measurement(enclave.measurement());
    sgx::QuotingEnclave qe(platform);
    auto quote = qe.quote(enclave.create_report(
        sgx::bind_report_data(enclave_key.pub.serialize())));
    auto response = authority.provision(quote->serialize(), enclave_key.pub);
    if (!response.ok()) std::abort();
    certificate = response->certificate;

    clients.reserve(kSessions + 1);
    std::array<std::size_t, 8> per_residue{};
    for (std::size_t attempt = 0; clients.size() < kSessions; ++attempt) {
      if (attempt >= 512) std::abort();  // residue classes never filled
      client_rngs.push_back(std::make_unique<Rng>(0x3000 + attempt));
      clients.emplace_back(*client_rngs.back(), certificate, enclave_key,
                           server.public_key(), vpn::VpnClientConfig{});
      auto init = clients.back().create_handshake_init();
      auto event = server.handle(init.serialize(), 0);
      if (!event.ok()) std::abort();
      auto reply = vpn::WireMessage::parse(
          std::get<vpn::VpnServer::HandshakeDone>(*event).reply_wire);
      if (!clients.back().process_handshake_reply(*reply).ok()) std::abort();
      std::size_t residue =
          splitmix64(clients.back().session_id()) % per_residue.size();
      if (per_residue[residue] >= kSessions / per_residue.size()) {
        server.close_session(clients.back().session_id());
        clients.pop_back();
        client_rngs.pop_back();
        continue;
      }
      ++per_residue[residue];
    }

    Rng data_rng(9);
    payload = data_rng.bytes(payload_bytes);
    seal_train();
    for (std::size_t k = 0; k < kBurst; ++k)
      jobs.push_back({clients[k % kSessions].session_id(), payload});
  }

  /// Seals a fresh uplink train (new packet ids, so the server's replay
  /// windows accept it), reusing the frame buffers.
  void seal_train() {
    std::size_t n = 0;
    for (std::size_t f = 0; f < kFramesPerSession; ++f)
      for (std::size_t i = 0; i < kSessions; ++i)
        n = clients[i].seal_packet_wire_at(payload, burst, n);
  }

  /// The production lane pipeline end to end.
  void run_full() {
    server.open_batch(burst, 0, out);
    server.seal_jobs(jobs, seal_frames);
  }
};

}  // namespace

// 64 bursts of one (BM_ClickChainPerPacket) vs one 64-packet burst
// (BM_ClickChainBatch). Args: payload bytes, IDS rule count (12 =
// compact set, 377 = the paper's community set).
static void BM_ClickChainPerPacket(benchmark::State& state) {
  ChainBench chain(static_cast<std::size_t>(state.range(1)));
  Rng rng(9);
  Bytes payload = rng.bytes(static_cast<std::size_t>(state.range(0)));
  constexpr std::size_t kBurst = click::PacketBatch::kMaxBurst;
  for (auto _ : state) {
    chain.run_per_packet(payload, kBurst);
    benchmark::DoNotOptimize(chain.accepted);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBurst));
}
BENCHMARK(BM_ClickChainPerPacket)
    ->Args({64, 12})->Args({256, 12})->Args({1500, 12})
    ->Args({64, 377})->Args({1500, 377});

static void BM_ClickChainBatch(benchmark::State& state) {
  ChainBench chain(static_cast<std::size_t>(state.range(1)));
  Rng rng(9);
  Bytes payload = rng.bytes(static_cast<std::size_t>(state.range(0)));
  constexpr std::size_t kBurst = click::PacketBatch::kMaxBurst;
  for (auto _ : state) {
    chain.run_batch(payload, kBurst);
    benchmark::DoNotOptimize(chain.accepted);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBurst));
}
BENCHMARK(BM_ClickChainBatch)
    ->Args({64, 12})->Args({256, 12})->Args({1500, 12})
    ->Args({64, 377})->Args({1500, 377});

static void BM_Sha256(benchmark::State& state) {
  Rng rng(1);
  Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(crypto::sha256(data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1500)->Arg(16384);

static void BM_HmacSha256(benchmark::State& state) {
  Rng rng(2);
  Bytes key = rng.bytes(32);
  Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(crypto::hmac_sha256(key, data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(1500);

static void BM_HmacSha256Precomputed(benchmark::State& state) {
  Rng rng(2);
  crypto::HmacKey key(rng.bytes(32));
  Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(key.mac(data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256Precomputed)->Arg(1500);

static void BM_Aes128CbcEncrypt(benchmark::State& state) {
  Rng rng(3);
  auto key = crypto::make_aes_key(rng.bytes(16));
  Bytes iv = rng.bytes(16);
  Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::aes128_cbc_encrypt(key, iv, data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Aes128CbcEncrypt)->Arg(256)->Arg(1500);

static void BM_AhoCorasickScan(benchmark::State& state) {
  Rng rng(4);
  idps::IdpsEngine engine(idps::generate_community_ruleset(377, rng));
  net::Packet packet = net::Packet::udp(net::Ipv4(10, 8, 0, 2),
                                        net::Ipv4(10, 0, 0, 1), 1, 2,
                                        rng.bytes(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) benchmark::DoNotOptimize(engine.inspect(packet));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AhoCorasickScan)->Arg(256)->Arg(1500)->Arg(9000);

static void BM_AcScanFlat(benchmark::State& state) {
  Rng rng(4);
  idps::AhoCorasick automaton = community_automaton();
  Bytes text = rng.bytes(static_cast<std::size_t>(state.range(0)));
  std::size_t sink = 0;
  for (auto _ : state) {
    sink += automaton.match(text, [](const idps::AcMatch&) { return true; });
    benchmark::DoNotOptimize(sink);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AcScanFlat)->Arg(1500)->Arg(9000);

static void BM_ClickConfigParse(benchmark::State& state) {
  std::string config = use_case_config(UseCase::Fw);
  for (auto _ : state) benchmark::DoNotOptimize(click::parse_config(config));
}
BENCHMARK(BM_ClickConfigParse);

// The data planes' hot-swap to the same config (the hot-swap a config
// rollout that leaves the rules alone costs): build the new graphs and
// run the one state transfer into them (queues, fold, flows). The lanes
// are laid out as in the enclave — a context per lane, all sharing one
// rule store, so the 377-rule community set is compiled once, by the
// first build, and every swap reuses it. Args: use case, lanes.
static void BM_ClickHotSwap(benchmark::State& state) {
  struct Lane {
    elements::ElementContext context;
    click::ElementRegistry registry;
    Lane() : registry(elements::make_endbox_registry(context)) {}
  };
  auto use_case = static_cast<UseCase>(state.range(0));
  tls::SessionKeyStore store;
  idps::RuleSets rulesets;
  Rng rng(5);
  rulesets["community"] = idps::generate_community_ruleset(377, rng);
  std::vector<std::unique_ptr<Lane>> lanes;
  std::string config = use_case_config(use_case);
  auto router = click::ShardedRouter::create(
      config, static_cast<std::size_t>(state.range(1)),
      [&](std::size_t i, const std::string& text) {
        while (lanes.size() <= i) {
          lanes.push_back(std::make_unique<Lane>());
          lanes.back()->context.key_store = &store;
          lanes.back()->context.rulesets = rulesets;
        }
        return click::Router::from_config(text, lanes[i]->registry);
      });
  if (!router.ok()) {
    state.SkipWithError("install failed");
    return;
  }
  for (auto _ : state) benchmark::DoNotOptimize((*router)->hot_swap(config).ok());
  state.SetLabel(use_case_name(use_case));
}
BENCHMARK(BM_ClickHotSwap)
    ->ArgNames({"case", "lanes"})
    ->ArgsProduct({{static_cast<int>(UseCase::Fw), static_cast<int>(UseCase::Idps),
                    static_cast<int>(UseCase::StreamIdps)},
                   {1, 4}});

// One data frame through the seal body (a run of one), reusing `frame`.
static void seal_one(const vpn::SessionKeys& keys, vpn::FragmentHeader& frag,
                     ByteView payload, Rng& rng, Bytes& frame) {
  vpn::SealRun run(keys, vpn::MsgType::Data, 1, rng);
  run.add(frag, payload, frame);
  run.flush();
  ++frag.packet_id;
}

static void BM_VpnSeal(benchmark::State& state) {
  Rng rng(6);
  auto keys = vpn::derive_vpn_keys(1234, rng.bytes(16), rng.bytes(16));
  Bytes payload = rng.bytes(1500);
  vpn::FragmentHeader frag{1, 1, 0, 1};
  Bytes frame;
  for (auto _ : state) {
    seal_one(keys, frag, payload, rng, frame);
    benchmark::DoNotOptimize(frame.data());
  }
  state.SetBytesProcessed(state.iterations() * 1500);
}
BENCHMARK(BM_VpnSeal);

static void BM_VpnSealReference(benchmark::State& state) {
  Rng rng(6);
  auto keys = vpn::derive_vpn_keys(1234, rng.bytes(16), rng.bytes(16));
  Bytes payload = rng.bytes(1500);
  vpn::FragmentHeader frag{1, 1, 0, 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        vpn::reference::seal_data_body(keys, frag, payload, rng));
    ++frag.packet_id;
  }
  state.SetBytesProcessed(state.iterations() * 1500);
}
BENCHMARK(BM_VpnSealReference);

static void BM_VpnSealOpen(benchmark::State& state) {
  Rng rng(6);
  auto keys = vpn::derive_vpn_keys(1234, rng.bytes(16), rng.bytes(16));
  Bytes payload = rng.bytes(1500);
  vpn::FragmentHeader frag{1, 1, 0, 1};
  Bytes frame;
  Bytes body;
  for (auto _ : state) {
    seal_one(keys, frag, payload, rng, frame);
    body.assign(frame.begin() + vpn::kWireHeaderSize, frame.end());
    benchmark::DoNotOptimize(vpn::open_data_body(keys, std::move(body)));
  }
  state.SetBytesProcessed(state.iterations() * 1500);
}
BENCHMARK(BM_VpnSealOpen);

static void BM_VpnSealOpenReference(benchmark::State& state) {
  Rng rng(6);
  auto keys = vpn::derive_vpn_keys(1234, rng.bytes(16), rng.bytes(16));
  Bytes payload = rng.bytes(1500);
  vpn::FragmentHeader frag{1, 1, 0, 1};
  for (auto _ : state) {
    Bytes body = vpn::reference::seal_data_body(keys, frag, payload, rng);
    benchmark::DoNotOptimize(vpn::reference::open_data_body(keys, body));
    ++frag.packet_id;
  }
  state.SetBytesProcessed(state.iterations() * 1500);
}
BENCHMARK(BM_VpnSealOpenReference);

// Arg: lane count. Times the production lane pipeline, worker pool and
// all, on a train re-sealed outside the timed region.
static void BM_LaneChainOpenSeal(benchmark::State& state) {
  LaneChainBench bench(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    bench.seal_train();
    state.ResumeTiming();
    bench.run_full();
    benchmark::DoNotOptimize(bench.out.complete);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(LaneChainBench::kBurst));
}
BENCHMARK(BM_LaneChainOpenSeal)->Arg(1)->Arg(2)->Arg(4);

// PR-6: session-table churn. One step = one expiry pass + one admission
// + one touch of a random live session at a steady-state population —
// the per-packet bookkeeping the VPN server's session shards pay. New
// path: LifecycleTable fronted by the hierarchical timer wheel
// (amortised O(1) expiry per step). Reference: the naive bounded map a
// leak fix usually starts with — an unordered_map plus a periodic
// full-table sweep (every kScanInterval steps), whose amortised cost
// grows with the population instead of the expiry rate.
struct ChurnWheelBench {
  using Table = LifecycleTable<std::uint64_t, std::uint64_t>;
  Table table;
  std::uint64_t population;
  sim::Time now = 0;
  std::uint64_t next_key = 0;
  Rng rng{0x0c11e47};

  explicit ChurnWheelBench(std::uint64_t population_in)
      : table([&] {
          Table::Options options;
          options.capacity = static_cast<std::size_t>(population_in) * 2;
          options.idle_timeout = static_cast<sim::Time>(population_in);
          options.wheel.tick = 1;  // churn time is the step count
          return options;
        }()),
        population(population_in) {
    for (std::uint64_t i = 0; i < population; ++i) step();
  }

  void step() {
    ++now;
    table.expire_idle(now, [](const std::uint64_t&, std::uint64_t&&) {});
    table.insert(next_key++, std::uint64_t{now}, now);
    if (next_key > population)
      table.find_touch(
          next_key - 1 - rng.uniform(std::uint64_t{0}, population - 1), now);
  }
};

struct ChurnScanBench {
  static constexpr std::uint64_t kScanInterval = 1024;
  struct Entry {
    std::uint64_t value;
    sim::Time last_activity;
  };
  std::unordered_map<std::uint64_t, Entry> table;
  std::uint64_t population;
  sim::Time now = 0;
  std::uint64_t next_key = 0;
  Rng rng{0x0c11e47};

  explicit ChurnScanBench(std::uint64_t population_in)
      : population(population_in) {
    table.reserve(static_cast<std::size_t>(population) * 2);
    for (std::uint64_t i = 0; i < population; ++i) step();
  }

  void step() {
    ++now;
    if (now % kScanInterval == 0) {
      const sim::Time timeout = static_cast<sim::Time>(population);
      for (auto it = table.begin(); it != table.end();) {
        if (it->second.last_activity + timeout <= now)
          it = table.erase(it);
        else
          ++it;
      }
    }
    table.emplace(next_key++, Entry{static_cast<std::uint64_t>(now), now});
    if (next_key > population) {
      auto it = table.find(next_key - 1 -
                           rng.uniform(std::uint64_t{0}, population - 1));
      if (it != table.end()) it->second.last_activity = now;
    }
  }
};

// Arg: steady-state session population.
static void BM_SessionTableChurn(benchmark::State& state) {
  ChurnWheelBench bench(static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) {
    bench.step();
    benchmark::DoNotOptimize(bench.now);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SessionTableChurn)->Arg(8192)->Arg(65536);

static void BM_SessionTableChurnFullScan(benchmark::State& state) {
  ChurnScanBench bench(static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) {
    bench.step();
    benchmark::DoNotOptimize(bench.now);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SessionTableChurnFullScan)->Arg(8192)->Arg(65536);

// PR-7: the control-plane reliability layer on a loss-free loopback —
// one full connect cycle through ClientControlPlane (timer-wheel
// arm/cancel, backoff bookkeeping, cached-init management) against the
// raw three-message handshake it wraps. Keepalives are off so both
// sides time exactly one handshake; a ratio near 1.0 shows the retry
// machinery is free when the network behaves.
struct ControlRetryBench {
  Rng pki_rng{0x7e77a1};
  sim::Clock clock;
  sgx::AttestationService ias{pki_rng};
  ca::CertificateAuthority authority{pki_rng, ias};
  sgx::SgxPlatform platform{"bench-retry", pki_rng, clock};
  sgx::Enclave enclave{platform, "endbox-v1", sgx::SgxMode::Hardware};
  crypto::RsaKeyPair enclave_key = crypto::rsa_generate(pki_rng);
  ca::Certificate certificate;

  Rng server_rng{0xbe7717};
  vpn::VpnServer server;
  Rng client_rng{0x301711};
  std::optional<vpn::VpnClientSession> client;
  std::unique_ptr<vpn::ClientControlPlane> cp;
  Bytes pending_reply;
  sim::Time now = 0;

  ControlRetryBench()
      : server(server_rng, authority.public_key(), [] {
          vpn::VpnServerConfig config;
          config.handshake_dedupe_horizon = 0;  // every cycle mints fresh
          return config;
        }()) {
    ias.register_platform("bench-retry", platform.attestation_key().pub);
    authority.allow_measurement(enclave.measurement());
    sgx::QuotingEnclave qe(platform);
    auto quote = qe.quote(enclave.create_report(
        sgx::bind_report_data(enclave_key.pub.serialize())));
    auto response = authority.provision(quote->serialize(), enclave_key.pub);
    if (!response.ok()) std::abort();
    certificate = response->certificate;
    client.emplace(client_rng, certificate, enclave_key, server.public_key(),
                   vpn::VpnClientConfig{});

    vpn::ControlPlaneConfig config;
    config.keepalive_interval = 0;   // isolate the connect cycle
    config.retry_initial = sim::kMillisecond;  // orphan drains in 2 ticks
    vpn::ClientControlPlane::Hooks hooks;
    hooks.make_init = [this]() -> Result<Bytes> {
      return client->create_handshake_init().serialize();
    };
    hooks.on_reply = [this](ByteView wire) -> Status {
      auto parsed = vpn::WireMessage::parse(wire);
      if (!parsed.ok()) return err(parsed.error());
      return client->process_handshake_reply(*parsed);
    };
    hooks.send = [this](ByteView wire, sim::Time t) {
      auto event = server.handle(wire, t);
      if (!event.ok()) return;
      if (auto* done = std::get_if<vpn::VpnServer::HandshakeDone>(&*event))
        pending_reply = done->reply_wire;
    };
    cp = std::make_unique<vpn::ClientControlPlane>(config, std::move(hooks));
  }

  /// One connect cycle through the reliability layer (loopback reply,
  /// delivered after start() returns, as a transport would).
  void cycle_control_plane() {
    now += 2 * sim::kMillisecond;
    cp->advance(now);  // drain the previous cycle's orphaned retry timer
    if (!cp->start(now).ok()) std::abort();
    if (!cp->deliver(pending_reply, now).ok()) std::abort();
    if (!cp->established()) std::abort();
    server.close_session(client->session_id());
  }

  /// The raw handshake the layer wraps.
  void cycle_direct() {
    auto init = client->create_handshake_init();
    auto event = server.handle(init.serialize(), now);
    if (!event.ok()) std::abort();
    auto reply = vpn::WireMessage::parse(
        std::get<vpn::VpnServer::HandshakeDone>(*event).reply_wire);
    if (!reply.ok() || !client->process_handshake_reply(*reply).ok())
      std::abort();
    server.close_session(client->session_id());
  }
};

static void BM_ControlPlaneConnectCycle(benchmark::State& state) {
  ControlRetryBench bench;
  for (auto _ : state) {
    bench.cycle_control_plane();
    benchmark::DoNotOptimize(bench.now);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ControlPlaneConnectCycle);

static void BM_DirectConnectCycle(benchmark::State& state) {
  ControlRetryBench bench;
  for (auto _ : state) {
    bench.cycle_direct();
    benchmark::DoNotOptimize(bench.now);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DirectConnectCycle);

// PR-7: admission churn at a full table. The LRU side admits by
// evicting the idle-longest unpinned entry (clock-hand victim scan +
// slot recycle — the VPN server's admission-storm policy); the manual
// side is the exact-oldest recycle a caller would hand-roll (erase the
// tracked oldest key, then insert).
struct LruChurnBench {
  using Table = LifecycleTable<std::uint64_t, std::uint64_t>;
  static constexpr std::size_t kCapacity = 4096;
  Table lru;
  Table manual;
  std::uint64_t next_lru_key = 0;
  std::uint64_t next_manual_key = 0;
  sim::Time now = 0;

  LruChurnBench()
      : lru([] {
          Table::Options options;
          options.capacity = kCapacity;
          options.eviction = EvictionPolicy::EvictIdleLongest;
          return options;
        }()),
        manual([] {
          Table::Options options;
          options.capacity = kCapacity;
          return options;
        }()) {
    for (std::size_t i = 0; i < kCapacity; ++i) {
      ++now;
      lru.insert(next_lru_key++, 0, now);
      manual.insert(next_manual_key++, 0, now);
    }
  }

  void step_lru() {
    ++now;
    if (!lru.insert(next_lru_key++, 0, now)) std::abort();
  }
  void step_manual() {
    ++now;
    manual.erase(next_manual_key - kCapacity);
    if (!manual.insert(next_manual_key++, 0, now)) std::abort();
  }
};

static void BM_LruEvictionChurn(benchmark::State& state) {
  LruChurnBench bench;
  for (auto _ : state) {
    bench.step_lru();
    benchmark::DoNotOptimize(bench.now);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruEvictionChurn);

// ---------------------------------------------------------------------------
// --json mode: deterministic before/after summary for the bench trajectory.
// ---------------------------------------------------------------------------
namespace {

// Thread CPU time: immune to scheduler preemption and CPU steal on
// shared/CI machines, which otherwise swamp before/after ratios.
double thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

// One timed chunk: runs `op` for at least `min_ms` of CPU time and
// returns ns per op.
template <typename Op>
double time_chunk_ns(Op&& op, double min_ms) {
  std::uint64_t iters = 0;
  double start = thread_cpu_ns();
  double elapsed_ns = 0;
  do {
    for (int i = 0; i < 16; ++i) op();
    iters += 16;
    elapsed_ns = thread_cpu_ns() - start;
  } while (elapsed_ns < min_ms * 1e6);
  return elapsed_ns / static_cast<double>(iters);
}

// Runs `op` repeatedly for at least `min_ms` of CPU time after a
// warm-up and returns ns per operation — minimum over 3 repetitions,
// so transient noise inflates neither path of a comparison.
template <typename Op>
double time_ns_per_op(Op&& op, double min_ms = 60.0) {
  for (int i = 0; i < 8; ++i) op();  // warm-up: fault in tables, size scratch
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    double ns = time_chunk_ns(op, min_ms);
    if (rep == 0 || ns < best) best = ns;
  }
  return best;
}

// Measures an A/B pair with interleaved chunks (A,B,A,B,...), so slow
// drift — frequency scaling, thermal throttling, a noisy neighbour on
// a shared core — hits both sides alike instead of biasing the ratio.
// Returns the per-op minimum of each side.
template <typename OpA, typename OpB>
std::pair<double, double> time_pair_ns_per_op(OpA&& op_a, OpB&& op_b,
                                              double min_ms = 25.0) {
  for (int i = 0; i < 8; ++i) {
    op_a();
    op_b();
  }
  double best_a = 0, best_b = 0;
  for (int rep = 0; rep < 11; ++rep) {
    double a = time_chunk_ns(op_a, min_ms);
    double b = time_chunk_ns(op_b, min_ms);
    if (rep == 0 || a < best_a) best_a = a;
    if (rep == 0 || b < best_b) best_b = b;
  }
  return {best_a, best_b};
}

struct Comparison {
  const char* name;
  double ns_new;
  double ns_ref;
  double speedup() const { return ns_ref / ns_new; }
};

int run_json_mode(const std::string& path) {
  // Spin ~200ms so a power-managed core reaches its steady frequency
  // before the first comparison (the first pair otherwise measures the
  // ramp, not the code).
  double spin_until = thread_cpu_ns() + 2e8;
  std::uint64_t spin_sink = 0;
  while (thread_cpu_ns() < spin_until) {
    ++spin_sink;
    benchmark::DoNotOptimize(spin_sink);
  }

  constexpr std::size_t kPayload = 1500;
  Rng rng(6);
  auto keys = vpn::derive_vpn_keys(1234, rng.bytes(16), rng.bytes(16));
  Bytes payload = rng.bytes(kPayload);
  vpn::FragmentHeader frag{1, 1, 0, 1};

  Bytes frame;
  Bytes body;
  double seal_new = time_ns_per_op([&] { seal_one(keys, frag, payload, rng, frame); });
  double seal_ref = time_ns_per_op([&] {
    benchmark::DoNotOptimize(
        vpn::reference::seal_data_body(keys, frag, payload, rng));
    ++frag.packet_id;
  });

  seal_one(keys, frag, payload, rng, frame);
  Bytes sealed_template(frame.begin() + vpn::kWireHeaderSize, frame.end());
  double open_new = time_ns_per_op([&] {
    body.assign(sealed_template.begin(), sealed_template.end());
    auto opened = vpn::open_data_body(keys, std::move(body));
    if (!opened.ok()) std::abort();
    body = std::move(opened->payload);
  });
  double open_ref = time_ns_per_op([&] {
    auto opened = vpn::reference::open_data_body(keys, sealed_template);
    if (!opened.ok()) std::abort();
  });

  // The burst seal body: one session's 16 x 1500 B downlink jobs
  // as one seal_jobs burst (CBC chains side by side, MACs in pairs) vs
  // the same jobs as 16 bursts of one. Reported per frame.
  constexpr std::size_t kSealBurst = 16;
  LaneChainBench seal_bench(1);
  std::vector<vpn::VpnServer::SealJob> seal_burst(
      kSealBurst, {seal_bench.clients[0].session_id(), seal_bench.payload});
  std::vector<Bytes> seal_burst_frames;
  auto [burst16_ns, single16_ns] = time_pair_ns_per_op(
      [&] { seal_bench.server.seal_jobs(seal_burst, seal_burst_frames); },
      [&] {
        for (const auto& job : seal_burst)
          seal_bench.server.seal_jobs({&job, 1}, seal_burst_frames);
      });
  burst16_ns /= static_cast<double>(kSealBurst);
  single16_ns /= static_cast<double>(kSealBurst);

  // PR-3: the representative element chain, one 64-packet burst
  // (PacketBatch + pooled buffers) vs 64 bursts of one (fresh buffers)
  // as the baseline. Reported per packet. The compact-ruleset rows
  // isolate the graph traversal batching amortises; the community rows
  // show the floor when Aho-Corasick scanning dominates.
  constexpr std::size_t kBurst = click::PacketBatch::kMaxBurst;
  auto chain_pair = [&](std::size_t payload_size, std::size_t ids_rules,
                        double& ns_batch, double& ns_single) {
    ChainBench chain(ids_rules);
    Rng payload_rng(9);
    Bytes payload = payload_rng.bytes(payload_size);
    auto [batch_ns, single_ns] =
        time_pair_ns_per_op([&] { chain.run_batch(payload, kBurst); },
                            [&] { chain.run_per_packet(payload, kBurst); });
    ns_batch = batch_ns / static_cast<double>(kBurst);
    ns_single = single_ns / static_cast<double>(kBurst);
  };
  double chain64_batch = 0, chain64_single = 0;
  double chain256_batch = 0, chain256_single = 0;
  double chain1500_batch = 0, chain1500_single = 0;
  double community64_batch = 0, community64_single = 0;
  double community1500_batch = 0, community1500_single = 0;
  chain_pair(64, 12, chain64_batch, chain64_single);
  chain_pair(256, 12, chain256_batch, chain256_single);
  chain_pair(1500, 12, chain1500_batch, chain1500_single);
  chain_pair(64, 377, community64_batch, community64_single);
  chain_pair(1500, 377, community1500_batch, community1500_single);

  // PR-4: the sharded chain. Each shard's share of the canonical
  // 64-packet/32-flow burst is timed serially (thread CPU time); the
  // burst's cost at N shards is its critical path — the slowest shard —
  // which is the completion time when every shard owns a core. Reported
  // per packet of the whole burst, so the N-shard rows read as
  // aggregate throughput.
  constexpr std::size_t kShardBurst = ShardedChainBench::kBurst;
  Rng shard_rng(9);
  Bytes shard_payload = shard_rng.bytes(kPayload);
  auto sharded_burst_ns = [&](std::size_t shards) {
    ShardedChainBench bench(shards);
    double critical = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      if (bench.shard_packets(s) == 0) continue;
      double ns = time_ns_per_op([&] { bench.run_shard(s, shard_payload); });
      critical = std::max(critical, ns);
    }
    return critical;
  };
  double sharded1 = sharded_burst_ns(1) / static_cast<double>(kShardBurst);
  double sharded2 = sharded_burst_ns(2) / static_cast<double>(kShardBurst);
  double sharded4 = sharded_burst_ns(4) / static_cast<double>(kShardBurst);

  // PR-6: session-table churn at steady state — timer-wheel lifecycle
  // table vs the periodic full-scan map, interleaved per population.
  auto churn_pair = [&](std::uint64_t population, double& ns_wheel,
                        double& ns_scan) {
    ChurnWheelBench wheel(population);
    ChurnScanBench scan(population);
    auto [w, s] =
        time_pair_ns_per_op([&] { wheel.step(); }, [&] { scan.step(); });
    ns_wheel = w;
    ns_scan = s;
  };
  double churn8k_wheel = 0, churn8k_scan = 0;
  double churn64k_wheel = 0, churn64k_scan = 0;
  churn_pair(8192, churn8k_wheel, churn8k_scan);
  churn_pair(65536, churn64k_wheel, churn64k_scan);

  // PR-7: the robustness layer — a loopback connect cycle through the
  // ClientControlPlane vs the raw handshake it wraps, and LRU-eviction
  // admission churn vs an exact-oldest manual recycle.
  ControlRetryBench retry;
  auto [retry_cp_ns, retry_direct_ns] = time_pair_ns_per_op(
      [&] { retry.cycle_control_plane(); }, [&] { retry.cycle_direct(); });
  LruChurnBench lru_churn;
  auto [lru_ns, manual_ns] = time_pair_ns_per_op(
      [&] { lru_churn.step_lru(); }, [&] { lru_churn.step_manual(); });

  Rng stream_rng(4);
  auto stream_rules = idps::generate_community_ruleset(377, stream_rng);
  net::Packet stream_probe = net::Packet::udp(
      net::Ipv4(10, 8, 0, 2), net::Ipv4(10, 0, 0, 1), 1, 2, {});

  // The two-tier scanning engine. Clean rows scan a benign random
  // payload — the common case — through the prefiltered inspect vs a
  // fallback engine: the same rules plus one 1-byte content that can
  // never fire, which disables the prefilter so the automaton walks
  // the whole buffer as one run. The prefilter's SIMD literal screen
  // clears the payload without entering the automaton, so the ratio is
  // the tier-1 skip-rate payoff per packet size. The dirty row plants
  // community contents through the payload so tier 2 confirms real
  // candidate windows — the ratio shows the prefilter still pays when
  // some windows need walking. The memcpy row prices the clean 1500B
  // scan against a plain copy of the same bytes (new = the scan, ref =
  // the copy, so the speedup is memcpy/scan — it approaches 1.0 as the
  // scan approaches the memory floor, and improving the scan raises
  // it).
  auto fallback_rules = stream_rules;
  fallback_rules.push_back(*idps::parse_snort_rule(
      "alert tcp any any -> any 1 (content:\"|ff|\"; "
      "content:\"|ff fe ff fe|\"; sid:999999;)"));
  idps::IdpsEngine pf_engine(stream_rules);
  idps::IdpsEngine pf_ref_engine(fallback_rules);
  idps::IdpsEngine::InspectScratch pf_scratch, pf_ref_scratch;
  Rng pf_rng(12);
  auto prefilter_pair = [&](ByteView payload, double& ns_new,
                            double& ns_ref) {
    auto [n, r] = time_pair_ns_per_op(
        [&] {
          benchmark::DoNotOptimize(
              pf_engine.inspect(stream_probe, payload, pf_scratch));
        },
        [&] {
          benchmark::DoNotOptimize(
              pf_ref_engine.inspect(stream_probe, payload, pf_ref_scratch));
        });
    ns_new = n;
    ns_ref = r;
  };
  Bytes clean64 = pf_rng.bytes(64);
  Bytes clean512 = pf_rng.bytes(512);
  Bytes clean1500 = pf_rng.bytes(kPayload);
  Bytes dirty1500 = pf_rng.bytes(kPayload);
  for (std::size_t at = 100; at + 64 < dirty1500.size(); at += 350) {
    const Bytes& planted =
        stream_rules[(at / 350) % stream_rules.size()].contents[0].bytes;
    std::copy(planted.begin(), planted.end(),
              dirty1500.begin() + static_cast<std::ptrdiff_t>(at));
  }
  // The fallback rule's contents are built from byte 0xff: scrub it so
  // the ref side is the plain whole-buffer walk, with no extra hits.
  for (Bytes* p : {&clean64, &clean512, &clean1500, &dirty1500})
    std::replace(p->begin(), p->end(), std::uint8_t{0xff}, std::uint8_t{0xfe});
  // bench_e2e's traffic shape: alphanumeric filler, which no community
  // content matches but the nibble test alone fires on ~14 times per KiB.
  constexpr char kAlnum[] =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
  Bytes alnum1500(kPayload);
  for (auto& b : alnum1500)
    b = static_cast<std::uint8_t>(kAlnum[pf_rng.uniform(0, 61)]);
  double pf_clean64 = 0, pf_clean64_ref = 0;
  double pf_clean512 = 0, pf_clean512_ref = 0;
  double pf_clean1500 = 0, pf_clean1500_ref = 0;
  double pf_dirty1500 = 0, pf_dirty1500_ref = 0;
  double pf_alnum1500 = 0, pf_alnum1500_ref = 0;
  prefilter_pair(clean64, pf_clean64, pf_clean64_ref);
  prefilter_pair(clean512, pf_clean512, pf_clean512_ref);
  prefilter_pair(clean1500, pf_clean1500, pf_clean1500_ref);
  prefilter_pair(dirty1500, pf_dirty1500, pf_dirty1500_ref);
  prefilter_pair(alnum1500, pf_alnum1500, pf_alnum1500_ref);

  // Tier 1's worst case, dense nibble candidates: the contents
  // |01 10 01 10| and |10 01 10 01| sort before every community
  // fragment and share bucket 0, so bytes 0x00 and 0x11 pass its masks
  // at every position, yet a payload of only those bytes spells no
  // fragment. The nibble test fires at nearly every byte and the
  // fragment check must reject each candidate.
  auto dense_rules = stream_rules;
  for (const char* rule :
       {"alert udp any any -> any 1 (content:\"|01 10 01 10|\"; sid:999997;)",
        "alert udp any any -> any 1 (content:\"|10 01 10 01|\"; sid:999998;)"})
    dense_rules.push_back(*idps::parse_snort_rule(rule));
  auto dense_fallback_rules = dense_rules;
  dense_fallback_rules.push_back(fallback_rules.back());
  idps::IdpsEngine dense_engine(dense_rules);
  idps::IdpsEngine dense_ref_engine(dense_fallback_rules);
  idps::IdpsEngine::InspectScratch dense_scratch, dense_ref_scratch;
  Bytes dense1500(kPayload);
  for (auto& b : dense1500) b = pf_rng.uniform(0, 1) == 0 ? 0x00 : 0x11;
  auto [pf_dense1500, pf_dense1500_ref] = time_pair_ns_per_op(
      [&] {
        benchmark::DoNotOptimize(
            dense_engine.inspect(stream_probe, dense1500, dense_scratch));
      },
      [&] {
        benchmark::DoNotOptimize(
            dense_ref_engine.inspect(stream_probe, dense1500, dense_ref_scratch));
      });

  Bytes memcpy_dst(kPayload);
  auto [memcpy_ns, pf_clean1500_again] = time_pair_ns_per_op(
      [&] {
        std::memcpy(memcpy_dst.data(), clean1500.data(), clean1500.size());
        benchmark::DoNotOptimize(memcpy_dst.data());
      },
      [&] {
        benchmark::DoNotOptimize(
            pf_engine.inspect(stream_probe, clean1500, pf_scratch));
      });

  Comparison comparisons[] = {
      {"seal_data_1500B", seal_new, seal_ref},
      {"open_data_1500B", open_new, open_ref},
      {"seal_burst16_1500B", burst16_ns, single16_ns},
      {"click_chain_64B_burst64", chain64_batch, chain64_single},
      {"click_chain_256B_burst64", chain256_batch, chain256_single},
      {"click_chain_1500B_burst64", chain1500_batch, chain1500_single},
      {"click_chain_community_64B_burst64", community64_batch, community64_single},
      {"click_chain_community_1500B_burst64", community1500_batch,
       community1500_single},
      // new = N-shard critical path, ref = the 1-shard burst: speedup is
      // the aggregate-throughput gain of sharding.
      {"sharded_chain_community_1500B_burst64_2shards", sharded2, sharded1},
      {"sharded_chain_community_1500B_burst64_4shards", sharded4, sharded1},
      // new = LifecycleTable + timer wheel, ref = unordered_map with a
      // periodic full-table expiry scan, per churn step (expiry pass +
      // admission + touch) at a steady-state session population.
      {"session_table_churn_8k", churn8k_wheel, churn8k_scan},
      {"session_table_churn_64k", churn64k_wheel, churn64k_scan},
      // new = one connect cycle through the ClientControlPlane (timers
      // + backoff bookkeeping), ref = the raw three-message handshake:
      // speedup ~1.0 shows retry reliability is free on a clean link.
      {"control_plane_connect_cycle", retry_cp_ns, retry_direct_ns},
      // new = LRU admission into a full table (clock-hand victim scan
      // + recycle), ref = exact-oldest erase+insert by hand.
      {"lru_eviction_churn_4k", lru_ns, manual_ns},
      // new = two-tier prefiltered inspect, ref = the fallback engine's
      // whole-buffer walk. Clean payloads never enter the automaton;
      // the dirty row confirms planted candidate windows; the alnum row
      // is bench_e2e's payload shape and dense_alias tier 1's worst case.
      {"prefilter_clean_64B", pf_clean64, pf_clean64_ref},
      {"prefilter_clean_512B", pf_clean512, pf_clean512_ref},
      {"prefilter_clean_1500B", pf_clean1500, pf_clean1500_ref},
      {"prefilter_dirty_1500B", pf_dirty1500, pf_dirty1500_ref},
      {"prefilter_alnum_1500B", pf_alnum1500, pf_alnum1500_ref},
      {"prefilter_dense_alias_1500B", pf_dense1500, pf_dense1500_ref},
      // new = the clean prefiltered 1500B scan, ref = memcpy of the
      // same bytes: speedup climbs toward 1.0 as the scan approaches
      // the memory floor.
      {"prefilter_clean_1500B_vs_memcpy", pf_clean1500_again, memcpy_ns},
  };

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"pr\": 12,\n  \"payload_bytes\": %zu,\n", kPayload);
  std::fprintf(f,
               "  \"note\": \"ref = the baseline each row names; seal/open "
               "ref = the byte-wise test oracle; seal_burst16_1500B is ns "
               "per frame of one session's 16-job seal_jobs burst vs 16 "
               "bursts of one; click_chain rows are "
               "ns/packet, one 64-packet burst vs 64 bursts of one; "
               "sharded_chain rows are critical-path ns/packet for 64-packet "
               "bursts, each shard timed serially and the burst costed at the "
               "slowest shard (one core per shard); "
               "session_table_churn rows are ns per churn step (expiry pass + "
               "admission + touch) at a steady-state population, timer-wheel "
               "LifecycleTable vs an unordered_map with a periodic full-table "
               "expiry scan (mb_per_s is meaningless for these rows); "
               "control_plane_connect_cycle is one loopback connect through "
               "the ClientControlPlane vs the raw handshake; "
               "lru_eviction_churn_4k is one at-capacity admission, clock-hand "
               "LRU eviction vs exact-oldest manual recycle; "
               "prefilter rows scan one payload "
               "against the 377-rule community set, two-tier SIMD literal "
               "prefilter + candidate-window confirm vs a fallback engine "
               "whose extra 1-byte content disables the prefilter (clean = "
               "random bytes the rules never match, dirty = community "
               "contents planted every ~350B, alnum = alphanumeric filler as "
               "in bench_e2e, dense_alias = bytes that pass a nibble bucket "
               "at every position but spell no fragment, against the set "
               "plus the two contents that alias); "
               "prefilter_clean_1500B_vs_memcpy prices the clean scan "
               "against a plain copy of the same bytes (speedup -> 1.0 at "
               "the memory floor)\",\n");
  std::fprintf(f, "  \"results\": {\n");
  for (std::size_t i = 0; i < std::size(comparisons); ++i) {
    const Comparison& c = comparisons[i];
    double mbps_new = static_cast<double>(kPayload) * 1e3 / c.ns_new;
    double mbps_ref = static_cast<double>(kPayload) * 1e3 / c.ns_ref;
    std::fprintf(f,
                 "    \"%s\": {\"ns_per_op\": %.1f, \"ns_per_op_ref\": %.1f, "
                 "\"mb_per_s\": %.1f, \"mb_per_s_ref\": %.1f, "
                 "\"speedup\": %.2f}%s\n",
                 c.name, c.ns_new, c.ns_ref, mbps_new, mbps_ref, c.speedup(),
                 i + 1 < std::size(comparisons) ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);

  for (const Comparison& c : comparisons)
    std::printf("%-45s new %9.1f ns/op   ref %9.1f ns/op   speedup %.2fx\n",
                c.name, c.ns_new, c.ns_ref, c.speedup());
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      std::string path = "BENCH_pr12.json";
      if (i + 1 < argc && argv[i + 1][0] != '-') path = argv[i + 1];
      return run_json_mode(path);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
