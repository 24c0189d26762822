// ShardedRouter tests: RSS dispatch invariants, the property that a
// sharded router is byte- and per-flow-order-identical to the
// single-shard router for random configs and bursts, reshard state
// migration (Counter totals, Queue contents, IDPS statistics across a
// 1 -> 4 -> 2 transition with no packet loss), worker-pool behaviour,
// and the enclave-level sharded batch ecalls. This suite (and
// enclave_test) also runs under ThreadSanitizer in CI — the worker
// threads here are real.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "click/sharded_router.hpp"
#include "click/standard_elements.hpp"
#include "elements/context.hpp"
#include "elements/device.hpp"
#include "elements/ids_matcher.hpp"
#include "elements/tls_decrypt.hpp"
#include "endbox_world.hpp"
#include "idps/snort_rules.hpp"
#include "net/packet.hpp"
#include "tls/session.hpp"

namespace endbox {
namespace {

using click::PacketBatch;
using click::ShardedRouter;

// One delivered packet, as observed at ToDevice.
struct Delivered {
  std::uint32_t tag = 0;
  bool accepted = false;
  Bytes wire;              ///< serialised bytes (header mutations visible)
  std::uint32_t flow_hint = 0;  ///< Paint annotation (not serialised)
  net::FlowKey flow;
};

// A sharded router with per-shard contexts and result sinks, the same
// shape the enclave wires up.
struct ShardHarness {
  struct Rig {
    elements::ElementContext context;
    click::ElementRegistry registry;
    std::vector<Delivered> results;
    Rig() : registry(elements::make_endbox_registry(context)) {}
  };

  tls::SessionKeyStore store;
  std::vector<idps::SnortRule> rules;
  std::vector<std::unique_ptr<Rig>> rigs;
  std::unique_ptr<ShardedRouter> router;

  explicit ShardHarness(const std::string& config, std::size_t shards) {
    Rng rules_rng(7);
    rules = idps::generate_community_ruleset(40, rules_rng);
    auto built = ShardedRouter::create(config, shards, factory());
    if (!built.ok()) throw std::runtime_error(built.error());
    router = std::move(*built);
  }

  ShardedRouter::RouterFactory factory() {
    return [this](std::size_t i, const std::string& cfg) {
      while (rigs.size() <= i) {
        auto rig = std::make_unique<Rig>();
        rig->context.key_store = &store;
        rig->context.rulesets["community"] = rules;
        rig->context.trusted_time = [] { return sim::Time{0}; };
        rig->context.untrusted_time = [] { return sim::Time{0}; };
        Rig* raw = rig.get();
        rig->context.to_device = [raw](net::Packet&& packet, bool accepted) {
          Delivered d;
          d.tag = packet.burst_tag;
          d.accepted = accepted;
          d.wire = packet.serialize();
          d.flow_hint = packet.flow_hint;
          d.flow = net::FlowKey::of(packet);
          raw->results.push_back(std::move(d));
        };
        rigs.push_back(std::move(rig));
      }
      return click::Router::from_config(cfg, rigs[i]->registry);
    };
  }

  /// Pushes a burst (stamping arrival tags) and returns everything the
  /// shards delivered, merged back into tag order.
  std::vector<Delivered> run_burst(PacketBatch&& batch) {
    std::uint32_t tag = 0;
    for (net::Packet& packet : batch) packet.burst_tag = tag++;
    for (auto& rig : rigs) rig->results.clear();
    if (!router->push_batch_to("from_device", std::move(batch)))
      throw std::runtime_error("push_batch_to failed");
    std::vector<Delivered> merged;
    for (auto& rig : rigs)
      for (Delivered& d : rig->results) merged.push_back(std::move(d));
    std::stable_sort(merged.begin(), merged.end(),
                     [](const Delivered& a, const Delivered& b) {
                       return a.tag < b.tag;
                     });
    for (auto& rig : rigs) rig->results.clear();
    return merged;
  }

  /// Sums a per-element counter across shards.
  template <typename T, typename Fn>
  std::uint64_t sum(const std::string& name, Fn&& fn) {
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < router->shard_count(); ++s) {
      auto* element = router->shard(s).find_as<T>(name);
      if (element) total += fn(*element);
    }
    return total;
  }
};

net::Packet random_packet(Rng& rng) {
  net::Packet packet = net::Packet::udp(
      net::Ipv4(10, 8, 0, static_cast<std::uint8_t>(1 + rng.uniform(1, 6))),
      net::Ipv4(10, 0, 0, 1), static_cast<std::uint16_t>(40000 + rng.uniform(0, 31)),
      static_cast<std::uint16_t>(rng.uniform(1, 12)), rng.bytes(rng.uniform(0, 200)));
  if (rng.uniform(0, 9) == 0) packet.ttl = 0;  // CheckIPHeader reject
  return packet;
}

// A random element chain drawn from the order-stable element pool, with
// every reject port wired so each packet reaches a verdict.
std::string random_config(Rng& rng) {
  struct Candidate {
    const char* decl;
    const char* name;
    bool has_reject;
  };
  const Candidate pool[] = {
      {"cnt :: Counter", "cnt", false},
      {"tos :: SetTos(0x20)", "tos", false},
      {"paint :: Paint(5)", "paint", false},
      {"check :: CheckIPHeader", "check", true},
      {"fw :: IPFilter(drop dst port %, allow all)", "fw", true},
      {"ids :: IDSMatcher(RULESET community)", "ids", true},
      {"cnt2 :: Counter", "cnt2", false},
  };
  std::string decls = "from_device :: FromDevice; to_device :: ToDevice;";
  std::string chain = "from_device";
  std::string rejects;
  for (const Candidate& c : pool) {
    if (rng.uniform(0, 1) == 0) continue;
    std::string decl = c.decl;
    if (auto pos = decl.find('%'); pos != std::string::npos)
      decl.replace(pos, 1, std::to_string(rng.uniform(1, 12)));
    decls += decl + ";";
    chain += std::string(" -> ") + c.name;
    if (c.has_reject) rejects += std::string(c.name) + "[1] -> [1]to_device;";
  }
  chain += " -> to_device;";
  return decls + chain + rejects;
}

PacketBatch random_burst(Rng& rng, std::size_t n) {
  PacketBatch batch;
  for (std::size_t i = 0; i < n; ++i) batch.push_back(random_packet(rng));
  return batch;
}

// ---- Dispatch invariants ---------------------------------------------------

TEST(ShardDispatch, StableAndInRange) {
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    net::Packet packet = random_packet(rng);
    auto key = net::FlowKey::of(packet);
    for (std::size_t shards : {1u, 2u, 4u, 7u}) {
      std::size_t shard = click::shard_of(key, shards);
      EXPECT_LT(shard, shards);
      EXPECT_EQ(shard, click::shard_of(key, shards)) << "dispatch not stable";
    }
  }
}

TEST(ShardDispatch, SpreadsFlowsAcrossShards) {
  // 32 source ports from the world's traffic shape must not all land
  // in one shard (the splitmix64 finaliser spreads adjacent ports).
  std::map<std::size_t, int> histogram;
  for (std::uint16_t port = 0; port < 32; ++port) {
    net::FlowKey key{net::Ipv4(10, 8, 0, 2), net::Ipv4(10, 0, 0, 1),
                     static_cast<std::uint16_t>(40000 + port), 5001,
                     net::IpProto::Udp};
    ++histogram[click::shard_of(key, 4)];
  }
  EXPECT_EQ(histogram.size(), 4u);
  for (const auto& [shard, count] : histogram) EXPECT_GE(count, 2) << shard;
}

// ---- Equivalence property --------------------------------------------------

TEST(ShardedEquivalence, RandomConfigsAndBurstsMatchSingleShard) {
  Rng rng(0xeb0c);
  for (int round = 0; round < 12; ++round) {
    std::string config = random_config(rng);
    ShardHarness single(config, 1);
    ShardHarness sharded(config, 1 + static_cast<std::size_t>(rng.uniform(1, 4)));

    std::uint64_t seed = rng.uniform(1, 1u << 30);
    Rng traffic_a(seed), traffic_b(seed);
    for (int burst = 0; burst < 6; ++burst) {
      std::size_t n = static_cast<std::size_t>(traffic_a.uniform(1, 64));
      auto single_out = single.run_burst(random_burst(traffic_a, n));
      auto sharded_out =
          sharded.run_burst(random_burst(traffic_b, traffic_b.uniform(1, 64)));
      ASSERT_EQ(single_out.size(), sharded_out.size())
          << "round " << round << " config: " << config;

      // Byte identity as a multiset: same packets, same verdicts, same
      // header mutations and annotations.
      auto key = [](const Delivered& d) {
        return std::make_tuple(d.wire, d.accepted, d.flow_hint);
      };
      std::vector<std::tuple<Bytes, bool, std::uint32_t>> a, b;
      for (const auto& d : single_out) a.push_back(key(d));
      for (const auto& d : sharded_out) b.push_back(key(d));
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      ASSERT_EQ(a, b) << "round " << round << " config: " << config;

      // Per-flow order identity: each flow's delivery sequence matches
      // exactly (flows never cross shards, so sharding cannot reorder
      // within a flow).
      auto by_flow = [](const std::vector<Delivered>& all) {
        std::map<std::size_t, std::vector<std::pair<Bytes, bool>>> flows;
        std::hash<net::FlowKey> h;
        for (const auto& d : all)
          flows[h(d.flow)].emplace_back(d.wire, d.accepted);
        return flows;
      };
      ASSERT_EQ(by_flow(single_out), by_flow(sharded_out))
          << "round " << round << " config: " << config;
    }

    // Aggregate element state matches the single-shard totals.
    EXPECT_EQ(single.sum<click::Counter>(
                  "cnt", [](const click::Counter& c) { return c.packets(); }),
              sharded.sum<click::Counter>(
                  "cnt", [](const click::Counter& c) { return c.packets(); }));
    EXPECT_EQ(single.sum<elements::IDSMatcher>(
                  "ids",
                  [](const elements::IDSMatcher& m) { return m.bytes_scanned(); }),
              sharded.sum<elements::IDSMatcher>(
                  "ids",
                  [](const elements::IDSMatcher& m) { return m.bytes_scanned(); }));
  }
}

TEST(ShardedEquivalence, PerPacketPushMatchesSingleShardToo) {
  const std::string config =
      "from_device :: FromDevice; cnt :: Counter;"
      "check :: CheckIPHeader; to_device :: ToDevice;"
      "from_device -> cnt -> check -> to_device;"
      "check[1] -> [1]to_device;";
  ShardHarness single(config, 1);
  ShardHarness sharded(config, 4);
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    net::Packet packet = random_packet(rng);
    net::Packet copy = packet;
    ASSERT_TRUE(single.router->push_to("from_device", std::move(packet)));
    ASSERT_TRUE(sharded.router->push_to("from_device", std::move(copy)));
  }
  EXPECT_EQ(single.sum<click::Counter>(
                "cnt", [](const click::Counter& c) { return c.packets(); }),
            100u);
  EXPECT_EQ(sharded.sum<click::Counter>(
                "cnt", [](const click::Counter& c) { return c.packets(); }),
            100u);
}

TEST(ShardedEquivalence, ConcurrentTlsDecryptKeyLookupsAreSafe) {
  // All shards share the enclave's one SessionKeyStore; TLSDecrypt
  // consults it per TLS record on the worker threads, so its lookup
  // statistics must be race-free (this test runs under TSan in CI).
  const std::string config =
      "from_device :: FromDevice; tlsd :: TLSDecrypt;"
      "to_device :: ToDevice; from_device -> tlsd -> to_device;";
  ShardHarness harness(config, 4);
  tls::TlsRecord record;  // application data, no key forwarded -> miss path
  record.ciphertext = to_bytes("opaque-application-bytes");
  record.mac = Bytes(16, 0xab);
  Bytes payload = record.serialize();

  constexpr std::uint64_t kRounds = 50;
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    PacketBatch batch;
    for (std::uint16_t k = 0; k < 64; ++k) {
      net::Packet packet =
          net::Packet::udp(net::Ipv4(10, 8, 0, 2), net::Ipv4(10, 0, 0, 1),
                           static_cast<std::uint16_t>(40000 + k % 32), 443,
                           payload);
      packet.flow_hint = 1 + k % 7;  // TLS session id annotation
      batch.push_back(std::move(packet));
    }
    harness.run_burst(std::move(batch));
  }
  EXPECT_EQ(harness.store.lookups(), kRounds * 64);
  EXPECT_EQ(harness.store.misses(), kRounds * 64);
  EXPECT_EQ(harness.sum<elements::TLSDecrypt>(
                "tlsd",
                [](const elements::TLSDecrypt& t) { return t.key_misses(); }),
            kRounds * 64);
}

// ---- Reshard state migration ----------------------------------------------

TEST(Reshard, CounterQueueIdpsStateSurvives1To4To2WithNoLoss) {
  const std::string config =
      "from_device :: FromDevice; cnt :: Counter;"
      "ids :: IDSMatcher(RULESET community); q :: Queue(500);"
      "to_device :: ToDevice;"
      "from_device -> cnt -> ids -> q; ids[1] -> [1]to_device;";
  ShardHarness harness(config, 1);
  Rng rng(23);

  auto offered_bytes = [&] {
    return harness.sum<click::Counter>(
        "cnt", [](const click::Counter& c) { return c.bytes(); });
  };
  auto counted = [&] {
    return harness.sum<click::Counter>(
        "cnt", [](const click::Counter& c) { return c.packets(); });
  };
  auto queued = [&] {
    return harness.sum<click::Queue>(
        "q", [](const click::Queue& q) { return q.size(); });
  };
  auto scanned = [&] {
    return harness.sum<elements::IDSMatcher>(
        "ids", [](const elements::IDSMatcher& m) { return m.bytes_scanned(); });
  };

  for (int i = 0; i < 3; ++i) harness.run_burst(random_burst(rng, 50));
  std::uint64_t counted_1 = counted();
  std::uint64_t bytes_1 = offered_bytes();
  std::uint64_t queued_1 = queued();
  std::uint64_t scanned_1 = scanned();
  ASSERT_EQ(counted_1, 150u);
  ASSERT_GT(queued_1, 0u);

  // 1 -> 4: totals preserved, queued packets land in their flow's shard.
  ASSERT_TRUE(harness.router->reshard(4).ok());
  EXPECT_EQ(harness.router->shard_count(), 4u);
  EXPECT_EQ(counted(), counted_1);
  EXPECT_EQ(offered_bytes(), bytes_1);
  EXPECT_EQ(queued(), queued_1);
  EXPECT_EQ(scanned(), scanned_1);
  for (std::size_t s = 0; s < 4; ++s) {
    auto* q = harness.router->shard(s).find_as<click::Queue>("q");
    ASSERT_NE(q, nullptr);
    std::vector<net::Packet> drained;
    while (auto packet = q->pop()) drained.push_back(std::move(*packet));
    for (net::Packet& packet : drained) {
      EXPECT_EQ(click::shard_of(net::FlowKey::of(packet), 4), s)
          << "queued packet migrated to the wrong shard";
      q->push(0, std::move(packet));  // keep for the next transition
    }
  }

  // Traffic keeps flowing after the transition.
  for (int i = 0; i < 2; ++i) harness.run_burst(random_burst(rng, 50));
  std::uint64_t counted_4 = counted();
  EXPECT_EQ(counted_4, counted_1 + 100);

  // 4 -> 2: still lossless.
  std::uint64_t queued_4 = queued();
  std::uint64_t scanned_4 = scanned();
  ASSERT_TRUE(harness.router->reshard(2).ok());
  EXPECT_EQ(harness.router->shard_count(), 2u);
  EXPECT_EQ(counted(), counted_4);
  EXPECT_EQ(queued(), queued_4);
  EXPECT_EQ(scanned(), scanned_4);
  EXPECT_EQ(harness.router->reshard_count(), 2u);

  for (int i = 0; i < 2; ++i) harness.run_burst(random_burst(rng, 50));
  EXPECT_EQ(counted(), counted_4 + 100);
}

TEST(Reshard, ShrinkReusesTheWorkerPool) {
  // Satellite regression: reshard used to tear down and respawn the
  // worker threads on every transition. Shrinking must keep the pool
  // (surplus workers park — the hand-off protocol documented in
  // sharded_router.hpp); only growing past its size rebuilds it.
  const std::string config =
      "from_device :: FromDevice; cnt :: Counter; to_device :: ToDevice;"
      "from_device -> cnt -> to_device;";
  ShardHarness harness(config, 4);
  Rng rng(91);
  EXPECT_EQ(harness.router->worker_threads(), 4u);

  ASSERT_TRUE(harness.router->reshard(2).ok());
  EXPECT_EQ(harness.router->worker_threads(), 4u) << "shrink rebuilt the pool";
  harness.run_burst(random_burst(rng, 40));

  ASSERT_TRUE(harness.router->reshard(3).ok());
  EXPECT_EQ(harness.router->worker_threads(), 4u) << "regrow within the pool";
  harness.run_burst(random_burst(rng, 40));

  ASSERT_TRUE(harness.router->reshard(6).ok());
  EXPECT_EQ(harness.router->worker_threads(), 6u);
  harness.run_burst(random_burst(rng, 40));

  ASSERT_TRUE(harness.router->reshard(1).ok());
  EXPECT_EQ(harness.router->worker_threads(), 0u) << "single shard runs inline";
  harness.run_burst(random_burst(rng, 40));

  std::uint64_t total = harness.sum<click::Counter>(
      "cnt", [](const click::Counter& c) { return c.packets(); });
  EXPECT_EQ(total, 160u);
}

TEST(Reshard, HotSwapTransfersStatePerShard) {
  const std::string config_a =
      "from_device :: FromDevice; cnt :: Counter; to_device :: ToDevice;"
      "from_device -> cnt -> to_device;";
  const std::string config_b =
      "from_device :: FromDevice; cnt :: Counter; tos :: SetTos(9);"
      "to_device :: ToDevice; from_device -> cnt -> tos -> to_device;";
  ShardHarness harness(config_a, 3);
  Rng rng(29);
  harness.run_burst(random_burst(rng, 60));
  std::uint64_t before = harness.sum<click::Counter>(
      "cnt", [](const click::Counter& c) { return c.packets(); });
  ASSERT_TRUE(harness.router->hot_swap(config_b).ok());
  EXPECT_EQ(harness.sum<click::Counter>(
                "cnt", [](const click::Counter& c) { return c.packets(); }),
            before);
  // The swapped-in graph processes traffic with the new element.
  auto delivered = harness.run_burst(random_burst(rng, 10));
  for (const auto& d : delivered)
    if (d.accepted) {
      auto parsed = net::Packet::parse(d.wire);
      ASSERT_TRUE(parsed.ok());
      EXPECT_EQ(parsed->tos, 9);
    }
}

TEST(Reshard, RejectsZeroShards) {
  ShardHarness harness(
      "from_device :: FromDevice; to_device :: ToDevice;"
      "from_device -> to_device;",
      2);
  EXPECT_FALSE(harness.router->reshard(0).ok());
  EXPECT_EQ(harness.router->shard_count(), 2u);
}

// ---- Worker pool ----------------------------------------------------------

TEST(ShardWorkerPool, RunsEveryJobExactlyOnceAcrossManyRounds) {
  click::ShardWorkerPool pool(4);
  std::vector<std::uint64_t> counts(8, 0);
  for (int round = 0; round < 500; ++round) {
    pool.run(counts.size(), [&](std::size_t i) { ++counts[i]; });
  }
  for (std::uint64_t c : counts) EXPECT_EQ(c, 500u);
}

TEST(ShardWorkerPool, SingleJobRunsInline) {
  click::ShardWorkerPool pool(2);
  int runs = 0;
  pool.run(1, [&](std::size_t) { ++runs; });
  EXPECT_EQ(runs, 1);
}

// ---- Enclave integration ---------------------------------------------------

struct ShardedWorldFixture : ::testing::Test {
  static testing::WorldOptions options(std::size_t shards) {
    testing::WorldOptions opts;
    opts.clients = 1;
    opts.use_case = UseCase::Idps;
    opts.client_options.shards = shards;
    return opts;
  }
};

TEST_F(ShardedWorldFixture, ShardedEnclaveDeliversIdenticalTraffic) {
  testing::World single(options(1));
  testing::World sharded(options(4));
  auto report_1 = single.run_uniform_traffic_batched(192, 32, 600, /*flows=*/8);
  auto report_4 = sharded.run_uniform_traffic_batched(192, 32, 600, /*flows=*/8);
  EXPECT_EQ(report_1.offered, report_4.offered);
  EXPECT_EQ(report_1.delivered, report_4.delivered);
  EXPECT_EQ(report_4.delivered, report_4.offered);
  EXPECT_EQ(sharded.rigs[0]->client.enclave().shard_count(), 4u);
}

TEST_F(ShardedWorldFixture, EnclaveReshardMigratesLiveState) {
  // Custom chain with a Counter so migrated totals are observable.
  testing::WorldOptions opts;
  testing::World world(opts);
  auto bundle = world.server.publish_config(
      2,
      "from_device :: FromDevice; cnt :: Counter;"
      "ids :: IDSMatcher(RULESET community); to_device :: ToDevice;"
      "from_device -> cnt -> ids -> to_device; ids[1] -> [1]to_device;",
      true, 0, 0);
  ASSERT_TRUE(bundle.ok()) << bundle.error();
  world.add_client(*bundle);
  auto& enclave = world.rigs[0]->client.enclave();
  auto report = world.run_uniform_traffic_batched(96, 32, 600, /*flows=*/8);
  ASSERT_EQ(report.delivered, report.offered);

  auto counter_sum = [&]() -> std::uint64_t {
    const auto* sharded = enclave.sharded_router();
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < sharded->shard_count(); ++s) {
      auto* counter = const_cast<click::Router&>(sharded->shard(s))
                          .find_as<click::Counter>("cnt");
      if (counter) total += counter->packets();
    }
    return total;
  };
  std::uint64_t before = counter_sum();
  ASSERT_EQ(before, report.offered);

  ASSERT_TRUE(enclave.ecall_reshard(4).ok());
  EXPECT_EQ(enclave.shard_count(), 4u);
  EXPECT_EQ(counter_sum(), before) << "reshard lost Counter state";

  auto report_2 = world.run_uniform_traffic_batched(96, 32, 600, /*flows=*/8);
  EXPECT_EQ(report_2.delivered, report_2.offered);
  EXPECT_EQ(counter_sum(), before + report_2.offered);

  ASSERT_TRUE(enclave.ecall_reshard(2).ok());
  EXPECT_EQ(enclave.shard_count(), 2u);
  EXPECT_EQ(counter_sum(), before + report_2.offered);
}

TEST_F(ShardedWorldFixture, ShardedRejectionsDoNotStarveTheMainPool) {
  // Rejected packets recycle into the shard-local pools on the worker
  // threads; those buffers must flow back into the main pool between
  // bursts, or a workload with a nonzero drop rate slowly drains the
  // ecall-boundary circulation and every acquire becomes a heap miss.
  testing::WorldOptions opts;
  testing::World world(opts);
  auto bundle = world.server.publish_config(
      2,
      "from_device :: FromDevice;"
      "fw :: IPFilter(allow src 10.8.0.0/16, drop all);"
      "to_device :: ToDevice; from_device -> fw -> to_device;"
      "fw[1] -> [1]to_device;",
      true, 0, 0);
  ASSERT_TRUE(bundle.ok()) << bundle.error();
  EndBoxClientOptions sharded_opts;
  sharded_opts.shards = 4;
  auto& client = world.add_client(*bundle, sharded_opts);
  auto& enclave = client.enclave();
  net::PacketPool& pool = enclave.packet_pool();

  click::PacketBatch batch;
  EgressBatch out;
  auto run_burst = [&] {
    for (std::size_t k = 0; k < 32; ++k) {
      net::Packet packet = pool.acquire();
      // Every third flow comes from outside 10.8/16 -> firewall reject.
      packet.src = k % 3 == 0 ? net::Ipv4(203, 0, 113, 7) : net::Ipv4(10, 8, 0, 2);
      packet.dst = net::Ipv4(10, 0, 0, 1);
      packet.proto = net::IpProto::Udp;
      packet.src_port = static_cast<std::uint16_t>(40000 + k % 16);
      packet.dst_port = 5001;
      packet.payload.assign(400, 'x');
      batch.push_back(std::move(packet));
    }
    ASSERT_TRUE(enclave.ecall_process_egress_batch(std::move(batch), out).ok());
    batch.clear();
    ASSERT_GT(out.rejected, 0u);
    ASSERT_GT(out.accepted, 0u);
  };

  for (int warm = 0; warm < 6; ++warm) run_burst();
  std::uint64_t misses_before = pool.misses();
  for (int iter = 0; iter < 40; ++iter) run_burst();
  EXPECT_EQ(pool.misses(), misses_before)
      << "rejected packets' buffers did not return to the main pool";
}

TEST_F(ShardedWorldFixture, ShardedEgressBatchMatchesPerPacketVerdicts) {
  // The firewall use case rejects a deterministic subset; sharded batch
  // verdict counts must match the per-packet ecall path exactly.
  testing::WorldOptions opts;
  opts.clients = 0;
  opts.use_case = UseCase::Fw;
  testing::World world(opts);
  auto bundle = world.publish(UseCase::Fw);
  EndBoxClientOptions sharded_opts;
  sharded_opts.shards = 3;
  auto& client = world.add_client(bundle, sharded_opts);
  auto& enclave = client.enclave();

  Rng rng(31);
  auto make_packet = [&](std::size_t k) {
    net::Packet packet = world.benign_packet(64 + 8 * (k % 5));
    packet.src_port = static_cast<std::uint16_t>(40000 + k % 16);
    return packet;
  };
  std::uint32_t single_accepted = 0;
  for (std::size_t k = 0; k < 40; ++k) {
    auto egress = enclave.ecall_process_egress(make_packet(k));
    ASSERT_TRUE(egress.ok()) << egress.error();
    single_accepted += egress->accepted;
  }
  click::PacketBatch batch;
  EgressBatch out;
  std::uint32_t batch_accepted = 0;
  for (std::size_t k = 0; k < 40; ++k) {
    batch.push_back(make_packet(k));
    if (batch.full() || k == 39) {
      ASSERT_TRUE(enclave.ecall_process_egress_batch(std::move(batch), out).ok());
      batch.clear();
      batch_accepted += out.accepted;
    }
  }
  EXPECT_EQ(batch_accepted, single_accepted);
}

}  // namespace
}  // namespace endbox
