// Tests for the workload generators: iperf harness, ping runner,
// page-load model — including parameterized property sweeps.
#include <gtest/gtest.h>

#include "sim/cpu.hpp"
#include "workload/iperf.hpp"
#include "workload/pageload.hpp"
#include "workload/ping.hpp"

namespace endbox::workload {
namespace {

// ---- Iperf harness ---------------------------------------------------------

/// Synthetic source/sink: fixed client service time, fixed server
/// service time on a given CPU.
struct SyntheticRig {
  sim::CpuAccount client_cpu{1, 1e9};
  sim::CpuAccount server_cpu{1, 1e9};
  double client_cycles = 10'000;  // 10 us
  double server_cycles = 5'000;   // 5 us
  std::size_t write_size = 1250;  // 10 us serialisation at 1 Gbps

  IperfSource source() {
    IperfSource src;
    src.write_size = write_size;
    src.send = [this](sim::Time now) {
      SendOutcome out;
      out.done = client_cpu.charge(now, client_cycles);
      out.wire.push_back(Bytes(write_size));
      return out;
    };
    return src;
  }
  IperfHarness::ServeFn sink() {
    return [this](const Bytes&, sim::Time now) {
      ServeOutcome out;
      out.done = server_cpu.charge(now, server_cycles);
      out.delivered = true;
      return out;
    };
  }
};

TEST(Iperf, ClosedLoopBoundByClientServiceTime) {
  SyntheticRig rig;
  IperfConfig config;
  config.duration = sim::from_seconds(0.1);
  IperfHarness harness(rig.sink(), config);
  harness.add_source(rig.source());
  auto report = harness.run();
  // 10 us per write -> 100k writes/s -> 1250 B * 8 * 100k = 1 Gbps.
  EXPECT_NEAR(report.throughput_mbps, 1000.0, 50.0);
  EXPECT_EQ(report.writes_sent, report.writes_delivered);
}

TEST(Iperf, OfferedRatePacesSources) {
  SyntheticRig rig;
  IperfConfig config;
  config.duration = sim::from_seconds(0.1);
  IperfHarness harness(rig.sink(), config);
  auto src = rig.source();
  src.offered_bps = 100e6;  // far below the client's 1 Gbps capability
  harness.add_source(src);
  auto report = harness.run();
  EXPECT_NEAR(report.throughput_mbps, 100.0, 10.0);
}

TEST(Iperf, ServerSaturationCapsGoodput) {
  SyntheticRig rig;
  rig.server_cycles = 50'000;  // 50 us per write: server max 20k writes/s
  IperfConfig config;
  config.duration = sim::from_seconds(0.1);
  IperfHarness harness(rig.sink(), config);
  harness.add_source(rig.source());
  auto report = harness.run();
  // Client sends 100k/s but only ~20k/s complete within the window.
  EXPECT_NEAR(report.throughput_mbps, 200.0, 30.0);
  EXPECT_GT(report.writes_sent, report.writes_delivered);
}

TEST(Iperf, BottleneckLinkCapsGoodput) {
  SyntheticRig rig;
  rig.client_cycles = 100;  // effectively free client
  rig.server_cycles = 100;
  netsim::Link slow(100e6, 0, "slow");  // 100 Mbps wire
  IperfConfig config;
  config.duration = sim::from_seconds(0.1);
  config.link = &slow;
  IperfHarness harness(rig.sink(), config);
  harness.add_source(rig.source());
  auto report = harness.run();
  EXPECT_LT(report.throughput_mbps, 115.0);
}

TEST(Iperf, PerSourcePathCarriesFramesInsteadOfSharedLink) {
  SyntheticRig rig;
  rig.client_cycles = 100;
  rig.server_cycles = 100;
  netsim::Link shared(100e6, 0, "shared");  // would cap at 100 Mbps
  netsim::Link own(1e9, 0, "own");
  IperfConfig config;
  config.duration = sim::from_seconds(0.05);
  config.link = &shared;
  IperfHarness harness(rig.sink(), config);
  auto src = rig.source();
  src.path = netsim::Path({&own});
  harness.add_source(std::move(src));
  auto report = harness.run();
  // The source's own 1 Gbps path governs, not the 100 Mbps shared link.
  EXPECT_GT(report.throughput_mbps, 500.0);
  EXPECT_EQ(shared.frames(), 0u);
  EXPECT_EQ(own.frames(), report.wire_messages);
}

TEST(Iperf, PathContentionCapsGoodputLikeASharedLink) {
  // Two sources whose paths share one slow uplink: the uplink still
  // serialises everything, exactly as the old shared-link config did.
  SyntheticRig a, b;
  a.client_cycles = b.client_cycles = 100;
  a.server_cycles = b.server_cycles = 100;
  sim::CpuAccount big_server(8, 1e9);
  netsim::Link access_a(1e9, 0, "a-access");
  netsim::Link access_b(1e9, 0, "b-access");
  netsim::Link uplink(100e6, 0, "uplink");
  IperfConfig config;
  config.duration = sim::from_seconds(0.05);
  IperfHarness harness(
      [&](const Bytes&, sim::Time now) {
        ServeOutcome out;
        out.done = big_server.charge(now, 100);
        out.delivered = true;
        return out;
      },
      config);
  auto src_a = a.source();
  src_a.path = netsim::Path({&access_a, &uplink});
  auto src_b = b.source();
  src_b.path = netsim::Path({&access_b, &uplink});
  harness.add_source(std::move(src_a));
  harness.add_source(std::move(src_b));
  auto report = harness.run();
  EXPECT_LT(report.throughput_mbps, 120.0);
  EXPECT_EQ(uplink.frames(), access_a.frames() + access_b.frames());
}

TEST(Iperf, MultipleSourcesAggregate) {
  SyntheticRig rig;
  sim::CpuAccount big_server(8, 1e9);
  IperfConfig config;
  config.duration = sim::from_seconds(0.05);
  IperfHarness harness(
      [&](const Bytes&, sim::Time now) {
        ServeOutcome out;
        out.done = big_server.charge(now, 1'000);
        out.delivered = true;
        return out;
      },
      config);
  // Four paced sources at 50 Mbps each -> ~200 Mbps aggregate.
  std::vector<std::unique_ptr<sim::CpuAccount>> cpus;
  for (int i = 0; i < 4; ++i) {
    cpus.push_back(std::make_unique<sim::CpuAccount>(1, 1e9));
    IperfSource src;
    src.write_size = 1250;
    src.offered_bps = 50e6;
    auto* cpu = cpus.back().get();
    src.send = [cpu](sim::Time now) {
      SendOutcome out;
      out.done = cpu->charge(now, 1'000);
      out.wire.push_back(Bytes(1250));
      return out;
    };
    harness.add_source(std::move(src));
  }
  auto report = harness.run();
  EXPECT_NEAR(report.throughput_mbps, 200.0, 25.0);
}

TEST(Iperf, EmptyHarnessReportsZero) {
  IperfConfig config;
  IperfHarness harness([](const Bytes&, sim::Time) { return ServeOutcome{}; },
                       config);
  auto report = harness.run();
  EXPECT_EQ(report.throughput_mbps, 0.0);
  EXPECT_EQ(report.writes_sent, 0u);
}

// ---- Ping runner --------------------------------------------------------------

TEST(Ping, CollectsRttsAndLosses) {
  int count = 0;
  PingRunner runner([&](sim::Time now) -> std::optional<sim::Time> {
    if (++count % 3 == 0) return std::nullopt;  // lose every third
    return now + sim::from_millis(12.5);
  });
  auto stats = runner.run(0, 9, sim::from_millis(100));
  EXPECT_EQ(stats.sent, 9u);
  EXPECT_EQ(stats.lost, 3u);
  EXPECT_EQ(stats.rtts_ms.size(), 6u);
  EXPECT_DOUBLE_EQ(stats.average(), 12.5);
  EXPECT_DOUBLE_EQ(stats.min(), 12.5);
  EXPECT_DOUBLE_EQ(stats.max(), 12.5);
}

TEST(Ping, PercentilesOrdered) {
  std::vector<double> values = {1, 2, 3, 4, 100};
  PingStats stats;
  stats.rtts_ms = values;
  EXPECT_DOUBLE_EQ(stats.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(stats.percentile(100), 100.0);
  EXPECT_LE(stats.percentile(50), stats.percentile(90));
  EXPECT_THROW(stats.percentile(101), std::invalid_argument);
}

TEST(Ping, EmptyStatsAreZero) {
  PingStats stats;
  EXPECT_EQ(stats.average(), 0.0);
  EXPECT_EQ(stats.percentile(50), 0.0);
}

// ---- Page-load model -----------------------------------------------------------

TEST(PageLoad, SitesAreDeterministicAndPlausible) {
  Rng a(3), b(3);
  auto sites_a = generate_alexa_like_sites(100, a);
  auto sites_b = generate_alexa_like_sites(100, b);
  ASSERT_EQ(sites_a.size(), 100u);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(sites_a[i].objects, sites_b[i].objects);
    EXPECT_EQ(sites_a[i].rtt, sites_b[i].rtt);
    EXPECT_GE(sites_a[i].objects, 8u);
    EXPECT_LE(sites_a[i].objects, 180u);
    EXPECT_GE(sites_a[i].rtt, sim::from_millis(10));
  }
}

TEST(PageLoad, LoadTimeGrowsWithRtt) {
  Site site;
  site.objects = 10;
  site.object_bytes.assign(10, 20'000);
  PageLoadConfig config;
  site.rtt = sim::from_millis(10);
  auto fast = page_load_time(site, config);
  site.rtt = sim::from_millis(100);
  auto slow = page_load_time(site, config);
  EXPECT_GT(slow, fast);
}

TEST(PageLoad, PerPacketCostAddsLittle) {
  Rng rng(5);
  auto sites = generate_alexa_like_sites(200, rng);
  PageLoadConfig direct;
  PageLoadConfig endbox = direct;
  endbox.per_packet_cost = 8'000;  // 8 us per packet
  auto a = page_load_cdf(sites, direct);
  auto b = page_load_cdf(sites, endbox);
  // Median overhead bounded (the Fig 6 claim).
  EXPECT_LT(b[100] / a[100] - 1.0, 0.05);
  EXPECT_GE(b[100], a[100]);
}

TEST(PageLoad, ParallelismHelps) {
  Site site;
  site.objects = 24;
  site.object_bytes.assign(24, 50'000);
  site.rtt = sim::from_millis(30);
  PageLoadConfig serial;
  serial.parallel_connections = 1;
  PageLoadConfig parallel;
  parallel.parallel_connections = 6;
  EXPECT_GT(page_load_time(site, serial), page_load_time(site, parallel));
}

TEST(PageLoad, CdfSorted) {
  Rng rng(6);
  auto sites = generate_alexa_like_sites(50, rng);
  auto cdf = page_load_cdf(sites, {});
  EXPECT_TRUE(std::is_sorted(cdf.begin(), cdf.end()));
}

}  // namespace
}  // namespace endbox::workload
