// Tests for the network simulation: links, queueing, paths, hosts,
// star topology.
#include <gtest/gtest.h>

#include "netsim/host.hpp"
#include "netsim/link.hpp"
#include "netsim/topology.hpp"

namespace endbox::netsim {
namespace {

TEST(Link, SerialisationPlusPropagation) {
  // 1 Gbps, 1 ms: 1250 bytes = 10 us serialisation.
  Link link(1e9, sim::from_millis(1.0));
  sim::Time arrival = link.transmit(0, 1250);
  EXPECT_EQ(arrival, 10 * sim::kMicrosecond + sim::from_millis(1.0));
}

TEST(Link, BackToBackFramesQueue) {
  Link link(1e9, 0);
  sim::Time first = link.transmit(0, 1250);   // 10 us
  sim::Time second = link.transmit(0, 1250);  // starts at 10 us
  EXPECT_EQ(first, 10 * sim::kMicrosecond);
  EXPECT_EQ(second, 20 * sim::kMicrosecond);
  EXPECT_EQ(link.frames(), 2u);
}

TEST(Link, IdleLinkTransmitsImmediately) {
  Link link(1e9, 0);
  link.transmit(0, 1250);
  // Arriving long after the link drained: no queueing.
  sim::Time arrival = link.transmit(sim::kSecond, 1250);
  EXPECT_EQ(arrival, sim::kSecond + 10 * sim::kMicrosecond);
}

TEST(Link, PeekDoesNotOccupy) {
  Link link(1e9, 0);
  EXPECT_EQ(link.peek(0, 1250), 10 * sim::kMicrosecond);
  EXPECT_EQ(link.peek(0, 1250), 10 * sim::kMicrosecond);
  EXPECT_EQ(link.frames(), 0u);
}

TEST(Link, UtilisationTracksBusyTime) {
  Link link(1e9, 0);
  link.transmit(0, 12500);  // 100 us busy
  EXPECT_NEAR(link.utilisation(0, 200 * sim::kMicrosecond), 0.5, 1e-9);
}

TEST(Link, SaturatedLinkCapsThroughput) {
  // Offer 2 Gbps worth of frames to a 1 Gbps link for one second:
  // deliveries stretch to ~2 seconds.
  Link link(1e9, 0);
  sim::Time last = 0;
  for (int i = 0; i < 2000; ++i) last = link.transmit(0, 125'000);  // 1 ms each
  EXPECT_NEAR(sim::to_seconds(last), 2.0, 0.01);
}

TEST(Link, RejectsBadParameters) {
  EXPECT_THROW(Link(0, 0), std::invalid_argument);
  EXPECT_THROW(Link(1e9, -5), std::invalid_argument);
}

TEST(Link, ResetClearsState) {
  Link link(1e9, 0);
  link.transmit(0, 1250);
  link.reset();
  EXPECT_EQ(link.frames(), 0u);
  EXPECT_EQ(link.transmit(0, 1250), 10 * sim::kMicrosecond);
}

TEST(Path, AccumulatesAcrossLinks) {
  Link a(1e9, sim::from_millis(1));
  Link b(1e9, sim::from_millis(2));
  Path path({&a, &b});
  EXPECT_EQ(path.hops(), 2u);
  EXPECT_EQ(path.base_latency(), sim::from_millis(3));
  // 1250 B: 10 us per link + 3 ms propagation.
  EXPECT_EQ(path.deliver(0, 1250), sim::from_millis(3) + 20 * sim::kMicrosecond);
}

TEST(Path, EmptyPathIsZeroCost) {
  Path path;
  EXPECT_EQ(path.deliver(123, 1250), 123u);
}

TEST(Host, MachineClassesDifferInCpu) {
  sim::PerfModel model;
  model.client_hz = 3.0e9;
  model.server_hz = 2.0e9;
  Host client("c", MachineClass::A, model);
  Host server("s", MachineClass::B, model);
  EXPECT_EQ(client.make_single_core().hz(), 3.0e9);
  EXPECT_EQ(server.make_single_core().hz(), 2.0e9);
  EXPECT_EQ(client.machine_class(), MachineClass::A);
  EXPECT_EQ(client.name(), "c");
}

TEST(Host, SingleCoreSliceForSingleThreadedProcesses) {
  sim::PerfModel model;
  Host host("h", MachineClass::A, model);
  auto core = host.make_single_core();
  EXPECT_EQ(core.cores(), 1u);
  EXPECT_EQ(core.hz(), model.client_hz);
}

TEST(Link, CountsBytes) {
  Link link(1e9, 0);
  link.transmit(0, 1250);
  link.transmit(0, 750);
  EXPECT_EQ(link.bytes(), 2000u);
  link.reset();
  EXPECT_EQ(link.bytes(), 0u);
}

TEST(StarTopology, BuildsHostsAndLinksPerClient) {
  sim::PerfModel model;
  StarTopology topo(model);
  EXPECT_EQ(topo.clients(), 0u);
  EXPECT_EQ(topo.add_client("c1"), 0u);
  EXPECT_EQ(topo.add_client("c2"), 1u);
  EXPECT_EQ(topo.clients(), 2u);
  EXPECT_EQ(topo.client_host(0).machine_class(), MachineClass::A);
  EXPECT_EQ(topo.server_host().machine_class(), MachineClass::B);
  EXPECT_EQ(topo.access_link(0).name(), "c1-access");
  EXPECT_EQ(topo.uplink_path(0).hops(), 2u);
  EXPECT_EQ(topo.downlink_path(1).hops(), 2u);
}

TEST(StarTopology, DeliveryCrossesAccessAndUplink) {
  sim::PerfModel model;
  StarTopologyOptions options;
  options.access_rate_bps = 1e9;
  options.uplink_rate_bps = 1e9;
  options.access_latency = sim::from_millis(1);
  options.uplink_latency = sim::from_millis(2);
  StarTopology topo(model, options);
  topo.add_client("c1");
  // 1250 B: 10 us serialisation on each of the two links + 3 ms total
  // propagation.
  sim::Time arrival = topo.deliver_to_server(0, 0, 1250);
  EXPECT_EQ(arrival, sim::from_millis(3) + 20 * sim::kMicrosecond);
  EXPECT_EQ(topo.client_bytes(0), 1250u);
  EXPECT_EQ(topo.aggregate_bytes(), 1250u);
  EXPECT_EQ(topo.aggregate_frames(), 1u);
}

TEST(StarTopology, SharedUplinkAggregatesButAccessLinksDoNot) {
  sim::PerfModel model;
  StarTopology topo(model);
  topo.add_client("c1");
  topo.add_client("c2");
  topo.deliver_to_server(0, 0, 9000);
  topo.deliver_to_server(1, 0, 9000);
  // Both frames crossed the one uplink; each access link saw only its
  // own client's frame.
  EXPECT_EQ(topo.aggregate_bytes(), 18000u);
  EXPECT_EQ(topo.client_bytes(0), 9000u);
  EXPECT_EQ(topo.client_bytes(1), 9000u);
  EXPECT_EQ(topo.uplink().frames(), 2u);
  EXPECT_EQ(topo.access_link(0).frames(), 1u);
}

TEST(StarTopology, ContentionOnlyOnTheSharedUplink) {
  sim::PerfModel model;
  StarTopologyOptions options;
  options.access_rate_bps = 10e9;
  options.uplink_rate_bps = 1e9;  // uplink is the bottleneck
  options.access_latency = 0;
  options.uplink_latency = 0;
  StarTopology topo(model, options);
  topo.add_client("c1");
  topo.add_client("c2");
  // Two simultaneous 125000-B frames: 1 ms each on the uplink, so the
  // second client's frame queues behind the first.
  sim::Time first = topo.deliver_to_server(0, 0, 125'000);
  sim::Time second = topo.deliver_to_server(1, 0, 125'000);
  EXPECT_GT(second, first);
}

TEST(StarTopology, ResetClearsAllCounters) {
  sim::PerfModel model;
  StarTopology topo(model);
  topo.add_client("c1");
  topo.deliver_to_server(0, 0, 1000);
  topo.reset();
  EXPECT_EQ(topo.aggregate_bytes(), 0u);
  EXPECT_EQ(topo.client_bytes(0), 0u);
  EXPECT_EQ(topo.clients(), 1u);  // hosts survive, counters do not
}

// ---- Fault injection -------------------------------------------------------

TEST(Fault, NoPlanDegradesToPlainTransmit) {
  Link plain(1e9, sim::from_millis(1.0));
  Link faulty(1e9, sim::from_millis(1.0));
  faulty.set_fault_plan(FaultPlan{});  // disabled plan = no fault state
  EXPECT_FALSE(faulty.fault_plan_enabled());
  auto out = faulty.transmit_faulty(0, 1250);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].at, plain.transmit(0, 1250));
  EXPECT_FALSE(out[0].corrupted());
}

TEST(Fault, DropAlwaysDropsAndCounts) {
  Link link(1e9, 0, "lossy");
  FaultPlan plan;
  plan.drop = 1.0;
  link.set_fault_plan(plan);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(link.transmit_faulty(0, 100).dropped());
  EXPECT_EQ(link.fault_stats().frames_offered, 10u);
  EXPECT_EQ(link.fault_stats().frames_dropped, 10u);
  EXPECT_EQ(link.fault_stats().bytes_dropped, 1000u);
  EXPECT_EQ(link.fault_stats().frames_flap_dropped, 0u);
  // Random drops serialise first (the bytes crossed the wire before
  // the far end lost them), so the link byte counters still advance.
  EXPECT_EQ(link.bytes(), 1000u);
}

TEST(Fault, DuplicateDeliversTwoCopies) {
  Link link(1e9, 0, "dupey");
  FaultPlan plan;
  plan.duplicate = 1.0;
  link.set_fault_plan(plan);
  auto out = link.transmit_faulty(0, 100);
  ASSERT_EQ(out.size(), 2u);
  // The duplicate serialises behind the original.
  EXPECT_GT(out[1].at, out[0].at);
  EXPECT_EQ(link.fault_stats().frames_duplicated, 1u);
}

TEST(Fault, CorruptionAlwaysChangesTheBytes) {
  Link link(1e9, 0, "noisy");
  FaultPlan plan;
  plan.corrupt = 1.0;
  link.set_fault_plan(plan);
  for (int i = 0; i < 32; ++i) {
    auto out = link.transmit_faulty(0, 64);
    ASSERT_EQ(out.size(), 1u);
    ASSERT_TRUE(out[0].corrupted());
    std::vector<std::uint8_t> frame(64, 0xab);
    out[0].apply(frame);
    EXPECT_NE(frame, std::vector<std::uint8_t>(64, 0xab));
  }
  EXPECT_EQ(link.fault_stats().frames_corrupted, 32u);
}

TEST(Fault, ReorderHoldsTheCopyBack) {
  Link link(1e9, 0, "jittery");
  FaultPlan plan;
  plan.reorder = 1.0;
  plan.reorder_delay = sim::from_millis(5.0);
  link.set_fault_plan(plan);
  Link clean(1e9, 0);
  auto out = link.transmit_faulty(0, 100);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].reordered);
  EXPECT_EQ(out[0].at, clean.transmit(0, 100) + sim::from_millis(5.0));
  EXPECT_EQ(link.fault_stats().frames_reordered, 1u);
}

TEST(Fault, DownWindowDropsWithoutSerialising) {
  Link link(1e9, 0, "flappy");
  FaultPlan plan;
  plan.down.push_back({sim::kSecond, 2 * sim::kSecond});
  link.set_fault_plan(plan);
  EXPECT_FALSE(link.transmit_faulty(0, 100).dropped());          // before
  EXPECT_TRUE(link.transmit_faulty(sim::kSecond, 100).dropped());  // inside
  EXPECT_FALSE(link.transmit_faulty(2 * sim::kSecond, 100).dropped());  // after
  EXPECT_EQ(link.fault_stats().frames_flap_dropped, 1u);
  EXPECT_EQ(link.fault_stats().frames_dropped, 1u);
  // A dead transmitter sends nothing: only the surviving frames count.
  EXPECT_EQ(link.frames(), 2u);
}

TEST(Fault, SameSeedSameNameReproducesTheLossPattern) {
  FaultPlan plan;
  plan.drop = 0.3;
  plan.corrupt = 0.2;
  plan.duplicate = 0.1;
  auto pattern = [&](const std::string& name) {
    Link link(1e9, 0, name);
    link.set_fault_plan(plan);
    std::vector<std::size_t> copies;
    for (int i = 0; i < 200; ++i) copies.push_back(link.transmit_faulty(0, 100).size());
    return copies;
  };
  EXPECT_EQ(pattern("a"), pattern("a"));
  EXPECT_NE(pattern("a"), pattern("b"));  // per-link independent streams
}

TEST(Fault, ResetRewindsTheFaultStream) {
  FaultPlan plan;
  plan.drop = 0.5;
  Link link(1e9, 0, "rewind");
  link.set_fault_plan(plan);
  std::vector<bool> first;
  for (int i = 0; i < 100; ++i) first.push_back(link.transmit_faulty(0, 100).dropped());
  link.reset();
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(link.transmit_faulty(0, 100).dropped(), first[static_cast<std::size_t>(i)]);
}

TEST(Fault, PathChainsHopsAndAccumulatesCorruptions) {
  Link a(1e9, 0, "hop-a");
  Link b(1e9, 0, "hop-b");
  FaultPlan plan;
  plan.corrupt = 1.0;
  a.set_fault_plan(plan);
  b.set_fault_plan(plan);
  Path path({&a, &b});
  auto out = path.deliver_faulty(0, 64);
  ASSERT_EQ(out.size(), 1u);
  // Each hop adds one corruption to the surviving copy.
  EXPECT_EQ(out[0].corruption_count, 2u);
}

TEST(Fault, PathDuplicationFansOutToTheCap) {
  Link a(1e9, 0, "hop-a");
  Link b(1e9, 0, "hop-b");
  FaultPlan plan;
  plan.duplicate = 1.0;
  a.set_fault_plan(plan);
  b.set_fault_plan(plan);
  Path path({&a, &b});
  auto out = path.deliver_faulty(0, 64);
  EXPECT_EQ(out.size(), FaultOutcome::kMaxDeliveries);  // 2 x 2 copies
}

TEST(Fault, StarTopologyAppliesOnePlanEverywhere) {
  sim::PerfModel model;
  StarTopology topo(model);
  topo.add_client("c1");
  FaultPlan plan;
  plan.drop = 1.0;
  topo.set_fault_plan_all(plan);
  EXPECT_TRUE(topo.uplink().fault_plan_enabled());
  EXPECT_TRUE(topo.access_link(0).fault_plan_enabled());
  EXPECT_TRUE(topo.deliver_to_server_faulty(0, 0, 100).dropped());
  // Clients added after the plan inherit it.
  topo.add_client("c2");
  EXPECT_TRUE(topo.access_link(1).fault_plan_enabled());
  EXPECT_TRUE(topo.deliver_to_client_faulty(1, 0, 100).dropped());
}

TEST(Fault, CorruptionApplyWrapsTheOffset) {
  Delivery d;
  d.add_corruption({100, 0x01});
  std::vector<std::uint8_t> frame(7, 0);
  d.apply(frame);
  EXPECT_EQ(frame[100 % 7], 0x01);
}

}  // namespace
}  // namespace endbox::netsim
