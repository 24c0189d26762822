// Tests for the Click substrate: config parser, element semantics,
// router wiring, hot-swap with state transfer.
#include <gtest/gtest.h>

#include <map>

#include "click/parser.hpp"
#include "click/router.hpp"
#include "click/sharded_router.hpp"
#include "click/standard_elements.hpp"

namespace endbox::click {
namespace {

using net::Ipv4;
using net::Packet;

Packet make_udp(std::uint16_t dport = 80, std::size_t payload = 100) {
  return Packet::udp(Ipv4(10, 8, 0, 2), Ipv4(10, 0, 0, 1), 5555, dport,
                     Bytes(payload, 'x'));
}

/// Sink that records everything pushed into it.
struct CaptureSink : Element {
  std::string_view class_name() const override { return "CaptureSink"; }
  void push_batch(int port, PacketBatch&& batch) override {
    for (Packet& p : batch) {
      ports.push_back(port);
      packets.push_back(std::move(p));
    }
    batch.clear();
  }
  int n_inputs() const override { return 16; }
  std::vector<Packet> packets;
  std::vector<int> ports;
};

ElementRegistry registry_with_sink() {
  auto registry = ElementRegistry::with_standard_elements();
  registry.register_class("CaptureSink", [] { return std::make_unique<CaptureSink>(); });
  return registry;
}

// ---- Parser ---------------------------------------------------------

TEST(Parser, DeclarationAndConnection) {
  auto cfg = parse_config("cnt :: Counter; src :: Queue(10);\nsrc -> cnt;");
  ASSERT_TRUE(cfg.ok()) << cfg.error();
  ASSERT_EQ(cfg->declarations.size(), 2u);
  EXPECT_EQ(cfg->declarations[0].name, "cnt");
  EXPECT_EQ(cfg->declarations[0].class_name, "Counter");
  EXPECT_EQ(cfg->declarations[1].args, std::vector<std::string>{"10"});
  ASSERT_EQ(cfg->connections.size(), 1u);
  EXPECT_EQ(cfg->connections[0].from, "src");
  EXPECT_EQ(cfg->connections[0].to, "cnt");
}

TEST(Parser, ChainWithPorts) {
  auto cfg = parse_config("a :: Tee(2); b :: Counter; c :: Counter;\n"
                          "a[1] -> b; a -> [0]c;");
  ASSERT_TRUE(cfg.ok()) << cfg.error();
  ASSERT_EQ(cfg->connections.size(), 2u);
  EXPECT_EQ(cfg->connections[0].from_port, 1);
  EXPECT_EQ(cfg->connections[0].to_port, 0);
  EXPECT_EQ(cfg->connections[1].from_port, 0);
}

TEST(Parser, AnonymousElements) {
  auto cfg = parse_config("Queue(5) -> Counter -> Discard;");
  ASSERT_TRUE(cfg.ok()) << cfg.error();
  EXPECT_EQ(cfg->declarations.size(), 3u);
  EXPECT_EQ(cfg->connections.size(), 2u);
  EXPECT_EQ(cfg->declarations[0].class_name, "Queue");
}

TEST(Parser, InlineDeclarationInChain) {
  auto cfg = parse_config("q :: Queue(5) -> cnt :: Counter;");
  ASSERT_TRUE(cfg.ok()) << cfg.error();
  ASSERT_EQ(cfg->connections.size(), 1u);
  EXPECT_EQ(cfg->connections[0].from, "q");
  EXPECT_EQ(cfg->connections[0].to, "cnt");
}

TEST(Parser, CommentsIgnored) {
  auto cfg = parse_config(
      "// line comment\n"
      "cnt :: Counter; /* block\n comment */ d :: Discard;\n"
      "cnt -> d; // trailing");
  ASSERT_TRUE(cfg.ok()) << cfg.error();
  EXPECT_EQ(cfg->declarations.size(), 2u);
}

TEST(Parser, ArgsWithNestedCommasAndQuotes) {
  auto cfg = parse_config(R"(f :: IPFilter(drop src 1.2.3.4, allow all);
      m :: Tee(2);)");
  ASSERT_TRUE(cfg.ok()) << cfg.error();
  EXPECT_EQ(cfg->declarations[0].args.size(), 2u);
  EXPECT_EQ(cfg->declarations[0].args[0], "drop src 1.2.3.4");
}

TEST(Parser, Errors) {
  EXPECT_FALSE(parse_config("x ::;").ok());
  EXPECT_FALSE(parse_config("a -> ;").ok());
  EXPECT_FALSE(parse_config("a :: lowercase;").ok());
  EXPECT_FALSE(parse_config("a :: Counter( ;").ok());     // unterminated (
  EXPECT_FALSE(parse_config("/* unterminated").ok());
  EXPECT_FALSE(parse_config("a :: Counter b :: Queue;").ok());  // missing ';'
  EXPECT_FALSE(parse_config("a[x] -> b;").ok());          // bad port
}

TEST(Parser, UnterminatedElementIsGraceful) {
  // Every truncation of a declaration must yield a Result error (never
  // a crash), and the unterminated-args error must name the problem.
  auto r = parse_config("c :: Counter(");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("unterminated"), std::string::npos);
  EXPECT_FALSE(parse_config("c :: Counter(\"still open").ok());
  EXPECT_FALSE(parse_config("c :: Counter(nested(deep(").ok());
  EXPECT_FALSE(parse_config("c ::").ok());
  EXPECT_FALSE(parse_config("c").ok());
  EXPECT_FALSE(parse_config("c :: Counter -> ").ok());
}

TEST(Parser, DanglingPortIsGraceful) {
  EXPECT_FALSE(parse_config("a :: Counter; a [1] ->").ok());   // chain ends at arrow
  EXPECT_FALSE(parse_config("a :: Counter -> [0]").ok());      // port, no element
  EXPECT_FALSE(parse_config("a :: Counter; a [").ok());        // bracket at EOF
  EXPECT_FALSE(parse_config("a :: Counter; a [1").ok());       // missing ']'
  EXPECT_FALSE(parse_config("a :: Counter; a [] -> a;").ok()); // empty port
  EXPECT_FALSE(parse_config("[2] a;").ok());                   // port without chain
}

TEST(Parser, HugePortNumberIsRangeErrorNotCrash) {
  // Used to escape as std::out_of_range from std::stoi.
  auto r = parse_config("a :: Counter; a [99999999999999999999] -> a;");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("out of range"), std::string::npos);
  EXPECT_FALSE(parse_config("a :: Counter; a [10000] -> a;").ok());
  // The largest in-range port still parses.
  EXPECT_TRUE(parse_config("a :: Counter; a [9999] -> a;").ok());
}

TEST(Parser, DuplicateElementNameIsGraceful) {
  auto r = parse_config("a :: Counter;\na :: Discard;");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("duplicate element name 'a'"), std::string::npos);
  EXPECT_NE(r.error().find("line 2"), std::string::npos);
  // Inline re-declaration inside a chain is a duplicate too.
  EXPECT_FALSE(parse_config("a :: Counter; b :: Queue -> a :: Discard;").ok());
  // Distinct names and plain re-references stay valid.
  EXPECT_TRUE(parse_config("a :: Counter; b :: Discard; a -> b;").ok());
}

TEST(Parser, EmptyConfigIsValid) {
  auto cfg = parse_config("  // nothing\n");
  ASSERT_TRUE(cfg.ok());
  EXPECT_TRUE(cfg->declarations.empty());
  EXPECT_TRUE(cfg->connections.empty());
}

// ---- Router construction ------------------------------------------------

TEST(Router, BuildsAndRoutes) {
  auto registry = registry_with_sink();
  auto router = Router::from_config(
      "in :: Counter; sink :: CaptureSink; in -> sink;", registry);
  ASSERT_TRUE(router.ok()) << router.error();
  EXPECT_EQ((*router)->element_count(), 2u);
  EXPECT_EQ((*router)->connection_count(), 1u);

  EXPECT_TRUE((*router)->push_to("in", make_udp()));
  auto* sink = (*router)->find_as<CaptureSink>("sink");
  ASSERT_NE(sink, nullptr);
  EXPECT_EQ(sink->packets.size(), 1u);
  EXPECT_EQ((*router)->find_as<Counter>("in")->packets(), 1u);
}

TEST(Router, RejectsUnknownClass) {
  auto registry = ElementRegistry::with_standard_elements();
  auto router = Router::from_config("x :: NoSuchElement;", registry);
  EXPECT_FALSE(router.ok());
}

TEST(Router, RejectsDuplicateNames) {
  auto registry = ElementRegistry::with_standard_elements();
  EXPECT_FALSE(Router::from_config("x :: Counter; x :: Discard;", registry).ok());
}

TEST(Router, RejectsUndeclaredReference) {
  auto registry = ElementRegistry::with_standard_elements();
  EXPECT_FALSE(Router::from_config("x :: Counter; x -> ghost;", registry).ok());
}

TEST(Router, RejectsBadElementConfig) {
  auto registry = ElementRegistry::with_standard_elements();
  EXPECT_FALSE(Router::from_config("q :: Queue(0);", registry).ok());
  EXPECT_FALSE(Router::from_config("f :: IPFilter;", registry).ok());
}

TEST(Router, RejectsOutOfRangePorts) {
  auto registry = ElementRegistry::with_standard_elements();
  // Counter has one output port (port 5 invalid).
  EXPECT_FALSE(
      Router::from_config("a :: Counter; b :: Discard; a[5] -> b;", registry).ok());
}

TEST(Router, PushToUnknownElementReturnsFalse) {
  auto registry = ElementRegistry::with_standard_elements();
  auto router = Router::from_config("x :: Counter;", registry);
  ASSERT_TRUE(router.ok());
  EXPECT_FALSE((*router)->push_to("nope", make_udp()));
}

// ---- Standard element semantics -------------------------------------------

TEST(Elements, CounterCountsPacketsAndBytes) {
  Counter counter;
  CaptureSink sink;
  counter.connect_output(0, &sink, 0);
  counter.push(0, make_udp(80, 100));
  counter.push(0, make_udp(80, 50));
  EXPECT_EQ(counter.packets(), 2u);
  EXPECT_EQ(counter.bytes(), (20u + 8 + 100) + (20 + 8 + 50));
  EXPECT_EQ(sink.packets.size(), 2u);
}

TEST(Elements, DiscardDropsEverything) {
  Discard discard;
  CaptureSink sink;
  discard.connect_output(0, &sink, 0);  // even if wired, nothing flows
  discard.push(0, make_udp());
  EXPECT_EQ(discard.discarded(), 1u);
  EXPECT_TRUE(sink.packets.empty());
}

TEST(Elements, TeeDuplicates) {
  Tee tee;
  ASSERT_TRUE(tee.configure({"3"}).ok());
  CaptureSink s0, s1, s2;
  tee.connect_output(0, &s0, 0);
  tee.connect_output(1, &s1, 0);
  tee.connect_output(2, &s2, 0);
  tee.push(0, make_udp(80, 10));
  EXPECT_EQ(s0.packets.size(), 1u);
  EXPECT_EQ(s1.packets.size(), 1u);
  EXPECT_EQ(s2.packets.size(), 1u);
  EXPECT_EQ(s1.packets[0].payload, s0.packets[0].payload);
}

TEST(Elements, QueueBoundsAndFifo) {
  Queue queue;
  ASSERT_TRUE(queue.configure({"2"}).ok());
  queue.push(0, make_udp(1));
  queue.push(0, make_udp(2));
  queue.push(0, make_udp(3));  // over capacity -> dropped
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.drops(), 1u);
  auto first = queue.pop();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->dst_port, 1);
  EXPECT_EQ(queue.pop()->dst_port, 2);
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(Elements, SetTosAndPaint) {
  SetTos set_tos;
  ASSERT_TRUE(set_tos.configure({"0xeb"}).ok());
  Paint paint;
  ASSERT_TRUE(paint.configure({"7"}).ok());
  CaptureSink sink;
  set_tos.connect_output(0, &paint, 0);
  paint.connect_output(0, &sink, 0);
  set_tos.push(0, make_udp());
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_TRUE(sink.packets[0].processed_flag());
  EXPECT_EQ(sink.packets[0].flow_hint, 7u);
}

TEST(Elements, RoundRobinPacketMode) {
  RoundRobinSwitch rr;
  ASSERT_TRUE(rr.configure({"3"}).ok());
  CaptureSink s0, s1, s2;
  rr.connect_output(0, &s0, 0);
  rr.connect_output(1, &s1, 0);
  rr.connect_output(2, &s2, 0);
  for (int i = 0; i < 9; ++i) rr.push(0, make_udp());
  EXPECT_EQ(s0.packets.size(), 3u);
  EXPECT_EQ(s1.packets.size(), 3u);
  EXPECT_EQ(s2.packets.size(), 3u);
}

TEST(Elements, RoundRobinFlowModeIsSticky) {
  RoundRobinSwitch rr;
  ASSERT_TRUE(rr.configure({"2", "FLOW"}).ok());
  CaptureSink s0, s1;
  rr.connect_output(0, &s0, 0);
  rr.connect_output(1, &s1, 0);
  // Two flows, interleaved packets: each flow must stay on one output.
  for (int i = 0; i < 4; ++i) {
    rr.push(0, Packet::udp(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 9), 1000, 80, {}));
    rr.push(0, Packet::udp(Ipv4(10, 0, 0, 2), Ipv4(10, 0, 0, 9), 2000, 80, {}));
  }
  EXPECT_EQ(rr.tracked_flows(), 2u);
  EXPECT_EQ(s0.packets.size(), 4u);
  EXPECT_EQ(s1.packets.size(), 4u);
  for (const auto& p : s0.packets) EXPECT_EQ(p.src_port, 1000);
  for (const auto& p : s1.packets) EXPECT_EQ(p.src_port, 2000);
}

TEST(Elements, RoundRobinRejectsBadMode) {
  RoundRobinSwitch rr;
  EXPECT_FALSE(rr.configure({"2", "BANANA"}).ok());
  EXPECT_FALSE(rr.configure({}).ok());
}

TEST(Elements, RoundRobinFlowTableIsBounded) {
  // MAX_FLOWS caps the pin table: overflow traffic still balances but
  // loses stickiness, and the loss is counted instead of growing state.
  RoundRobinSwitch rr;
  ASSERT_TRUE(rr.configure({"2", "FLOW", "2"}).ok());
  EXPECT_EQ(rr.max_flows(), 2u);
  CaptureSink s0, s1;
  rr.connect_output(0, &s0, 0);
  rr.connect_output(1, &s1, 0);
  auto flow = [](std::uint16_t sport) {
    return Packet::udp(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 9), sport, 80, {});
  };
  for (int i = 0; i < 3; ++i) {
    rr.push(0, flow(1000));
    rr.push(0, flow(2000));
    rr.push(0, flow(3000));  // table full: routed, never pinned
  }
  EXPECT_EQ(rr.tracked_flows(), 2u);
  EXPECT_EQ(rr.unpinned_flows(), 3u);
  // The two pinned flows kept perfect stickiness through the overflow:
  // flow 1000 pinned to output 0, flow 2000 to output 1.
  std::size_t sticky = 0;
  for (const auto& p : s0.packets) {
    if (p.src_port == 3000) continue;
    EXPECT_EQ(p.src_port, 1000);
    ++sticky;
  }
  for (const auto& p : s1.packets) {
    if (p.src_port == 3000) continue;
    EXPECT_EQ(p.src_port, 2000);
    ++sticky;
  }
  EXPECT_EQ(sticky, 6u);
}

TEST(Elements, RoundRobinIdlePinsExpireByPacketCount) {
  // IDLE_PKTS expires a pin after that many packets of element time
  // without traffic on the flow — the packet-count timer wheel at work.
  RoundRobinSwitch rr;
  ASSERT_TRUE(rr.configure({"2", "FLOW", "64", "4"}).ok());
  CaptureSink s0, s1;
  rr.connect_output(0, &s0, 0);
  rr.connect_output(1, &s1, 0);
  auto flow = [](std::uint16_t sport) {
    return Packet::udp(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 9), sport, 80, {});
  };
  rr.push(0, flow(1000));  // t=1: pin A, deadline t=5
  for (int i = 0; i < 3; ++i) rr.push(0, flow(2000));  // t=2..4: B touched
  EXPECT_EQ(rr.tracked_flows(), 2u);
  EXPECT_EQ(rr.expired_flows(), 0u);
  rr.push(0, flow(2000));  // t=5: A idle for 4 packets, pin reclaimed
  EXPECT_EQ(rr.tracked_flows(), 1u);
  EXPECT_EQ(rr.expired_flows(), 1u);
  // The returning flow simply re-pins; nothing is lost but stickiness.
  rr.push(0, flow(1000));
  EXPECT_EQ(rr.tracked_flows(), 2u);
  EXPECT_EQ(rr.unpinned_flows(), 0u);
}

TEST(Elements, RoundRobinAdoptionHonoursTheBound) {
  // Pin migration: surviving pins move, but never past the new
  // element's MAX_FLOWS — the excess is shed as unpinned, not leaked.
  RoundRobinSwitch old_rr;
  ASSERT_TRUE(old_rr.configure({"2", "FLOW"}).ok());
  CaptureSink s0, s1;
  old_rr.connect_output(0, &s0, 0);
  old_rr.connect_output(1, &s1, 0);
  auto flow = [](std::uint16_t sport) {
    return Packet::udp(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 9), sport, 80, {});
  };
  for (std::uint16_t sport : {1000, 2000, 3000}) old_rr.push(0, flow(sport));
  ASSERT_EQ(old_rr.tracked_flows(), 3u);

  RoundRobinSwitch new_rr;
  ASSERT_TRUE(new_rr.configure({"2", "FLOW", "2"}).ok());
  old_rr.migrate_flows([&](const net::FlowKey&) -> Element* { return &new_rr; });
  EXPECT_EQ(new_rr.tracked_flows(), 2u);
  EXPECT_EQ(new_rr.unpinned_flows(), 1u);
}

TEST(Elements, CheckIPHeaderSplitsBadPackets) {
  CheckIPHeader check;
  CaptureSink good, bad;
  check.connect_output(0, &good, 0);
  check.connect_output(1, &bad, 0);
  check.push(0, make_udp());
  Packet zero_ttl = make_udp();
  zero_ttl.ttl = 0;
  check.push(0, std::move(zero_ttl));
  EXPECT_EQ(good.packets.size(), 1u);
  EXPECT_EQ(bad.packets.size(), 1u);
  EXPECT_TRUE(bad.packets[0].dropped);
  EXPECT_EQ(check.bad_packets(), 1u);
}

// ---- IPFilter ----------------------------------------------------------

TEST(IpFilter, RuleParsing) {
  auto r1 = IPFilter::parse_rule("drop src 10.0.0.0/8 dst port 22 proto tcp");
  ASSERT_TRUE(r1.ok()) << r1.error();
  EXPECT_FALSE(r1->allow);
  EXPECT_EQ(r1->src_prefix, 8u);
  EXPECT_EQ(*r1->dst_port, 22);
  EXPECT_EQ(*r1->proto, net::IpProto::Tcp);

  auto r2 = IPFilter::parse_rule("allow all");
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->allow);
  EXPECT_TRUE(r2->match_all);

  EXPECT_FALSE(IPFilter::parse_rule("frobnicate all").ok());
  EXPECT_FALSE(IPFilter::parse_rule("drop src").ok());
  EXPECT_FALSE(IPFilter::parse_rule("drop src port 99999").ok());
  EXPECT_FALSE(IPFilter::parse_rule("drop").ok());
  EXPECT_FALSE(IPFilter::parse_rule("drop src 1.2.3.4/40").ok());
}

TEST(IpFilter, FirstMatchWins) {
  IPFilter filter;
  ASSERT_TRUE(filter
                  .configure({"allow src 10.8.0.2", "drop src 10.8.0.0/24",
                              "allow all"})
                  .ok());
  CaptureSink pass, drop;
  filter.connect_output(0, &pass, 0);
  filter.connect_output(1, &drop, 0);

  filter.push(0, Packet::udp(Ipv4(10, 8, 0, 2), Ipv4(1, 1, 1, 1), 1, 2, {}));
  filter.push(0, Packet::udp(Ipv4(10, 8, 0, 3), Ipv4(1, 1, 1, 1), 1, 2, {}));
  filter.push(0, Packet::udp(Ipv4(9, 9, 9, 9), Ipv4(1, 1, 1, 1), 1, 2, {}));
  EXPECT_EQ(pass.packets.size(), 2u);
  EXPECT_EQ(drop.packets.size(), 1u);
  EXPECT_TRUE(drop.packets[0].dropped);
  EXPECT_EQ(filter.dropped(), 1u);
}

TEST(IpFilter, UnmatchedPacketsPass) {
  IPFilter filter;
  // The paper's FW set-up: 16 rules that match nothing.
  std::vector<std::string> rules;
  for (int i = 0; i < 16; ++i)
    rules.push_back("drop src 203.0.113." + std::to_string(i));
  ASSERT_TRUE(filter.configure(rules).ok());
  EXPECT_EQ(filter.rule_count(), 16u);
  CaptureSink pass;
  filter.connect_output(0, &pass, 0);
  filter.push(0, make_udp());
  EXPECT_EQ(pass.packets.size(), 1u);
  EXPECT_EQ(filter.rules_evaluated(), 16u);  // all rules were evaluated
}

TEST(IpFilter, PortAndProtoConditions) {
  IPFilter filter;
  ASSERT_TRUE(filter.configure({"drop proto udp dst port 53"}).ok());
  CaptureSink pass, drop;
  filter.connect_output(0, &pass, 0);
  filter.connect_output(1, &drop, 0);
  filter.push(0, make_udp(53));
  filter.push(0, make_udp(80));
  Packet tcp53 = Packet::tcp(Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 1, 53, 0, 0, 0, {});
  filter.push(0, std::move(tcp53));
  EXPECT_EQ(drop.packets.size(), 1u);
  EXPECT_EQ(pass.packets.size(), 2u);
}

// ---- Hot swap -------------------------------------------------------------

/// Hot-swap lives on ShardedRouter; one lane is the single-router case.
std::unique_ptr<ShardedRouter> one_lane(const ElementRegistry& registry,
                                        const std::string& config) {
  auto built = ShardedRouter::create(
      config, 1, [&registry](std::size_t, const std::string& text) {
        return Router::from_config(text, registry);
      });
  if (!built.ok()) throw std::runtime_error(built.error());
  return std::move(*built);
}

TEST(HotSwap, SwapsAtomicallyAndKeepsState) {
  auto registry = registry_with_sink();
  auto router = one_lane(registry, "in :: Counter; sink :: CaptureSink; in -> sink;");
  router->shard(0).push_to("in", make_udp());
  EXPECT_EQ(router->shard(0).find_as<Counter>("in")->packets(), 1u);

  // New config keeps element 'in' (Counter): its count must survive.
  ASSERT_TRUE(router
                  ->hot_swap("in :: Counter; mid :: Queue(10); sink :: CaptureSink;"
                             "in -> mid; ")
                  .ok());
  EXPECT_EQ(router->shard(0).find_as<Counter>("in")->packets(), 1u);
  EXPECT_NE(router->shard(0).find("mid"), nullptr);
}

TEST(HotSwap, FailedSwapKeepsOldRouter) {
  auto registry = ElementRegistry::with_standard_elements();
  auto router = one_lane(registry, "a :: Counter;");
  Router* before = &router->shard(0);
  EXPECT_FALSE(router->hot_swap("broken :: NoSuchClass;").ok());
  EXPECT_EQ(&router->shard(0), before);
  EXPECT_EQ(router->config_text(), "a :: Counter;");
}

TEST(HotSwap, StateNotTransferredAcrossDifferentClasses) {
  auto registry = ElementRegistry::with_standard_elements();
  auto router = one_lane(registry, "x :: Counter;");
  router->shard(0).push_to("x", make_udp());
  // 'x' changes class: no state transfer, fresh Queue.
  ASSERT_TRUE(router->hot_swap("x :: Queue(5);").ok());
  EXPECT_NE(router->shard(0).find_as<Queue>("x"), nullptr);
}

TEST(HotSwap, FlowTableSurvivesSwap) {
  auto registry = registry_with_sink();
  const std::string config =
      "lb :: RoundRobinSwitch(2, FLOW); s0 :: CaptureSink; "
      "s1 :: CaptureSink; lb -> s0; lb[1] -> s1;";
  auto router = one_lane(registry, config);
  auto* lb = router->shard(0).find_as<RoundRobinSwitch>("lb");
  lb->push(0, make_udp());
  EXPECT_EQ(lb->tracked_flows(), 1u);
  ASSERT_TRUE(router->hot_swap(config).ok());
  EXPECT_EQ(router->shard(0).find_as<RoundRobinSwitch>("lb")->tracked_flows(), 1u);

  // Reshard 1 -> 2: each pin must move to the shard its flow hashes
  // to, or the flow is pinned afresh there and may change output
  // mid-connection.
  constexpr std::uint16_t kFlows = 32;
  auto burst = [] {
    PacketBatch batch;
    for (std::uint16_t f = 0; f < kFlows; ++f)
      batch.push_back(Packet::udp(Ipv4(10, 8, 0, 2), Ipv4(10, 0, 0, 1),
                                  static_cast<std::uint16_t>(7000 + f), 80, {}));
    return batch;
  };
  // Output port per source port, read (and cleared) from every shard.
  auto ports = [&router] {
    std::map<std::uint16_t, int> out;
    for (std::size_t i = 0; i < router->shard_count(); ++i)
      for (int port : {0, 1}) {
        auto* sink = router->shard(i).find_as<CaptureSink>(port == 0 ? "s0" : "s1");
        for (const Packet& p : sink->packets) out[p.src_port] = port;
        sink->packets.clear();
      }
    return out;
  };
  ASSERT_TRUE(router->push_batch_to("lb", burst()));
  auto pinned = ports();
  ASSERT_EQ(pinned.size(), kFlows);
  ASSERT_TRUE(router->reshard(2).ok());
  ASSERT_TRUE(router->push_batch_to("lb", burst()));
  EXPECT_EQ(ports(), pinned);
}

}  // namespace
}  // namespace endbox::click
