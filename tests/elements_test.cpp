// Tests for the EndBox custom Click elements: device glue, IDSMatcher,
// splitters, TLSDecrypt — including their use via config files.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>

#include "click/router.hpp"
#include "click/sharded_router.hpp"
#include "click/standard_elements.hpp"
#include "elements/context.hpp"
#include "elements/device.hpp"
#include "elements/ids_matcher.hpp"
#include "elements/splitters.hpp"
#include "elements/tls_decrypt.hpp"
#include "oracle/ip_filter.hpp"
#include "oracle/naive_scanner.hpp"

namespace endbox::elements {
namespace {

using net::Ipv4;
using net::Packet;

struct Fixture : ::testing::Test {
  Rng rng{11};
  sim::Time fake_trusted_time = 0;
  sim::Time fake_untrusted_time = 0;
  tls::SessionKeyStore key_store;
  ElementContext context;
  std::vector<std::pair<Packet, bool>> delivered;
  std::vector<idps::SnortRule> community, strict;  ///< as registered below

  Fixture() {
    context.key_store = &key_store;
    context.trusted_time = [this] { return fake_trusted_time; };
    context.untrusted_time = [this] { return fake_untrusted_time; };
    context.to_device = [this](Packet&& p, bool accepted) {
      delivered.emplace_back(std::move(p), accepted);
    };
    community = idps::generate_community_ruleset(377, rng);
    strict = *idps::parse_snort_ruleset(
        "drop ip any any -> any any (content:\"malware\"; sid:1;)\n"
        "alert ip any any -> any any (content:\"suspicious\"; sid:2;)\n");
    context.rulesets["community"] = community;
    context.rulesets["strict"] = strict;
  }

  Packet benign(std::size_t size = 100) {
    return Packet::udp(Ipv4(10, 8, 0, 2), Ipv4(10, 0, 0, 1), 5555, 80,
                       Bytes(size, 'x'));
  }
};

// ---- Device glue ---------------------------------------------------------

TEST_F(Fixture, FromDeviceToDevicePipeline) {
  auto registry = make_endbox_registry(context);
  auto router = click::Router::from_config(
      "from :: FromDevice; to :: ToDevice; from -> to;", registry);
  ASSERT_TRUE(router.ok()) << router.error();
  (*router)->push_to("from", benign());
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_TRUE(delivered[0].second);  // accepted
  auto* to = (*router)->find_as<ToDevice>("to");
  EXPECT_EQ(to->accepted(), 1u);
  EXPECT_EQ(to->rejected(), 0u);
}

TEST_F(Fixture, ToDeviceSignalsRejection) {
  auto registry = make_endbox_registry(context);
  auto router = click::Router::from_config(
      "from :: FromDevice; fw :: IPFilter(drop all); to :: ToDevice;"
      "from -> fw -> to; fw[1] -> [1]to;", registry);
  ASSERT_TRUE(router.ok()) << router.error();
  (*router)->push_to("from", benign());
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_FALSE(delivered[0].second);  // rejected
  EXPECT_EQ((*router)->find_as<ToDevice>("to")->rejected(), 1u);
}

// ---- IDSMatcher -----------------------------------------------------------

TEST_F(Fixture, IdsMatcherPassesBenignTraffic) {
  IDSMatcher matcher(context);
  ASSERT_TRUE(matcher.configure({"RULESET community"}).ok());
  click::Counter pass;
  matcher.connect_output(0, &pass, 0);
  for (int i = 0; i < 10; ++i) matcher.push(0, benign(1400));
  EXPECT_EQ(pass.packets(), 10u);
  EXPECT_EQ(matcher.matches(), 0u);
  EXPECT_EQ(matcher.bytes_scanned(), 14000u);
}

TEST_F(Fixture, IdsMatcherDropRule) {
  IDSMatcher matcher(context);
  ASSERT_TRUE(matcher.configure({"RULESET strict"}).ok());
  click::Counter pass, drop;
  matcher.connect_output(0, &pass, 0);
  matcher.connect_output(1, &drop, 0);

  Packet evil = benign();
  evil.payload = to_bytes("xx malware yy");
  matcher.push(0, std::move(evil));
  Packet sus = benign();
  sus.payload = to_bytes("suspicious but allowed");
  matcher.push(0, std::move(sus));
  matcher.push(0, benign());

  EXPECT_EQ(drop.packets(), 1u);   // drop rule fired
  EXPECT_EQ(pass.packets(), 2u);   // alert-only + clean
  EXPECT_EQ(matcher.matches(), 2u);
}

TEST_F(Fixture, IdsMatcherDropModeDropsOnAlert) {
  IDSMatcher matcher(context);
  ASSERT_TRUE(matcher.configure({"RULESET strict", "DROP"}).ok());
  click::Counter pass, drop;
  matcher.connect_output(0, &pass, 0);
  matcher.connect_output(1, &drop, 0);
  Packet sus = benign();
  sus.payload = to_bytes("suspicious content");
  matcher.push(0, std::move(sus));
  EXPECT_EQ(drop.packets(), 1u);  // alert rule escalated to drop
}

TEST_F(Fixture, IdsMatcherConfigErrors) {
  IDSMatcher matcher(context);
  EXPECT_FALSE(matcher.configure({}).ok());
  EXPECT_FALSE(matcher.configure({"RULESET nonexistent"}).ok());
  EXPECT_FALSE(matcher.configure({"BOGUS x"}).ok());
}

TEST_F(Fixture, IdsMatcherScansDecryptedPayload) {
  IDSMatcher matcher(context);
  ASSERT_TRUE(matcher.configure({"RULESET strict"}).ok());
  click::Counter pass, drop;
  matcher.connect_output(0, &pass, 0);
  matcher.connect_output(1, &drop, 0);
  Packet p = benign();
  p.payload = to_bytes("ciphertext-gibberish");        // wire bytes
  p.decrypted_payload = to_bytes("hidden malware !");  // what TLSDecrypt saw
  matcher.push(0, std::move(p));
  EXPECT_EQ(drop.packets(), 1u);
}

// ---- Splitters -------------------------------------------------------------

TEST_F(Fixture, TrustedSplitterShapesToRate) {
  TrustedSplitter splitter(context);
  // 1 Mbps, tiny burst, sample every packet for deterministic behaviour.
  ASSERT_TRUE(splitter.configure({"RATE 1000000", "SAMPLE 1", "BURST 16000"}).ok());
  click::Counter ok_out, over;
  splitter.connect_output(0, &ok_out, 0);
  splitter.connect_output(1, &over, 0);

  // At t=0, burst allows 16 kbit = ~15 packets of 128 bytes (+28 hdr).
  for (int i = 0; i < 50; ++i) splitter.push(0, benign(128));
  EXPECT_GT(over.packets(), 0u);
  std::uint64_t over_before = over.packets();

  // Advance trusted time by 1 s: tokens refill (capped at the 16 kbit
  // burst), so the next ~10 small packets conform again.
  fake_trusted_time += sim::kSecond;
  for (int i = 0; i < 10; ++i) splitter.push(0, benign(128));
  EXPECT_EQ(over.packets(), over_before);  // all 10 conforming
}

TEST_F(Fixture, TrustedSplitterSamplesTime) {
  TrustedSplitter splitter(context);
  ASSERT_TRUE(splitter.configure({"RATE 1e9", "SAMPLE 10"}).ok());
  for (int i = 0; i < 100; ++i) splitter.push(0, benign());
  // One initial read + one per 10 packets thereafter.
  EXPECT_LE(splitter.time_calls(), 11u);
  EXPECT_EQ(context.trusted_time_calls, splitter.time_calls());
}

TEST_F(Fixture, UntrustedSplitterReadsTimePerPacket) {
  UntrustedSplitter splitter(context);
  ASSERT_TRUE(splitter.configure({"RATE 1e9"}).ok());
  for (int i = 0; i < 25; ++i) splitter.push(0, benign());
  EXPECT_EQ(context.untrusted_time_calls, 25u);
}

TEST_F(Fixture, SplitterConfigErrors) {
  TrustedSplitter splitter(context);
  EXPECT_FALSE(splitter.configure({}).ok());                  // RATE required
  EXPECT_FALSE(splitter.configure({"RATE -5"}).ok());
  EXPECT_FALSE(splitter.configure({"RATE abc"}).ok());
  EXPECT_FALSE(splitter.configure({"RATE 1e6", "SAMPLE 0"}).ok());
  EXPECT_FALSE(splitter.configure({"RATE 1e6", "WHAT 3"}).ok());
}

TEST_F(Fixture, SplitterStateSurvivesHotSwap) {
  auto registry = make_endbox_registry(context);
  const std::string config =
      "s :: TrustedSplitter(RATE 1e6, SAMPLE 1, BURST 16000); d :: Discard; "
      "over :: Discard; s -> d; s[1] -> over;";
  auto router = click::ShardedRouter::create(
      config, 1, [&registry](std::size_t, const std::string& text) {
        return click::Router::from_config(text, registry);
      });
  ASSERT_TRUE(router.ok()) << router.error();
  auto* s = (*router)->shard(0).find_as<TrustedSplitter>("s");
  for (int i = 0; i < 50; ++i) s->push(0, benign(128));
  auto over_before = s->over_rate();
  ASSERT_GT(over_before, 0u);
  // Hot-swap to the same config: bucket state carries over, so the
  // limiter keeps rejecting (no fresh burst allowance).
  ASSERT_TRUE((*router)->hot_swap(config).ok());
  auto* s2 = (*router)->shard(0).find_as<TrustedSplitter>("s");
  EXPECT_EQ(s2->over_rate(), over_before);
  s2->push(0, benign(128));
  EXPECT_EQ(s2->over_rate(), over_before + 1);  // still over rate

  // Reshard 1 -> 2 -> 1 with trusted time frozen: the new lane never
  // primed, so the fold pools only the credit the old lane held and
  // no transition hands the limiter a fresh burst.
  ASSERT_TRUE((*router)->reshard(2).ok());
  ASSERT_TRUE((*router)->reshard(1).ok());
  auto* s3 = (*router)->shard(0).find_as<TrustedSplitter>("s");
  EXPECT_EQ(s3->over_rate(), over_before + 1);
  s3->push(0, benign(128));
  EXPECT_EQ(s3->over_rate(), over_before + 2);  // still over rate
}

// ---- TLSDecrypt -------------------------------------------------------------

struct TlsFixture : Fixture {
  tls::TlsClient tls_client{rng};
  tls::TlsServer tls_server{rng};

  void handshake_with_export() {
    tls_client.set_key_export_hook(
        [this](const tls::SessionKeys& k) { key_store.put(k); });
    auto ch = tls_client.start_handshake();
    auto sh = tls_server.accept(ch, to_bytes("pm"));
    ASSERT_TRUE(sh.ok());
    ASSERT_TRUE(tls_client.finish_handshake(*sh, to_bytes("pm")).ok());
  }

  Packet tls_packet(const std::string& plaintext) {
    auto record = tls_client.send(to_bytes(plaintext));
    Packet p = Packet::tcp(Ipv4(10, 8, 0, 2), Ipv4(93, 184, 216, 34), 40000, 443,
                           0, 0, 0x18, record.serialize());
    p.flow_hint = static_cast<std::uint32_t>(tls_client.keys().session_id);
    return p;
  }
};

TEST_F(TlsFixture, DecryptsWithForwardedKeys) {
  handshake_with_export();
  TLSDecrypt decrypt(context);
  ASSERT_TRUE(decrypt.configure({}).ok());
  click::Counter sink;
  decrypt.connect_output(0, &sink, 0);

  Packet p = tls_packet("GET /secret HTTP/1.1");
  Bytes wire_before = p.payload;
  decrypt.push(0, std::move(p));

  EXPECT_EQ(decrypt.decrypted(), 1u);
  EXPECT_EQ(sink.packets(), 1u);
}

TEST_F(TlsFixture, LeavesWirePayloadIntact) {
  handshake_with_export();
  TLSDecrypt decrypt(context);
  ASSERT_TRUE(decrypt.configure({}).ok());
  struct Capture : click::Element {
    std::string_view class_name() const override { return "Capture"; }
    void push_batch(int, click::PacketBatch&& batch) override {
      for (Packet& p : batch) got = std::move(p);
      batch.clear();
    }
    Packet got;
  } capture;
  decrypt.connect_output(0, &capture, 0);

  Packet p = tls_packet("end-to-end secret");
  Bytes wire_before = p.payload;
  decrypt.push(0, std::move(p));
  EXPECT_EQ(capture.got.payload, wire_before);  // ciphertext untouched
  EXPECT_EQ(to_string(capture.got.decrypted_payload), "end-to-end secret");
}

TEST_F(TlsFixture, WithoutKeysCountsMiss) {
  // No key export: vanilla client. Decryption impossible.
  auto ch = tls_client.start_handshake();
  auto sh = tls_server.accept(ch, to_bytes("pm"));
  ASSERT_TRUE(sh.ok());
  ASSERT_TRUE(tls_client.finish_handshake(*sh, to_bytes("pm")).ok());

  TLSDecrypt decrypt(context);
  ASSERT_TRUE(decrypt.configure({}).ok());
  click::Counter sink;
  decrypt.connect_output(0, &sink, 0);
  decrypt.push(0, tls_packet("opaque"));
  EXPECT_EQ(decrypt.decrypted(), 0u);
  EXPECT_EQ(decrypt.key_misses(), 1u);
  EXPECT_EQ(sink.packets(), 1u);  // still forwarded
}

TEST_F(TlsFixture, NonTlsTrafficPassesThrough) {
  TLSDecrypt decrypt(context);
  ASSERT_TRUE(decrypt.configure({}).ok());
  click::Counter sink;
  decrypt.connect_output(0, &sink, 0);
  decrypt.push(0, benign());
  EXPECT_EQ(decrypt.passthrough(), 1u);
  EXPECT_EQ(sink.packets(), 1u);
}

TEST_F(TlsFixture, EncryptedIdpsPipeline) {
  // The full section III-D pipeline: TLSDecrypt -> IDSMatcher finds
  // malware hidden inside a TLS record.
  handshake_with_export();
  auto registry = make_endbox_registry(context);
  auto router = click::Router::from_config(
      "from :: FromDevice; dec :: TLSDecrypt; ids :: IDSMatcher(RULESET strict);"
      "to :: ToDevice; from -> dec -> ids -> to; ids[1] -> [1]to;", registry);
  ASSERT_TRUE(router.ok()) << router.error();

  (*router)->push_to("from", tls_packet("totally innocent malware payload"));
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_FALSE(delivered[0].second);  // dropped despite encryption

  (*router)->push_to("from", tls_packet("regular page content"));
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_TRUE(delivered[1].second);
}

// ---- Batch semantics: push_batch must be byte- and order-identical -------
//
// Property: pushing a packet stream per packet (bursts of one, through
// Element::push) into one element instance and the same stream as
// mixed-size bursts into a second instance yields identical per-port
// output sequences (wire bytes and metadata annotations) and identical
// element statistics. Both sides run the same push_batch, so the two
// elements with non-trivial verdict logic, IPFilter and IDSMatcher,
// are also checked packet by packet against independent oracles.

namespace batch_property {

struct Capture {
  int port;
  Bytes wire;
  bool dropped;
  std::uint32_t flow_hint;
  Bytes decrypted;

  bool operator==(const Capture&) const = default;
};

/// Terminal sink recording packets per input port, in arrival order.
class CaptureSink : public click::Element {
 public:
  std::string_view class_name() const override { return "CaptureSink"; }
  int n_inputs() const override { return 256; }
  void push_batch(int port, click::PacketBatch&& batch) override {
    for (const Packet& p : batch)
      rows.push_back(Capture{port, p.serialize(), p.dropped, p.flow_hint,
                             p.decrypted_payload});
    batch.clear();
  }
  std::vector<Capture> on_port(int port) const {
    std::vector<Capture> out;
    for (const Capture& row : rows)
      if (row.port == port) out.push_back(row);
    return out;
  }
  std::vector<Capture> rows;
};

/// Deterministic mixed traffic exercising every path: benign packets of
/// varied sizes/flows, implausible headers, and IDS-matching payloads.
std::vector<Packet> mixed_traffic(std::size_t count) {
  std::vector<Packet> packets;
  Rng rng(0xba7c4);
  for (std::size_t k = 0; k < count; ++k) {
    std::size_t size = 40 + (k * 97) % 1200;
    Packet p = Packet::udp(Ipv4(10, 8, 0, static_cast<std::uint8_t>(2 + k % 5)),
                           Ipv4(10, 0, 0, 1),
                           static_cast<std::uint16_t>(40000 + k % 7),
                           static_cast<std::uint16_t>(k % 3 ? 80 : 5001),
                           rng.bytes(size));
    if (k % 11 == 3) p.ttl = 0;                      // CheckIPHeader reject
    if (k % 13 == 5) p.src = Ipv4();                 // zero address
    if (k % 7 == 2) {
      Bytes evil = to_bytes("malware");
      std::copy(evil.begin(), evil.end(), p.payload.begin() + 8);
    }
    packets.push_back(std::move(p));
  }
  return packets;
}

/// Feeds `packets` as bursts of one into `single` and as mixed-size
/// bursts into `batched`; expects identical per-port capture sequences.
/// `arrivals`, when given, receives `single`'s captures in arrival
/// order: for an element that forwards each packet once, row k is
/// packet k.
void expect_equivalent(click::Element& single, click::Element& batched,
                       const std::vector<Packet>& packets,
                       std::vector<Capture>* arrivals = nullptr) {
  CaptureSink a, b;
  for (int port = 0; port < single.n_outputs(); ++port) {
    single.connect_output(port, &a, port);
    batched.connect_output(port, &b, port);
  }
  for (const Packet& p : packets) {
    Packet copy = p;
    single.push(0, std::move(copy));
  }
  // Burst sizes cycle through 1, 5, and a full kMaxBurst so partial and
  // full batches (and their boundaries) are all exercised.
  static constexpr std::size_t kSizes[] = {1, 5, click::PacketBatch::kMaxBurst};
  std::size_t i = 0, cycle = 0;
  while (i < packets.size()) {
    click::PacketBatch batch;
    std::size_t n = std::min(kSizes[cycle++ % 3], packets.size() - i);
    for (std::size_t k = 0; k < n; ++k) {
      Packet copy = packets[i++];
      batch.push_back(std::move(copy));
    }
    batched.push_batch(0, std::move(batch));
  }
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (int port = 0; port < single.n_outputs(); ++port) {
    auto rows_a = a.on_port(port);
    auto rows_b = b.on_port(port);
    ASSERT_EQ(rows_a.size(), rows_b.size()) << "port " << port;
    for (std::size_t k = 0; k < rows_a.size(); ++k)
      EXPECT_TRUE(rows_a[k] == rows_b[k])
          << "port " << port << " packet " << k << " differs";
  }
  if (arrivals) *arrivals = std::move(a.rows);
}

/// Checks each packet's IDSMatcher output port and drop mark, and the
/// match count, against the naive scanner's per-packet verdicts.
void expect_ids_oracle(const std::vector<idps::SnortRule>& rules, bool drop_mode,
                       const std::vector<Packet>& packets,
                       const std::vector<Capture>& arrivals,
                       std::uint64_t matches) {
  oracle::NaiveScanner naive(rules);
  ASSERT_EQ(arrivals.size(), packets.size());
  std::uint64_t expected_matches = 0;
  for (std::size_t k = 0; k < packets.size(); ++k) {
    idps::IdpsVerdict verdict = naive.inspect(packets[k], packets[k].payload);
    expected_matches += verdict.matched;
    bool drop = verdict.drop || (drop_mode && verdict.matched);
    EXPECT_EQ(arrivals[k].port, drop ? 1 : 0) << "packet " << k;
    EXPECT_EQ(arrivals[k].dropped, drop) << "packet " << k;
  }
  EXPECT_EQ(matches, expected_matches);
}

}  // namespace batch_property

using batch_property::expect_equivalent;
using batch_property::expect_ids_oracle;
using batch_property::mixed_traffic;

TEST_F(Fixture, CounterBatchMatchesPerPacket) {
  click::Counter a, c;
  expect_equivalent(a, c, mixed_traffic(200));
  EXPECT_EQ(a.packets(), c.packets());
  EXPECT_EQ(a.bytes(), c.bytes());
}

TEST_F(Fixture, DiscardBatchMatchesPerPacket) {
  click::Discard a, c;
  expect_equivalent(a, c, mixed_traffic(100));
  EXPECT_EQ(a.discarded(), 100u);
  EXPECT_EQ(c.discarded(), 100u);
}

TEST_F(Fixture, SetTosAndPaintBatchMatchesPerPacket) {
  click::SetTos a, c;
  ASSERT_TRUE(a.configure({"0x12"}).ok());
  ASSERT_TRUE(c.configure({"0x12"}).ok());
  expect_equivalent(a, c, mixed_traffic(100));

  click::Paint pa, pc;
  ASSERT_TRUE(pa.configure({"7"}).ok());
  ASSERT_TRUE(pc.configure({"7"}).ok());
  expect_equivalent(pa, pc, mixed_traffic(100));
}

TEST_F(Fixture, TeeBatchMatchesPerPacket) {
  click::Tee a, c;
  ASSERT_TRUE(a.configure({"3"}).ok());
  ASSERT_TRUE(c.configure({"3"}).ok());
  expect_equivalent(a, c, mixed_traffic(150));
}

TEST_F(Fixture, CheckIPHeaderBatchMatchesPerPacket) {
  click::CheckIPHeader a, c;
  expect_equivalent(a, c, mixed_traffic(300));
  EXPECT_GT(a.bad_packets(), 0u);  // the stream contains rejects
  EXPECT_EQ(a.bad_packets(), c.bad_packets());
}

/// IPFilter rule text for an oracle rule ("drop all" when unconditioned).
std::string filter_rule_text(const oracle::FilterRule& rule) {
  std::string text = rule.allow ? "allow" : "drop";
  auto prefix = [](const char* side, const oracle::FilterRule::Prefix& p) {
    return std::string(" ") + side + " " + Ipv4(p.address).str() + "/" +
           std::to_string(p.length);
  };
  if (rule.src) text += prefix("src", *rule.src);
  if (rule.dst) text += prefix("dst", *rule.dst);
  if (rule.proto)
    text += *rule.proto == net::IpProto::Tcp   ? " proto tcp"
            : *rule.proto == net::IpProto::Udp ? " proto udp"
                                               : " proto icmp";
  if (rule.src_port) text += " src port " + std::to_string(*rule.src_port);
  if (rule.dst_port) text += " dst port " + std::to_string(*rule.dst_port);
  return text == "allow" || text == "drop" ? text + " all" : text;
}

/// A seeded random rule set drawing addresses and ports mostly from the
/// ones mixed_traffic uses, so rules both match and miss.
std::vector<oracle::FilterRule> random_filter_rules(Rng& rng) {
  auto pick = [&](std::uint64_t n) { return rng.uniform(0, n - 1); };
  auto address = [&]() -> std::uint32_t {
    switch (pick(3)) {
      case 0: return Ipv4(10, 8, 0, static_cast<std::uint8_t>(2 + pick(5))).value();
      case 1: return Ipv4(10, 0, 0, 1).value();
      default: return rng.next_u32();
    }
  };
  std::vector<oracle::FilterRule> rules(1 + pick(6));
  for (oracle::FilterRule& rule : rules) {
    rule.allow = pick(2) == 0;
    if (pick(2)) rule.src = {address(), static_cast<unsigned>(pick(33))};
    if (pick(2)) rule.dst = {address(), static_cast<unsigned>(pick(33))};
    if (pick(3) == 0) {
      constexpr net::IpProto kProtos[] = {net::IpProto::Tcp, net::IpProto::Udp,
                                          net::IpProto::Icmp};
      rule.proto = kProtos[pick(3)];
    }
    if (pick(3) == 0) rule.src_port = static_cast<std::uint16_t>(40000 + pick(8));
    if (pick(3) == 0) rule.dst_port = pick(2) ? std::uint16_t{80} : std::uint16_t{5001};
  }
  return rules;
}

TEST_F(Fixture, IPFilterBatchMatchesPerPacket) {
  // A fixed rule set (drop dst port 80, allow src 10.8.0.0/16, drop
  // all), then seeded random ones. Every packet's output port must
  // also be the oracle's first-match verdict.
  std::vector<std::vector<oracle::FilterRule>> rule_sets(1);
  rule_sets[0].resize(3);
  rule_sets[0][0].dst_port = 80;
  rule_sets[0][1].allow = true;
  rule_sets[0][1].src = {Ipv4(10, 8, 0, 0).value(), 16};
  Rng rule_rng(0xf117e2);
  for (int i = 0; i < 24; ++i) rule_sets.push_back(random_filter_rules(rule_rng));

  auto traffic = mixed_traffic(300);
  for (std::size_t k = 0; k < traffic.size(); k += 3)
    traffic[k].proto = net::IpProto::Tcp;
  std::uint64_t total_dropped = 0;
  for (const auto& rule_set : rule_sets) {
    std::vector<std::string> rules;
    for (const oracle::FilterRule& rule : rule_set)
      rules.push_back(filter_rule_text(rule));
    click::IPFilter a, c;
    ASSERT_TRUE(a.configure(rules).ok());
    ASSERT_TRUE(c.configure(rules).ok());
    std::vector<batch_property::Capture> arrivals;
    expect_equivalent(a, c, traffic, &arrivals);
    EXPECT_EQ(a.dropped(), c.dropped());
    EXPECT_EQ(a.rules_evaluated(), c.rules_evaluated());
    ASSERT_EQ(arrivals.size(), traffic.size());
    for (std::size_t k = 0; k < traffic.size(); ++k)
      EXPECT_EQ(arrivals[k].port, oracle::ip_filter_allows(rule_set, traffic[k]) ? 0 : 1)
          << "packet " << k << " under rules: " << ::testing::PrintToString(rules);
    total_dropped += a.dropped();
  }
  EXPECT_GT(total_dropped, 0u);
}

TEST_F(Fixture, RoundRobinSwitchBatchMatchesPerPacket) {
  // Splitters must re-batch per output port: both modes, several ports.
  for (const char* mode : {"PACKET", "FLOW"}) {
    click::RoundRobinSwitch a, c;
    ASSERT_TRUE(a.configure({"4", mode}).ok());
    ASSERT_TRUE(c.configure({"4", mode}).ok());
    expect_equivalent(a, c, mixed_traffic(257));
    EXPECT_EQ(a.tracked_flows(), c.tracked_flows());
  }
}

TEST_F(Fixture, QueueBatchMatchesPerPacket) {
  click::Queue a, c;
  ASSERT_TRUE(a.configure({"50"}).ok());
  ASSERT_TRUE(c.configure({"50"}).ok());
  auto packets = mixed_traffic(80);
  for (const Packet& p : packets) {
    Packet copy = p;
    a.push(0, std::move(copy));
  }
  click::PacketBatch batch;
  std::size_t i = 0;
  while (i < packets.size()) {
    std::size_t n = std::min<std::size_t>(click::PacketBatch::kMaxBurst,
                                          packets.size() - i);
    for (std::size_t k = 0; k < n; ++k) {
      Packet copy = packets[i++];
      batch.push_back(std::move(copy));
    }
    c.push_batch(0, std::move(batch));
    batch.clear();
  }
  EXPECT_EQ(a.size(), c.size());
  EXPECT_EQ(a.drops(), c.drops());
  EXPECT_GT(a.drops(), 0u);  // capacity 50 < 80
  while (auto pa = a.pop()) {
    auto pc = c.pop();
    ASSERT_TRUE(pc.has_value());
    EXPECT_EQ(pa->serialize(), pc->serialize());
  }
  EXPECT_FALSE(c.pop().has_value());
}

TEST_F(Fixture, IDSMatcherBatchMatchesPerPacket) {
  IDSMatcher a(context), c(context);
  ASSERT_TRUE(a.configure({"RULESET strict", "DROP"}).ok());
  ASSERT_TRUE(c.configure({"RULESET strict", "DROP"}).ok());
  auto traffic = mixed_traffic(250);
  std::vector<batch_property::Capture> arrivals;
  expect_equivalent(a, c, traffic, &arrivals);
  EXPECT_GT(a.matches(), 0u);  // the stream embeds "malware" payloads
  EXPECT_EQ(a.matches(), c.matches());
  EXPECT_EQ(a.bytes_scanned(), c.bytes_scanned());
  expect_ids_oracle(strict, true, traffic, arrivals, a.matches());
}

TEST_F(Fixture, IDSMatcherBatchMatchesPerPacketOnCommunityRuleset) {
  IDSMatcher a(context), c(context);
  ASSERT_TRUE(a.configure({"RULESET community"}).ok());
  ASSERT_TRUE(c.configure({"RULESET community"}).ok());
  // Random payloads match no community rule, so every third packet
  // carries one rule's contents (nocase ones upper-cased): rules fire,
  // miss on their header constraints, or stay incomplete when the
  // payload is too short for every content.
  const auto& rules = community;
  auto traffic = mixed_traffic(150);
  for (std::size_t k = 0; k < traffic.size(); k += 3) {
    Bytes& payload = traffic[k].payload;
    std::size_t at = 4;
    for (const idps::ContentPattern& content : rules[k / 3].contents) {
      if (at + content.bytes.size() > payload.size()) break;
      for (std::uint8_t byte : content.bytes)
        payload[at++] = static_cast<std::uint8_t>(content.nocase ? std::toupper(byte) : byte);
      ++at;
    }
  }
  std::vector<batch_property::Capture> arrivals;
  expect_equivalent(a, c, traffic, &arrivals);
  EXPECT_GT(a.matches(), 0u);
  EXPECT_EQ(a.matches(), c.matches());
  EXPECT_EQ(a.bytes_scanned(), c.bytes_scanned());
  expect_ids_oracle(community, false, traffic, arrivals, a.matches());
}

TEST_F(Fixture, RateSplitterBatchMatchesPerPacket) {
  // Constant clock: the bucket never refills, so a 100 kbit burst
  // admits a prefix of the stream and rate-limits the rest — the
  // partition point must land identically on both paths.
  TrustedSplitter a(context), c(context);
  ASSERT_TRUE(a.configure({"RATE 1000000", "BURST 100000"}).ok());
  ASSERT_TRUE(c.configure({"RATE 1000000", "BURST 100000"}).ok());
  expect_equivalent(a, c, mixed_traffic(300));
  EXPECT_GT(a.over_rate(), 0u);
  EXPECT_EQ(a.conforming(), c.conforming());
  EXPECT_EQ(a.over_rate(), c.over_rate());
  EXPECT_EQ(a.time_calls(), c.time_calls());
}

TEST_F(Fixture, DeviceGlueBatchMatchesPerPacket) {
  FromDevice a, c;
  expect_equivalent(a, c, mixed_traffic(100));
  EXPECT_EQ(a.packets(), c.packets());
}

TEST_F(Fixture, ToDeviceBatchDeliversIdenticalVerdicts) {
  auto packets = mixed_traffic(120);
  ToDevice single(context);
  for (const Packet& p : packets) {
    Packet copy = p;
    single.push(copy.dropped ? 1 : 0, std::move(copy));
  }
  auto single_delivered = std::move(delivered);
  delivered.clear();

  ToDevice batched(context);
  std::size_t i = 0;
  while (i < packets.size()) {
    click::PacketBatch batch;
    std::size_t n = std::min<std::size_t>(17, packets.size() - i);
    for (std::size_t k = 0; k < n; ++k) {
      Packet copy = packets[i++];
      batch.push_back(std::move(copy));
    }
    batched.push_batch(0, std::move(batch));
  }
  ASSERT_EQ(delivered.size(), single_delivered.size());
  for (std::size_t k = 0; k < delivered.size(); ++k) {
    EXPECT_EQ(delivered[k].first.serialize(), single_delivered[k].first.serialize());
    EXPECT_EQ(delivered[k].second, single_delivered[k].second);
  }
  EXPECT_EQ(batched.accepted(), single.accepted());
  EXPECT_EQ(batched.rejected(), single.rejected());
}

TEST_F(Fixture, RouterChainBatchMatchesPerPacket) {
  // Whole-graph property over the representative enclave chain: the
  // batched traversal must produce the same ToDevice verdict sequence
  // as packet-at-a-time pushes.
  const char* config =
      "from :: FromDevice; check :: CheckIPHeader;"
      "fw :: IPFilter(allow src 10.8.0.0/16, drop all);"
      "ids :: IDSMatcher(RULESET strict, DROP); to :: ToDevice;"
      "from -> check -> fw -> ids -> to;"
      "check[1] -> [1]to; fw[1] -> [1]to; ids[1] -> [1]to;";
  auto registry = make_endbox_registry(context);
  auto single = click::Router::from_config(config, registry);
  auto batched = click::Router::from_config(config, registry);
  ASSERT_TRUE(single.ok()) << single.error();
  ASSERT_TRUE(batched.ok()) << batched.error();

  auto packets = mixed_traffic(200);
  for (const Packet& p : packets) {
    Packet copy = p;
    (*single)->push_to("from", std::move(copy));
  }
  auto single_delivered = std::move(delivered);
  delivered.clear();

  std::size_t i = 0;
  while (i < packets.size()) {
    click::PacketBatch batch;
    std::size_t n = std::min<std::size_t>(click::PacketBatch::kMaxBurst,
                                          packets.size() - i);
    for (std::size_t k = 0; k < n; ++k) {
      Packet copy = packets[i++];
      batch.push_back(std::move(copy));
    }
    (*batched)->push_batch_to("from", std::move(batch));
  }
  ASSERT_EQ(delivered.size(), single_delivered.size());
  // Accepted packets traverse the whole port-0 chain, so their order is
  // preserved exactly. Rejects re-batch per rejecting element (all of
  // CheckIPHeader's rejects, then IPFilter's, then IDSMatcher's), so
  // the reject verdicts compare as a multiset.
  auto split = [](const std::vector<std::pair<Packet, bool>>& rows, bool accepted) {
    std::vector<Bytes> out;
    for (const auto& [packet, verdict] : rows)
      if (verdict == accepted) out.push_back(packet.serialize());
    return out;
  };
  EXPECT_EQ(split(delivered, true), split(single_delivered, true));
  auto rejected_batched = split(delivered, false);
  auto rejected_single = split(single_delivered, false);
  // Explicit comparator: GCC 12's range analysis miscomputes the memcmp
  // bound for vector<Bytes>'s synthesized operator< under -Werror.
  auto by_bytes = [](const Bytes& a, const Bytes& b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
  };
  std::sort(rejected_batched.begin(), rejected_batched.end(), by_bytes);
  std::sort(rejected_single.begin(), rejected_single.end(), by_bytes);
  EXPECT_GT(rejected_single.size(), 0u);
  EXPECT_EQ(rejected_batched, rejected_single);
}

}  // namespace
}  // namespace endbox::elements
