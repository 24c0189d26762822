// Tests for the IDPS substrate: Aho-Corasick matching, Snort rule
// parsing, and the combined engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "idps/aho_corasick.hpp"
#include "idps/engine.hpp"
#include "idps/snort_rules.hpp"

namespace endbox::idps {
namespace {

using net::Ipv4;
using net::Packet;

// ---- Aho-Corasick -------------------------------------------------------

TEST(AhoCorasick, FindsSinglePattern) {
  AhoCorasick ac;
  ac.add_pattern(to_bytes("needle"), 1);
  ac.build();
  EXPECT_TRUE(ac.contains_any(to_bytes("hay needle stack")));
  EXPECT_FALSE(ac.contains_any(to_bytes("hay stack")));
}

TEST(AhoCorasick, ClassicOverlappingPatterns) {
  // The canonical example from the 1975 paper: {he, she, his, hers}.
  AhoCorasick ac;
  ac.add_pattern(to_bytes("he"), 0);
  ac.add_pattern(to_bytes("she"), 1);
  ac.add_pattern(to_bytes("his"), 2);
  ac.add_pattern(to_bytes("hers"), 3);
  ac.build();
  auto matches = ac.match(to_bytes("ushers"));
  // "ushers" contains she (ends 4), he (ends 4), hers (ends 6).
  ASSERT_EQ(matches.size(), 3u);
  std::vector<int> ids;
  for (auto& m : matches) ids.push_back(m.pattern_id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<int>{0, 1, 3}));
}

TEST(AhoCorasick, ReportsEndOffsets) {
  AhoCorasick ac;
  ac.add_pattern(to_bytes("ab"), 7);
  ac.build();
  auto matches = ac.match(to_bytes("abxxab"));
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].end_offset, 2u);
  EXPECT_EQ(matches[1].end_offset, 6u);
}

TEST(AhoCorasick, PatternIsSubstringOfAnother) {
  AhoCorasick ac;
  ac.add_pattern(to_bytes("abc"), 1);
  ac.add_pattern(to_bytes("b"), 2);
  ac.build();
  auto matches = ac.match(to_bytes("abc"));
  ASSERT_EQ(matches.size(), 2u);  // both "b" and "abc"
}

TEST(AhoCorasick, RepeatedAndSelfOverlappingPattern) {
  AhoCorasick ac;
  ac.add_pattern(to_bytes("aa"), 1);
  ac.build();
  auto matches = ac.match(to_bytes("aaaa"));
  EXPECT_EQ(matches.size(), 3u);  // positions 2,3,4
}

TEST(AhoCorasick, BinaryPatterns) {
  AhoCorasick ac;
  Bytes pattern = {0x90, 0x90, 0x90, 0xcc};
  ac.add_pattern(pattern, 42);
  ac.build();
  Bytes haystack(100, 0);
  std::copy(pattern.begin(), pattern.end(), haystack.begin() + 50);
  auto matches = ac.match(haystack);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].pattern_id, 42);
  EXPECT_EQ(matches[0].end_offset, 54u);
}

TEST(AhoCorasick, EmptyTextAndNoPatterns) {
  AhoCorasick ac;
  ac.build();
  EXPECT_FALSE(ac.contains_any(to_bytes("anything")));
  AhoCorasick ac2;
  ac2.add_pattern(to_bytes("x"), 1);
  ac2.build();
  EXPECT_TRUE(ac2.match({}).empty());
}

TEST(AhoCorasick, EmptyPatternIgnored) {
  AhoCorasick ac;
  ac.add_pattern({}, 1);
  ac.add_pattern(to_bytes("real"), 2);
  ac.build();
  EXPECT_EQ(ac.pattern_count(), 1u);
}

TEST(AhoCorasick, AddAfterBuildThrows) {
  AhoCorasick ac;
  ac.build();
  EXPECT_THROW(ac.add_pattern(to_bytes("x"), 1), std::logic_error);
}

TEST(AhoCorasick, MatchMultiAgreesWithPerTextMatch) {
  // Property: the interleaved multi-stream walk reports, per stream,
  // exactly the matches (ids, offsets, order) of a solo match() over
  // that stream — across mixed lengths, empty texts and >16 streams
  // (several lane groups).
  Rng rng(0xac);
  AhoCorasick automaton;
  auto rules = generate_community_ruleset(53, rng);
  int id = 0;
  for (const auto& rule : rules)
    for (const auto& content : rule.contents) automaton.add_pattern(content.bytes, id++);
  automaton.add_pattern(to_bytes("xyz"), id++);
  automaton.add_pattern(to_bytes("yzx"), id++);
  automaton.build();

  std::vector<Bytes> texts;
  for (std::size_t k = 0; k < 41; ++k) {
    Bytes text = rng.bytes(k * 37 % 600);
    // Sprinkle known patterns so matches actually occur.
    if (text.size() > 8 && k % 3 == 0) {
      Bytes evil = to_bytes("xyzxyz");
      std::copy(evil.begin(), evil.end(), text.begin() + 2);
    }
    texts.push_back(std::move(text));
  }
  texts.emplace_back();  // empty stream

  std::vector<ByteView> views(texts.begin(), texts.end());
  std::vector<std::vector<AcMatch>> multi(views.size());
  std::size_t total = automaton.match_multi(views, [&](std::size_t s, const AcMatch& m) {
    multi[s].push_back(m);
    return true;
  });

  std::size_t expected_total = 0;
  for (std::size_t s = 0; s < texts.size(); ++s) {
    auto solo = automaton.match(texts[s]);
    expected_total += solo.size();
    ASSERT_EQ(multi[s].size(), solo.size()) << "stream " << s;
    for (std::size_t k = 0; k < solo.size(); ++k) {
      EXPECT_EQ(multi[s][k].pattern_id, solo[k].pattern_id);
      EXPECT_EQ(multi[s][k].end_offset, solo[k].end_offset);
    }
  }
  EXPECT_EQ(total, expected_total);
  EXPECT_GT(total, 0u);
}

TEST(IdpsEngine, InspectBatchAgreesWithPerPacketInspect) {
  Rng rng(0xeb);
  IdpsEngine a(generate_community_ruleset(61, rng));
  Rng rng2(0xeb);
  IdpsEngine b(generate_community_ruleset(61, rng2));

  std::vector<Packet> packets;
  for (std::size_t k = 0; k < 40; ++k) {
    Packet p = Packet::udp(Ipv4(10, 8, 0, 2), Ipv4(10, 0, 0, 1),
                           static_cast<std::uint16_t>(1000 + k), 80,
                           rng.bytes(30 + k * 13 % 400));
    packets.push_back(std::move(p));
  }

  std::vector<IdpsVerdict> single;
  IdpsEngine::InspectScratch single_scratch;
  for (const Packet& p : packets)
    single.push_back(a.inspect(p, p.payload, single_scratch));

  std::vector<const Packet*> ptrs;
  std::vector<ByteView> payloads;
  for (const Packet& p : packets) {
    ptrs.push_back(&p);
    payloads.push_back(p.payload);
  }
  std::vector<IdpsVerdict> batch(packets.size());
  IdpsEngine::BatchScratch scratch;
  b.inspect_batch(ptrs, payloads, scratch, batch.data());

  for (std::size_t k = 0; k < packets.size(); ++k) {
    EXPECT_EQ(batch[k].matched, single[k].matched) << k;
    EXPECT_EQ(batch[k].drop, single[k].drop) << k;
    EXPECT_EQ(batch[k].sid, single[k].sid) << k;
  }
  const InspectStats& sa = single_scratch.stats;
  const InspectStats& sb = scratch.rules.stats;
  EXPECT_EQ(sa.packets_inspected, sb.packets_inspected);
  EXPECT_EQ(sa.alerts, sb.alerts);
  EXPECT_EQ(sa.drops, sb.drops);
}

TEST(AhoCorasick, EarlyExitStopsMatching) {
  AhoCorasick ac;
  ac.add_pattern(to_bytes("a"), 1);
  ac.build();
  int seen = 0;
  ac.match(to_bytes("aaaaa"), [&](const AcMatch&) { return ++seen < 2; });
  EXPECT_EQ(seen, 2);
}

TEST(AhoCorasick, MatchesEveryOccurrenceANaiveSearchFinds) {
  // Property: over a three-letter alphabet (deep failure chains, many
  // patterns that are suffixes of others) the automaton reports exactly
  // the (pattern, end offset) pairs an exhaustive search finds.
  Rng rng(0xa11ce);
  auto random_word = [&](std::size_t min_len, std::size_t max_len) {
    Bytes word(rng.uniform(min_len, max_len), 0);
    for (auto& b : word) b = static_cast<std::uint8_t>('a' + rng.uniform(0, 2));
    return word;
  };
  for (int round = 0; round < 20; ++round) {
    AhoCorasick ac;
    std::vector<Bytes> patterns;
    for (int i = 0; i < 40; ++i) {
      patterns.push_back(random_word(1, 6));
      ac.add_pattern(patterns.back(), i);
    }
    ac.build();
    Bytes text = random_word(200, 400);
    std::multiset<std::pair<int, std::size_t>> want, got;
    for (std::size_t p = 0; p < patterns.size(); ++p)
      for (std::size_t end = patterns[p].size(); end <= text.size(); ++end)
        if (std::equal(patterns[p].begin(), patterns[p].end(),
                       text.begin() + static_cast<std::ptrdiff_t>(end - patterns[p].size())))
          want.emplace(static_cast<int>(p), end);
    for (const AcMatch& m : ac.match(text)) got.emplace(m.pattern_id, m.end_offset);
    EXPECT_EQ(got, want) << "round " << round;
  }
}

TEST(AhoCorasick, ManyPatternsStress) {
  AhoCorasick ac;
  for (int i = 0; i < 500; ++i) ac.add_pattern(to_bytes("pat" + std::to_string(i) + "x"), i);
  ac.build();
  EXPECT_EQ(ac.pattern_count(), 500u);
  EXPECT_TRUE(ac.contains_any(to_bytes("zzzpat123xzzz")));
  EXPECT_FALSE(ac.contains_any(to_bytes("pat123")));  // missing trailing x
}

// ---- Snort rule parsing -----------------------------------------------

TEST(SnortRules, ParsesFullRule) {
  auto rule = parse_snort_rule(
      R"(alert tcp $EXTERNAL_NET any -> $HOME_NET 80 (msg:"WEB attack"; content:"/bin/sh"; sid:1001;))");
  ASSERT_TRUE(rule.ok()) << rule.error();
  EXPECT_EQ(rule->action, RuleAction::Alert);
  EXPECT_EQ(*rule->proto, net::IpProto::Tcp);
  EXPECT_TRUE(rule->src.any);
  EXPECT_FALSE(rule->dst.any);
  EXPECT_EQ(rule->dst.prefix, 8u);
  EXPECT_EQ(rule->dst_port.port, 80);
  EXPECT_EQ(rule->msg, "WEB attack");
  ASSERT_EQ(rule->contents.size(), 1u);
  EXPECT_EQ(to_string(rule->contents[0].bytes), "/bin/sh");
  EXPECT_EQ(rule->sid, 1001u);
}

TEST(SnortRules, HexContentDecoding) {
  auto rule = parse_snort_rule(
      R"(alert tcp any any -> any any (content:"AB|00 01|CD"; sid:7;))");
  ASSERT_TRUE(rule.ok()) << rule.error();
  Bytes expected = {'A', 'B', 0x00, 0x01, 'C', 'D'};
  EXPECT_EQ(rule->contents[0].bytes, expected);
}

TEST(SnortRules, NocaseAndMultipleContents) {
  auto rule = parse_snort_rule(
      R"(drop udp any any -> any 53 (content:"evil"; nocase; content:"dns"; sid:9;))");
  ASSERT_TRUE(rule.ok()) << rule.error();
  EXPECT_EQ(rule->action, RuleAction::Drop);
  ASSERT_EQ(rule->contents.size(), 2u);
  EXPECT_TRUE(rule->contents[0].nocase);
  EXPECT_FALSE(rule->contents[1].nocase);
}

TEST(SnortRules, NegatedAddress) {
  auto rule = parse_snort_rule(
      R"(alert ip !10.0.0.0/8 any -> any any (content:"x"; sid:3;))");
  ASSERT_TRUE(rule.ok()) << rule.error();
  EXPECT_TRUE(rule->src.negated);
  EXPECT_TRUE(rule->src.matches(Ipv4(8, 8, 8, 8)));
  EXPECT_FALSE(rule->src.matches(Ipv4(10, 1, 2, 3)));
}

TEST(SnortRules, RejectsMalformed) {
  EXPECT_FALSE(parse_snort_rule("alert tcp any any -> any any").ok());   // no options
  EXPECT_FALSE(parse_snort_rule("alert tcp any -> any (sid:1;)").ok());  // short header
  EXPECT_FALSE(parse_snort_rule(
      "alert tcp any any -> any any (content:\"x\";)").ok());            // no sid
  EXPECT_FALSE(parse_snort_rule(
      "zap tcp any any -> any any (sid:1;)").ok());                      // bad action
  EXPECT_FALSE(parse_snort_rule(
      "alert tcp any any -> any any (content:\"|zz|\"; sid:1;)").ok());  // bad hex
  EXPECT_FALSE(parse_snort_rule(
      "alert tcp any any -> any any (nocase; sid:1;)").ok());            // dangling nocase
}

TEST(SnortRules, RulesetParsingSkipsCommentsAndBlanks) {
  auto rules = parse_snort_ruleset(
      "# community rules\n"
      "\n"
      "alert tcp any any -> any 80 (content:\"attack\"; sid:1;)\n"
      "alert udp any any -> any 53 (content:\"tunnel\"; sid:2;)\n");
  ASSERT_TRUE(rules.ok()) << rules.error();
  EXPECT_EQ(rules->size(), 2u);
}

TEST(SnortRules, RulesetReportsErrorLine) {
  auto rules = parse_snort_ruleset(
      "alert tcp any any -> any 80 (content:\"ok\"; sid:1;)\n"
      "garbage here\n");
  ASSERT_FALSE(rules.ok());
  EXPECT_NE(rules.error().find("line 2"), std::string::npos);
}

TEST(SnortRules, FormatRoundTrip) {
  Rng rng(1);
  auto rules = generate_community_ruleset(50, rng);
  for (const auto& rule : rules) {
    auto text = format_snort_rule(rule);
    auto back = parse_snort_rule(text);
    ASSERT_TRUE(back.ok()) << back.error() << "\n  rule: " << text;
    EXPECT_EQ(back->sid, rule.sid);
    ASSERT_EQ(back->contents.size(), rule.contents.size());
    for (std::size_t i = 0; i < rule.contents.size(); ++i)
      EXPECT_EQ(back->contents[i].bytes, rule.contents[i].bytes);
  }
}

TEST(SnortRules, GeneratorIsDeterministicAndSized) {
  Rng a(5), b(5);
  auto ra = generate_community_ruleset(377, a);
  auto rb = generate_community_ruleset(377, b);
  ASSERT_EQ(ra.size(), 377u);
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].sid, rb[i].sid);
    EXPECT_EQ(ra[i].contents[0].bytes, rb[i].contents[0].bytes);
  }
}

// ---- Engine ----------------------------------------------------------

SnortRule simple_rule(std::uint32_t sid, const std::string& content,
                      RuleAction action = RuleAction::Alert) {
  SnortRule rule;
  rule.action = action;
  rule.proto = net::IpProto::Udp;
  rule.contents.push_back({to_bytes(content), false});
  rule.sid = sid;
  return rule;
}

Packet udp_payload(const std::string& payload, std::uint16_t dport = 80) {
  return Packet::udp(Ipv4(10, 8, 0, 2), Ipv4(10, 0, 0, 1), 5555, dport,
                     to_bytes(payload));
}

/// Inspects `packet` with `scratch`, which keeps the engine's tally.
IdpsVerdict inspect(const IdpsEngine& engine, const Packet& packet,
                    IdpsEngine::InspectScratch& scratch) {
  return engine.inspect(packet, packet.payload, scratch);
}

TEST(Engine, AlertsOnContentMatch) {
  IdpsEngine engine({simple_rule(100, "exploit")});
  IdpsEngine::InspectScratch scratch;
  auto verdict = inspect(engine, udp_payload("this is an exploit attempt"), scratch);
  EXPECT_TRUE(verdict.matched);
  EXPECT_FALSE(verdict.drop);
  EXPECT_EQ(verdict.sid, 100u);
  EXPECT_EQ(scratch.stats.alerts, 1u);
}

TEST(Engine, DropRuleSetsDrop) {
  IdpsEngine engine({simple_rule(5, "malware", RuleAction::Drop)});
  IdpsEngine::InspectScratch scratch;
  auto verdict = inspect(engine, udp_payload("malware inside"), scratch);
  EXPECT_TRUE(verdict.drop);
  EXPECT_EQ(scratch.stats.drops, 1u);
}

TEST(Engine, NoMatchOnCleanTraffic) {
  IdpsEngine engine({simple_rule(5, "malware")});
  IdpsEngine::InspectScratch scratch;
  auto verdict = inspect(engine, udp_payload("completely benign data"), scratch);
  EXPECT_FALSE(verdict.matched);
  EXPECT_EQ(scratch.stats.alerts, 0u);
}

TEST(Engine, AllContentsMustMatch) {
  SnortRule rule = simple_rule(8, "alpha");
  rule.contents.push_back({to_bytes("beta"), false});
  IdpsEngine engine({rule});
  EXPECT_FALSE(engine.inspect(udp_payload("alpha only")).matched);
  EXPECT_FALSE(engine.inspect(udp_payload("beta only")).matched);
  EXPECT_TRUE(engine.inspect(udp_payload("alpha and beta")).matched);
}

TEST(Engine, HeaderConstraintsGateContentMatches) {
  SnortRule rule = simple_rule(9, "ssh");
  rule.dst_port.any = false;
  rule.dst_port.port = 22;
  IdpsEngine engine({rule});
  EXPECT_TRUE(engine.inspect(udp_payload("ssh probe", 22)).matched);
  EXPECT_FALSE(engine.inspect(udp_payload("ssh probe", 80)).matched);
}

TEST(Engine, ProtocolGate) {
  SnortRule rule = simple_rule(10, "data");
  rule.proto = net::IpProto::Tcp;
  IdpsEngine engine({rule});
  EXPECT_FALSE(engine.inspect(udp_payload("data")).matched);
  Packet tcp = Packet::tcp(Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 1, 2, 0, 0, 0,
                           to_bytes("data"));
  EXPECT_TRUE(engine.inspect(tcp).matched);
}

TEST(Engine, NocaseMatchesAnyCase) {
  SnortRule rule = simple_rule(11, "");
  rule.contents = {{to_bytes("attack"), true}};
  IdpsEngine engine({rule});
  EXPECT_TRUE(engine.inspect(udp_payload("ATTACK vector")).matched);
  EXPECT_TRUE(engine.inspect(udp_payload("AtTaCk vector")).matched);
}

TEST(Engine, CaseSensitiveDoesNotMatchWrongCase) {
  IdpsEngine engine({simple_rule(12, "attack")});
  EXPECT_FALSE(engine.inspect(udp_payload("ATTACK vector")).matched);
  EXPECT_TRUE(engine.inspect(udp_payload("attack vector")).matched);
}

TEST(Engine, FirstMatchingSidReported) {
  IdpsEngine engine({simple_rule(1, "foo"), simple_rule(2, "bar")});
  auto verdict = engine.inspect(udp_payload("xx bar yy"));
  EXPECT_EQ(verdict.sid, 2u);
}

TEST(Engine, CommunityRulesetCleanTrafficNoAlerts) {
  // Reproduces the evaluation property: the 377-rule community subset
  // fires on none of the generated benign packets.
  Rng rng(7);
  IdpsEngine engine(generate_community_ruleset(377, rng));
  EXPECT_EQ(engine.rule_count(), 377u);
  Rng traffic(8);
  IdpsEngine::InspectScratch scratch;
  for (int i = 0; i < 200; ++i) {
    Bytes payload(1400);
    for (auto& b : payload)
      b = static_cast<std::uint8_t>('a' + traffic.uniform(0, 25));
    auto verdict = inspect(
        engine,
        Packet::udp(Ipv4(10, 8, 0, 2), Ipv4(10, 0, 0, 1), 5555, 5001, payload),
        scratch);
    ASSERT_FALSE(verdict.matched) << "rule fired on benign payload, sid=" << verdict.sid;
  }
  EXPECT_EQ(scratch.stats.packets_inspected, 200u);
}

TEST(Engine, CommunityRulesetDetectsPlantedPattern) {
  Rng rng(7);
  auto rules = generate_community_ruleset(377, rng);
  IdpsEngine engine(rules);
  // Plant the first rule's content into an otherwise benign payload.
  Bytes payload = to_bytes("benign prefix ");
  append(payload, rules[0].contents.size() == 1 ? rules[0].contents[0].bytes
                                                : rules[0].contents[0].bytes);
  Packet p = Packet::udp(Ipv4(1, 2, 3, 4), Ipv4(5, 6, 7, 8), 1, 1, payload);
  if (rules[0].contents.size() == 1 && !rules[0].dst_port.any)
    p.dst_port = rules[0].dst_port.port;
  if (rules[0].contents.size() == 1 && rules[0].proto)
    p.proto = *rules[0].proto;
  // Only assert when the rule is single-content and proto/port line up.
  if (rules[0].contents.size() == 1) {
    auto verdict = engine.inspect(p);
    EXPECT_TRUE(verdict.matched);
    EXPECT_EQ(verdict.sid, rules[0].sid);
  }
}

}  // namespace
}  // namespace endbox::idps
