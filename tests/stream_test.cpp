// Stream-aware inspection tests: the CTX chain (CTXManager -> TCPIn ->
// IDSMatcher -> TCPOut), the tail-carry stream scan, split-payload
// evasion coverage (the regression the per-packet matcher misses),
// property equivalence against a concatenate-then-rescan model, stream
// state bounds under hostile flows, reshard migration of live stream
// contexts, lane-count determinism, and the enclave-level STREAM+IDPS
// use case. This suite also runs under TSan and ASan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "click/router.hpp"
#include "click/sharded_router.hpp"
#include "click/standard_elements.hpp"
#include "elements/context.hpp"
#include "elements/ctx_manager.hpp"
#include "elements/device.hpp"
#include "elements/ids_matcher.hpp"
#include "elements/tcp_stream.hpp"
#include "endbox_world.hpp"
#include "idps/engine.hpp"
#include "idps/snort_rules.hpp"

namespace endbox {
namespace {

using click::PacketBatch;
using elements::CTXManager;
using elements::IDSMatcher;
using elements::TCPIn;
using elements::TCPOut;
using net::Ipv4;
using net::Packet;

constexpr std::uint8_t kAck = 0x10;

/// One TCP segment of the test flow (10.8.0.2:sport -> 10.0.0.1:80).
Packet seg(std::uint32_t seq, std::string_view data, std::uint16_t sport = 4242,
           std::uint8_t flags = kAck) {
  return Packet::tcp(Ipv4(10, 8, 0, 2), Ipv4(10, 0, 0, 1), sport, 80, seq, 0,
                     flags, to_bytes(data));
}

std::string stream_config(const std::string& ids_args,
                          const std::string& ctx_args = "") {
  return "from :: FromDevice; ctx :: CTXManager(" + ctx_args +
         "); tin :: TCPIn; ids :: IDSMatcher(" + ids_args +
         "); tout :: TCPOut; to :: ToDevice;"
         " from -> ctx -> tin -> ids -> tout -> to;"
         " tin[1] -> [1]to; ids[1] -> [1]to;";
}

std::string per_packet_config(const std::string& ids_args) {
  return "from :: FromDevice; ids :: IDSMatcher(" + ids_args +
         "); to :: ToDevice; from -> ids -> to; ids[1] -> [1]to;";
}

struct StreamFixture : ::testing::Test {
  Rng rng{17};
  tls::SessionKeyStore key_store;
  elements::ElementContext context;
  click::ElementRegistry registry;
  std::vector<std::pair<Packet, bool>> delivered;
  std::vector<idps::SnortRule> community, strict;  ///< as registered below

  StreamFixture() : registry(click::ElementRegistry::with_standard_elements()) {
    context.key_store = &key_store;
    context.trusted_time = [] { return sim::Time{0}; };
    context.untrusted_time = [] { return sim::Time{0}; };
    context.to_device = [this](Packet&& p, bool accepted) {
      delivered.emplace_back(std::move(p), accepted);
    };
    community = idps::generate_community_ruleset(100, rng);
    strict = *idps::parse_snort_ruleset(
        "drop ip any any -> any any (content:\"malware\"; sid:1;)\n"
        "alert ip any any -> any any (content:\"suspicious\"; sid:2;)\n");
    context.rulesets["community"] = community;
    context.rulesets["strict"] = strict;
    context.rulesets["multi"] = *idps::parse_snort_ruleset(
        "alert ip any any -> any any (content:\"alpha\"; content:\"bravo\"; "
        "sid:7;)\n");
    elements::register_endbox_elements(registry, context);
  }

  std::unique_ptr<click::Router> build(const std::string& config) {
    auto router = click::Router::from_config(config, registry);
    if (!router.ok()) throw std::runtime_error(router.error());
    return std::move(*router);
  }

  /// Accept/reject verdicts observed at ToDevice, oldest first.
  std::vector<bool> verdicts() const {
    std::vector<bool> out;
    for (const auto& [packet, accepted] : delivered) out.push_back(accepted);
    return out;
  }
};

// ---- The split-payload evasion, documented then closed -------------------

TEST_F(StreamFixture, PerPacketMatcherMissesSplitPayload) {
  // The regression this PR exists for: "malware" delivered as
  // "mal" + "ware" crosses two packets, so per-packet scanning sees
  // neither half match — both segments sail through a DROP ruleset.
  auto router = build(per_packet_config("RULESET strict, DROP"));
  router->push_to("from", seg(1000, "xx mal"));
  router->push_to("from", seg(1006, "ware yy"));
  EXPECT_EQ(verdicts(), (std::vector<bool>{true, true}));
  EXPECT_EQ(router->find_as<IDSMatcher>("ids")->matches(), 0u);
}

TEST_F(StreamFixture, StreamChainCatchesTwoSegmentStraddle) {
  auto router = build(stream_config("RULESET strict, DROP"));
  router->push_to("from", seg(1000, "xx mal"));
  router->push_to("from", seg(1006, "ware yy"));
  // First segment passed (nothing matched yet); the completing segment
  // is dropped with the same sid single-segment delivery would produce.
  EXPECT_EQ(verdicts(), (std::vector<bool>{true, false}));
  auto* ids = router->find_as<IDSMatcher>("ids");
  EXPECT_EQ(ids->matches(), 1u);
  EXPECT_EQ(ids->stream_evasions(), 1u);  // match began in an earlier segment
  EXPECT_EQ(ids->flows_killed(), 1u);
  // The killed flow stays dead: later segments drop without matching.
  router->push_to("from", seg(1013, "benign tail"));
  EXPECT_EQ(verdicts(), (std::vector<bool>{true, false, false}));
}

TEST_F(StreamFixture, ThreeWaySplitCaught) {
  auto router = build(stream_config("RULESET strict, DROP"));
  router->push_to("from", seg(0, "aa mal"));
  router->push_to("from", seg(6, "wa"));
  router->push_to("from", seg(8, "re bb"));
  EXPECT_EQ(verdicts(), (std::vector<bool>{true, true, false}));
  EXPECT_EQ(router->find_as<IDSMatcher>("ids")->stream_evasions(), 1u);
}

TEST_F(StreamFixture, OutOfOrderSplitCaught) {
  auto router = build(stream_config("RULESET strict, DROP"));
  // The SYN anchors the cursor at 1000 (the first packet seen defines
  // the stream start). The tail then arrives early and parks; the head
  // fills the hole and the released tail completes the pattern.
  router->push_to("from", seg(999, "", 4242, 0x02));
  router->push_to("from", seg(1006, "ware yy"));
  router->push_to("from", seg(1000, "xx mal"));
  EXPECT_EQ(verdicts(), (std::vector<bool>{true, true, false}));
  auto* ids = router->find_as<IDSMatcher>("ids");
  EXPECT_EQ(ids->matches(), 1u);
  EXPECT_EQ(ids->stream_evasions(), 1u);
  const auto& stats = router->find_as<CTXManager>("ctx")->stream_stats();
  EXPECT_EQ(stats.segments_parked, 1u);
  EXPECT_EQ(stats.segments_released, 1u);
  EXPECT_EQ(stats.bytes_buffered, 0u);  // released bytes are unaccounted
  EXPECT_EQ(stats.bytes_buffered_peak, 7u);
}

TEST_F(StreamFixture, OverlappingRetransmitScansBytesOnce) {
  // Alert-only: the flow lives on, so re-firing would be visible.
  auto router = build(stream_config("RULESET strict"));
  router->push_to("from", seg(0, "susp"));
  router->push_to("from", seg(2, "spicious!"));   // overlaps [2,4)
  router->push_to("from", seg(0, "suspicious!")); // full retransmit
  auto* ids = router->find_as<IDSMatcher>("ids");
  EXPECT_EQ(ids->matches(), 1u);  // fired once, on the completing segment
  EXPECT_EQ(verdicts(), (std::vector<bool>{true, true, true}));
  // Retransmitted bytes contribute no new stream window.
  EXPECT_EQ(router->find_as<TCPIn>("tin")->in_order_bytes(), 11u);
}

TEST_F(StreamFixture, SynConsumesSequenceNumber) {
  auto router = build(stream_config("RULESET strict, DROP"));
  router->push_to("from", seg(999, "", 4242, 0x02));  // SYN, seq 999
  router->push_to("from", seg(1000, "malware"));
  EXPECT_EQ(verdicts(), (std::vector<bool>{true, false}));
  EXPECT_EQ(router->find_as<IDSMatcher>("ids")->matches(), 1u);
  // Single-segment content: no cross-segment match involved.
  EXPECT_EQ(router->find_as<IDSMatcher>("ids")->stream_evasions(), 0u);
}

TEST_F(StreamFixture, MultiContentRuleCompletesAcrossSegments) {
  auto router = build(stream_config("RULESET multi"));
  router->push_to("from", seg(0, ".. alpha .."));
  router->push_to("from", seg(11, "filler"));
  router->push_to("from", seg(17, ".. bravo .."));
  auto* ids = router->find_as<IDSMatcher>("ids");
  EXPECT_EQ(ids->matches(), 1u);  // fired when the second content landed
  // Hits persist per flow: more alphas complete nothing new.
  router->push_to("from", seg(28, "alpha alpha"));
  EXPECT_EQ(ids->matches(), 1u);
  EXPECT_EQ(ids->alerts(), 1u);
}

// ---- Stream rewriting ----------------------------------------------------

TEST_F(StreamFixture, MaskRewritesMatchedBytesSingleSegment) {
  auto router = build(stream_config("RULESET strict, MASK"));
  router->push_to("from", seg(0, "xx suspicious yy"));
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_TRUE(delivered[0].second);
  EXPECT_EQ(std::string(delivered[0].first.payload.begin(),
                        delivered[0].first.payload.end()),
            "xx XXXXXXXXXX yy");
}

TEST_F(StreamFixture, MaskRewritesCompletingChunkOfSplitMatch) {
  auto router = build(stream_config("RULESET strict, MASK"));
  router->push_to("from", seg(0, "xx susp"));
  router->push_to("from", seg(7, "icious yy"));
  ASSERT_EQ(delivered.size(), 2u);
  // Best effort: the first chunk already left before the match
  // completed; the completing chunk's share is rewritten.
  EXPECT_EQ(std::string(delivered[0].first.payload.begin(),
                        delivered[0].first.payload.end()),
            "xx susp");
  EXPECT_EQ(std::string(delivered[1].first.payload.begin(),
                        delivered[1].first.payload.end()),
            "XXXXXX yy");
}

// ---- Per-packet equivalence on single-segment flows ----------------------

TEST_F(StreamFixture, SingleSegmentFlowsMatchPerPacketReference) {
  // Each flow delivers its whole payload in one segment; the stream
  // path must be byte-identical to the per-packet reference path:
  // same verdict sequence, same match count, same engine statistics.
  auto make_packets = [&](Rng& r) {
    std::vector<Packet> packets;
    for (std::uint16_t i = 0; i < 60; ++i) {
      std::string payload(20 + r.uniform(0, 99), 'a');
      for (auto& c : payload) c = static_cast<char>('a' + r.uniform(0, 25));
      if (r.uniform(0, 3) == 0) payload.insert(payload.size() / 2, "malware");
      if (r.uniform(0, 3) == 1) payload.insert(0, "suspicious");
      packets.push_back(seg(100, payload, static_cast<std::uint16_t>(5000 + i)));
    }
    return packets;
  };
  Rng r1{99}, r2{99};

  auto stream_router = build(stream_config("RULESET strict, DROP"));
  for (auto& packet : make_packets(r1))
    stream_router->push_to("from", std::move(packet));
  auto stream_verdicts = verdicts();
  delivered.clear();

  auto reference = build(per_packet_config("RULESET strict, DROP"));
  for (auto& packet : make_packets(r2))
    reference->push_to("from", std::move(packet));

  EXPECT_EQ(stream_verdicts, verdicts());
  auto* s = stream_router->find_as<IDSMatcher>("ids");
  auto* p = reference->find_as<IDSMatcher>("ids");
  EXPECT_EQ(s->matches(), p->matches());
  EXPECT_EQ(s->alerts(), p->alerts());
  EXPECT_EQ(s->drops(), p->drops());
  EXPECT_EQ(s->stream_evasions(), 0u);  // nothing straddled
}

// ---- Randomized reassembly + stream-scan properties ----------------------

/// A segment plan: (offset, length) pairs covering [0, n) in order,
/// with random overlaps between consecutive segments.
std::vector<std::pair<std::size_t, std::size_t>> plan_segments(Rng& rng,
                                                               std::size_t n) {
  std::vector<std::pair<std::size_t, std::size_t>> plan;
  std::size_t pos = 0;
  while (pos < n) {
    std::size_t back = pos == 0 ? 0 : rng.uniform(0, std::min<std::size_t>(pos, 8));
    std::size_t start = pos - back;
    std::size_t end = std::min(n, pos + 1 + rng.uniform(0, 63));
    plan.emplace_back(start, end - start);
    pos = end;
  }
  return plan;
}

TEST_F(StreamFixture, ReassemblyReconstructsStreamUnderReordering) {
  // TCPIn's stream windows, concatenated in emission order, must equal
  // the original byte stream for arbitrary segmentation, overlap,
  // duplication and (fully random) reordering. The graph stops at
  // ToDevice before TCPOut so the window annotations stay readable.
  for (int round = 0; round < 20; ++round) {
    delivered.clear();
    auto router = build(
        "from :: FromDevice; ctx :: CTXManager(PARK_SEGS 1024, PARK_BYTES "
        "1048576); tin :: TCPIn; to :: ToDevice;"
        " from -> ctx -> tin -> to; tin[1] -> [1]to;");
    Bytes stream = rng.bytes(500 + rng.uniform(0, 1500));
    auto plan = plan_segments(rng, stream.size());
    // Duplicate a few segments, then shuffle everything.
    std::size_t dups = rng.uniform(0, 4);
    for (std::size_t d = 0; d < dups; ++d)
      plan.push_back(plan[rng.uniform(0, plan.size() - 1)]);
    for (std::size_t i = plan.size(); i > 1; --i)
      std::swap(plan[i - 1], plan[rng.uniform(0, i - 1)]);

    // Base sequence near the wrap point exercises serial arithmetic.
    std::uint32_t base = 0xffffff80u;
    // A zero-length anchor pins the cursor to `base` so the shuffled
    // first segment is not mistaken for the stream start.
    router->push_to("from", seg(base, ""));
    for (auto [off, len] : plan) {
      std::string data(stream.begin() + off, stream.begin() + off + len);
      router->push_to("from",
                      seg(base + static_cast<std::uint32_t>(off), data));
    }
    Bytes reassembled;
    for (const auto& [packet, accepted] : delivered) {
      ASSERT_TRUE(accepted);
      ASSERT_LE(packet.stream_off + packet.stream_len, packet.payload.size());
      reassembled.insert(reassembled.end(),
                         packet.payload.begin() + packet.stream_off,
                         packet.payload.begin() + packet.stream_off +
                             packet.stream_len);
    }
    ASSERT_EQ(reassembled, stream) << "round " << round;
    const auto& stats = router->find_as<CTXManager>("ctx")->stream_stats();
    EXPECT_EQ(stats.bytes_buffered, 0u) << "round " << round;
  }
}

TEST_F(StreamFixture, ResumableScanEqualsConcatenateThenRescan) {
  // Engine-level model check: scanning a stream chunk-by-chunk with
  // inspect_stream must agree with one inspect() over the whole
  // concatenated stream — same any-match verdict, same alert count
  // (each rule once), same drop effect — for random payloads with
  // planted rule contents and random chunk boundaries.
  const auto& rules = community;
  Packet probe = seg(0, "");
  for (int round = 0; round < 30; ++round) {
    Bytes stream = rng.bytes(200 + rng.uniform(0, 800));
    // Plant the full content list of a few random rules so multi-
    // content rules can complete (possibly across chunk boundaries).
    for (std::size_t p = 0; p < 1 + rng.uniform(0, 2); ++p) {
      const auto& rule = rules[rng.uniform(0, rules.size() - 1)];
      std::size_t at = rng.uniform(0, stream.size() - 1);
      for (const auto& content : rule.contents) {
        stream.insert(stream.begin() + at, content.bytes.begin(),
                      content.bytes.end());
        at += content.bytes.size() + rng.uniform(0, 20);
        at = std::min(at, stream.size());
      }
    }

    idps::IdpsEngine model(rules);
    idps::IdpsEngine::InspectScratch model_scratch;
    auto whole = model.inspect(probe, stream, model_scratch);

    idps::IdpsEngine streamed(rules);
    idps::IdpsEngine::InspectScratch scratch;
    idps::StreamMatchState state;
    bool any = false;
    std::uint32_t first_sid = 0;
    std::size_t pos = 0;
    while (pos < stream.size()) {
      std::size_t len = std::min<std::size_t>(stream.size() - pos,
                                              1 + rng.uniform(0, 40));
      auto verdict = streamed.inspect_stream(
          probe, ByteView(stream.data() + pos, len), state, scratch);
      if (verdict.matched && !any) {
        any = true;
        first_sid = verdict.sid;
      }
      pos += len;
    }
    EXPECT_EQ(any, whole.matched) << "round " << round;
    EXPECT_EQ(scratch.stats.alerts, model_scratch.stats.alerts) << "round " << round;
    // first_sid is deliberately NOT compared against whole.sid here:
    // stream mode reports the rule whose last content lands in the
    // earliest chunk, which can differ from the whole-buffer walk's
    // lowest-rule-index pick when several rules complete in different
    // chunks. Single-rule sid equality is asserted in the split tests.
    if (whole.matched) {
      EXPECT_NE(first_sid, 0u) << "round " << round;
    }
  }
}

TEST_F(StreamFixture, StreamBatchEqualsSequentialStreamCalls) {
  // inspect_stream_batch must be verdict-identical to per-chunk
  // inspect_stream in burst order, even
  // when one flow contributes several chunks to the same burst.
  const auto& rules = strict;
  Packet probe = seg(0, "");
  for (int round = 0; round < 20; ++round) {
    // 3 flows, interleaved chunks; flow 0 carries a straddled pattern.
    std::vector<std::string> flows[3];
    flows[0] = {"xx mal", "ware yy", "tail"};
    flows[1] = {"benign", " data ", "suspi", "cious"};
    flows[2] = {"no", "thing", " here"};
    struct Chunk {
      std::size_t flow;
      std::string data;
    };
    std::vector<Chunk> order;
    std::size_t next[3] = {0, 0, 0};
    Rng shuffle_rng(static_cast<std::uint64_t>(round) + 1);
    while (order.size() < flows[0].size() + flows[1].size() + flows[2].size()) {
      std::size_t f = shuffle_rng.uniform(0, 2);
      if (next[f] < flows[f].size()) order.push_back({f, flows[f][next[f]++]});
    }

    idps::IdpsEngine sequential(rules);
    idps::IdpsEngine::InspectScratch scratch;
    idps::StreamMatchState seq_states[3];
    std::vector<idps::IdpsVerdict> expected;
    for (const Chunk& c : order)
      expected.push_back(sequential.inspect_stream(probe, to_bytes(c.data),
                                                   seq_states[c.flow], scratch));

    idps::IdpsEngine batched(rules);
    idps::IdpsEngine::BatchScratch batch_scratch;
    idps::StreamMatchState batch_states[3];
    std::vector<Bytes> storage;
    for (const Chunk& c : order) storage.push_back(to_bytes(c.data));
    std::vector<const Packet*> packets(order.size(), &probe);
    std::vector<ByteView> chunks;
    std::vector<idps::StreamMatchState*> states;
    for (std::size_t i = 0; i < order.size(); ++i) {
      chunks.push_back(storage[i]);
      states.push_back(&batch_states[order[i].flow]);
    }
    std::vector<idps::IdpsVerdict> got(order.size());
    batched.inspect_stream_batch({packets.data(), packets.size()},
                                 {chunks.data(), chunks.size()},
                                 {states.data(), states.size()}, batch_scratch,
                                 got.data());
    for (std::size_t i = 0; i < order.size(); ++i) {
      EXPECT_EQ(got[i].matched, expected[i].matched) << i;
      EXPECT_EQ(got[i].drop, expected[i].drop) << i;
      EXPECT_EQ(got[i].sid, expected[i].sid) << i;
    }
    EXPECT_EQ(batch_scratch.rules.stats.alerts, scratch.stats.alerts);
    EXPECT_EQ(batch_scratch.rules.stats.drops, scratch.stats.drops);
    for (std::size_t f = 0; f < 3; ++f) {
      EXPECT_EQ(batch_states[f].prefilter_tail, seq_states[f].prefilter_tail);
      EXPECT_EQ(batch_states[f].cross_segment_matches,
                seq_states[f].cross_segment_matches);
    }
  }
}

// ---- Bounds: a hostile flow cannot pin lane memory -----------------------

TEST_F(StreamFixture, HostileFloodIsBoundedAndDropped) {
  auto router = build(
      stream_config("RULESET strict, DROP", "PARK_SEGS 8, PARK_BYTES 4096"));
  // Anchor the cursor, then send only far-future segments: the hole at
  // the cursor never fills, so everything parks until the caps bite.
  router->push_to("from", seg(0, ""));
  std::size_t sent = 0;
  for (std::uint32_t i = 1; i <= 100; ++i) {
    router->push_to("from", seg(i * 1000, std::string(100, 'z')));
    ++sent;
  }
  const auto& stats = router->find_as<CTXManager>("ctx")->stream_stats();
  EXPECT_LE(stats.bytes_buffered, 4096u);
  EXPECT_LE(stats.bytes_buffered_peak, 4096u);
  EXPECT_EQ(stats.segments_parked, 8u);
  EXPECT_EQ(stats.segments_dropped_overflow, sent - 8);
  // Overflow exits output 1 marked dropped — never forwarded unscanned.
  std::size_t rejected = 0;
  for (const auto& [packet, accepted] : delivered)
    if (!accepted) ++rejected;
  EXPECT_EQ(rejected, sent - 8);
}

TEST_F(StreamFixture, CtxTableCapacityDegradesToPerPacketPath) {
  auto router = build(stream_config("RULESET strict, DROP", "CAPACITY 4"));
  // 8 flows each straddle "malware" across two segments. The first 4
  // get contexts and are caught; the rest fall back to per-packet
  // scanning (the documented miss) instead of being disrupted.
  for (std::uint16_t f = 0; f < 8; ++f) {
    router->push_to("from", seg(0, "xx mal", static_cast<std::uint16_t>(6000 + f)));
    router->push_to("from", seg(6, "ware yy", static_cast<std::uint16_t>(6000 + f)));
  }
  auto* ids = router->find_as<IDSMatcher>("ids");
  auto* ctx = router->find_as<CTXManager>("ctx");
  EXPECT_EQ(ids->matches(), 4u);
  EXPECT_EQ(ctx->flows_tracked(), 4u);
  // Both segments of each untracked flow retry the insert.
  EXPECT_EQ(ctx->table_stats().rejected_full, 8u);
  std::size_t rejected = 0;
  for (const auto& [packet, accepted] : delivered)
    if (!accepted) ++rejected;
  EXPECT_EQ(rejected, 4u);  // only the tracked flows' completing segments
}

TEST_F(StreamFixture, ParkedSegmentsExpireAtAgeHorizon) {
  auto router = build(
      stream_config("RULESET strict", "PARK_AGE 16"));
  router->push_to("from", seg(0, ""));            // anchor flow A
  router->push_to("from", seg(5000, "stalled"));  // parked: hole at 0
  // Other-lane traffic ages flow A's parked segment past the horizon.
  for (std::uint16_t i = 0; i < 20; ++i)
    router->push_to("from", seg(0, "b", static_cast<std::uint16_t>(7000 + i)));
  // Next touch of flow A sweeps the stale parking lot.
  router->push_to("from", seg(0, ""));
  const auto& stats = router->find_as<CTXManager>("ctx")->stream_stats();
  EXPECT_EQ(stats.segments_expired_age, 1u);
  EXPECT_EQ(stats.bytes_buffered, 0u);
}

TEST_F(StreamFixture, IdleContextExpiryReleasesBufferedBytes) {
  auto router = build(
      stream_config("RULESET strict", "CAPACITY 64, IDLE_PKTS 8"));
  router->push_to("from", seg(0, ""));
  router->push_to("from", seg(5000, "stalled"));  // 7 bytes parked
  auto* ctx = router->find_as<CTXManager>("ctx");
  EXPECT_EQ(ctx->stream_stats().bytes_buffered, 7u);
  // Flow A goes idle while other flows keep the lane clock moving.
  for (std::uint16_t i = 0; i < 30; ++i)
    router->push_to("from", seg(0, "b", static_cast<std::uint16_t>(7100 + i)));
  EXPECT_GE(ctx->stream_stats().flows_expired, 1u);
  EXPECT_EQ(ctx->stream_stats().bytes_buffered, 0u);
  EXPECT_GE(ctx->table_stats().expired_idle, 1u);
}

// ---- Burst path ----------------------------------------------------------

TEST_F(StreamFixture, BatchPathCatchesStraddlesWithinOneBurst) {
  // Two flows, each splitting a pattern across two segments, all four
  // in ONE burst: the round scheduler must chain same-flow chunks so
  // the straddle still matches (and verdicts equal the per-packet
  // push path).
  auto router = build(stream_config("RULESET strict, DROP"));
  PacketBatch batch;
  batch.push_back(seg(0, "xx mal", 6001));
  batch.push_back(seg(0, "yy mal", 6002));
  batch.push_back(seg(6, "ware !", 6001));
  batch.push_back(seg(6, "ware ?", 6002));
  router->push_batch_to("from", std::move(batch));
  EXPECT_EQ(verdicts(), (std::vector<bool>{true, true, false, false}));
  auto* ids = router->find_as<IDSMatcher>("ids");
  EXPECT_EQ(ids->matches(), 2u);
  EXPECT_EQ(ids->stream_evasions(), 2u);
}

TEST_F(StreamFixture, BurstDoesNotRescanFlowKilledEarlierInIt) {
  // The flow's first segment fires the Drop rule; its second segment
  // (which alone would fire the Alert rule) belongs to a dead flow and
  // must not be scanned, counted or masked — whether it arrives in the
  // same burst or in the next one.
  struct Outcome {
    std::vector<bool> verdicts;
    std::uint64_t chunks, bytes, matches, alerts;
    Bytes second_payload;
  };
  for (const char* args : {"RULESET strict, DROP", "RULESET strict, DROP, MASK"}) {
    auto run = [&](bool one_burst) {
      delivered.clear();
      auto router = build(stream_config(args));
      PacketBatch first, second;
      first.push_back(seg(0, "xx malware"));
      (one_burst ? first : second).push_back(seg(10, "yy suspicious"));
      router->push_batch_to("from", std::move(first));
      router->push_batch_to("from", std::move(second));
      auto* ids = router->find_as<IDSMatcher>("ids");
      return Outcome{verdicts(), ids->stream_chunks(), ids->bytes_scanned(),
                     ids->matches(), ids->alerts(),
                     delivered.at(1).first.payload};
    };
    Outcome burst = run(true), ones = run(false);
    SCOPED_TRACE(args);
    EXPECT_EQ(burst.verdicts, (std::vector<bool>{false, false}));
    EXPECT_EQ(burst.verdicts, ones.verdicts);
    EXPECT_EQ(burst.chunks, 1u);
    EXPECT_EQ(burst.chunks, ones.chunks);
    EXPECT_EQ(burst.bytes, ones.bytes);
    EXPECT_EQ(burst.matches, ones.matches);
    EXPECT_EQ(burst.alerts, ones.alerts);
    EXPECT_EQ(to_string(burst.second_payload), "yy suspicious");
    EXPECT_EQ(burst.second_payload, ones.second_payload);
  }
}

// ---- Lane layer: reshard migration and determinism -----------------------

struct StreamShardHarness {
  struct Rig {
    elements::ElementContext context;
    click::ElementRegistry registry;
    std::vector<std::pair<std::uint32_t, bool>> results;  // (tag, accepted)
    Rig() : registry(elements::make_endbox_registry(context)) {}
  };

  tls::SessionKeyStore store;
  idps::RuleSets rulesets;  ///< one compiled set for every lane, as in the enclave
  std::vector<std::unique_ptr<Rig>> rigs;
  std::unique_ptr<click::ShardedRouter> router;

  StreamShardHarness(const std::string& config, std::size_t shards) {
    rulesets["strict"] = *idps::parse_snort_ruleset(
        "drop ip any any -> any any (content:\"malware\"; sid:1;)\n");
    auto built = click::ShardedRouter::create(config, shards, factory());
    if (!built.ok()) throw std::runtime_error(built.error());
    router = std::move(*built);
  }

  click::ShardedRouter::RouterFactory factory() {
    return [this](std::size_t i, const std::string& cfg) {
      while (rigs.size() <= i) {
        auto rig = std::make_unique<Rig>();
        rig->context.key_store = &store;
        rig->context.rulesets = rulesets;
        rig->context.trusted_time = [] { return sim::Time{0}; };
        rig->context.untrusted_time = [] { return sim::Time{0}; };
        Rig* raw = rig.get();
        rig->context.to_device = [raw](net::Packet&& packet, bool accepted) {
          raw->results.emplace_back(packet.burst_tag, accepted);
        };
        rigs.push_back(std::move(rig));
      }
      return click::Router::from_config(cfg, rigs[i]->registry);
    };
  }

  std::vector<bool> run_burst(PacketBatch&& batch) {
    std::uint32_t tag = 0;
    for (net::Packet& packet : batch) packet.burst_tag = tag++;
    for (auto& rig : rigs) rig->results.clear();
    if (!router->push_batch_to("from_device", std::move(batch)))
      throw std::runtime_error("push_batch_to failed");
    std::vector<std::pair<std::uint32_t, bool>> merged;
    for (auto& rig : rigs)
      for (auto& r : rig->results) merged.push_back(r);
    std::sort(merged.begin(), merged.end());
    std::vector<bool> verdicts;
    for (auto& [t, accepted] : merged) verdicts.push_back(accepted);
    return verdicts;
  }

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

std::string sharded_stream_config(const std::string& ctx_args = "") {
  return "from_device :: FromDevice; ctx :: CTXManager(" + ctx_args +
         "); tin :: TCPIn;"
         " ids :: IDSMatcher(RULESET strict, DROP); tout :: TCPOut;"
         " to_device :: ToDevice;"
         " from_device -> ctx -> tin -> ids -> tout -> to_device;"
         " tin[1] -> [1]to_device; ids[1] -> [1]to_device;";
}

TEST(StreamSharding, ReshardMigratesLiveStreamContexts) {
  // The IDLE_PKTS 64 cases first push the lane clocks past the idle
  // horizon: a migrated context stamped on the new lane's clock before
  // the fold raises that clock would expire on the next packet.
  struct Case {
    std::string ctx_args;
    std::size_t from, to;
    int warmup_bursts;  ///< 64 UDP packets each, one flow per packet
  };
  for (const Case& c : {Case{"", 2, 3, 0}, Case{"IDLE_PKTS 64", 1, 2, 4},
                        Case{"IDLE_PKTS 64", 2, 3, 4},
                        Case{"IDLE_PKTS 64", 2, 1, 4}}) {
    SCOPED_TRACE("CTXManager(" + c.ctx_args + ") " + std::to_string(c.from) +
                 " -> " + std::to_string(c.to));
    StreamShardHarness harness(sharded_stream_config(c.ctx_args), c.from);
    constexpr std::uint16_t kFlows = 24;

    for (int b = 0; b < c.warmup_bursts; ++b) {
      PacketBatch warm;
      for (int i = 0; i < 64; ++i)
        warm.push_back(Packet::udp(Ipv4(10, 8, 0, 3), Ipv4(10, 0, 0, 1),
                                   static_cast<std::uint16_t>(9000 + 64 * b + i),
                                   53, to_bytes("warm")));
      harness.run_burst(std::move(warm));
    }

    // First halves: every flow has "mal" pending mid-stream.
    PacketBatch first;
    for (std::uint16_t f = 0; f < kFlows; ++f)
      first.push_back(seg(0, "xx mal", static_cast<std::uint16_t>(6000 + f)));
    auto v1 = harness.run_burst(std::move(first));
    EXPECT_TRUE(std::all_of(v1.begin(), v1.end(), [](bool a) { return a; }));

    // Reshard mid-stream: contexts must follow their flows to the lanes
    // they hash to under the new count.
    ASSERT_TRUE(harness.router->reshard(c.to).ok());
    EXPECT_GE(harness.sum<CTXManager>("ctx", [](const CTXManager& m) {
      return m.stream_stats().flows_migrated_in;
    }), 1u);

    // Second halves: the straddled pattern completes on the new lanes.
    PacketBatch second;
    for (std::uint16_t f = 0; f < kFlows; ++f)
      second.push_back(seg(6, "ware yy", static_cast<std::uint16_t>(6000 + f)));
    auto v2 = harness.run_burst(std::move(second));
    EXPECT_TRUE(std::none_of(v2.begin(), v2.end(), [](bool a) { return a; }));

    EXPECT_EQ(harness.sum<IDSMatcher>("ids", [](const IDSMatcher& m) {
      return m.matches();
    }), kFlows);
    EXPECT_EQ(harness.sum<IDSMatcher>("ids", [](const IDSMatcher& m) {
      return m.stream_evasions();
    }), kFlows);
  }
}

TEST(StreamSharding, HotSwapMovesContextsIntoTheNewTable) {
  // A hot-swap must build the successor's table with its own CAPACITY:
  // the live contexts move into it and new flows are admitted up to
  // the new bound.
  StreamShardHarness harness(sharded_stream_config("CAPACITY 4"), 1);
  auto ctx = [&] { return harness.router->shard(0).find_as<CTXManager>("ctx"); };
  auto flows = [](std::uint16_t base, std::string_view data) {
    PacketBatch batch;
    for (std::uint16_t f = 0; f < 10; ++f)
      batch.push_back(seg(0, data, static_cast<std::uint16_t>(base + f)));
    return batch;
  };
  harness.run_burst(flows(6000, "xx mal"));  // flows 6000-6003 get contexts
  ASSERT_EQ(ctx()->flows_tracked(), 4u);
  ASSERT_EQ(ctx()->table_stats().rejected_full, 6u);

  ASSERT_TRUE(harness.router->hot_swap(sharded_stream_config("CAPACITY 64")).ok());
  EXPECT_EQ(ctx()->flows_tracked(), 4u);
  harness.run_burst(flows(7000, "hello"));
  EXPECT_EQ(ctx()->flows_tracked(), 14u);
  EXPECT_EQ(ctx()->table_stats().rejected_full, 6u);

  // The four contexts carried their pending "mal" across the swap.
  PacketBatch second;
  for (std::uint16_t f = 0; f < 4; ++f)
    second.push_back(seg(6, "ware yy", static_cast<std::uint16_t>(6000 + f)));
  auto v = harness.run_burst(std::move(second));
  EXPECT_EQ(v, std::vector<bool>(4, false));
  EXPECT_EQ(harness.sum<IDSMatcher>("ids", [](const IDSMatcher& m) {
    return m.stream_evasions();
  }), 4u);
}

TEST(StreamSharding, VerdictsDeterministicAcrossLaneCounts) {
  // The same segment sequence must produce the same per-packet
  // verdict sequence at 1, 2, 4 and 8 lanes (per-flow order is the
  // contract; merged tag order exposes any divergence).
  auto make_bursts = [] {
    std::vector<PacketBatch> bursts;
    Rng rng{5};
    for (int b = 0; b < 4; ++b) {
      PacketBatch batch;
      for (int i = 0; i < 48; ++i) {
        std::uint16_t flow = static_cast<std::uint16_t>(6000 + rng.uniform(0, 11));
        std::uint32_t off = static_cast<std::uint32_t>(rng.uniform(0, 1));
        // Each flow repeatedly streams "malware!" split in two; only
        // in-sequence halves advance the stream.
        batch.push_back(seg(off * 4, off == 0 ? "malw" : "are!", flow));
      }
      bursts.push_back(std::move(batch));
    }
    return bursts;
  };

  std::vector<std::vector<bool>> per_count;
  for (std::size_t shards : {1u, 2u, 4u, 8u}) {
    StreamShardHarness harness(sharded_stream_config(), shards);
    std::vector<bool> all;
    for (auto& burst : make_bursts()) {
      auto v = harness.run_burst(std::move(burst));
      all.insert(all.end(), v.begin(), v.end());
    }
    per_count.push_back(std::move(all));
  }
  for (std::size_t i = 1; i < per_count.size(); ++i)
    EXPECT_EQ(per_count[i], per_count[0]) << "lane count index " << i;
}

// ---- Enclave end-to-end --------------------------------------------------

TEST(StreamEnclave, StreamIdpsUseCaseCatchesSplitPayloadEgress) {
  testing::World world;
  auto bundle = world.publish(UseCase::StreamIdps);
  auto& client = world.add_client(bundle);
  auto& enclave = client.enclave();

  // Rule 2 of the generated community set is single-content with no
  // header constraints (endbox_test relies on the same fact). Split
  // its content across two in-order segments.
  const Bytes& content = world.community_rules[2].contents[0].bytes;
  ASSERT_GE(content.size(), 2u);
  std::string head(content.begin(), content.begin() + content.size() / 2);
  std::string tail(content.begin() + content.size() / 2, content.end());

  auto first = client.send_packet(seg(0, "xx " + head), 0);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->accepted);
  auto second = client.send_packet(
      seg(static_cast<std::uint32_t>(3 + head.size()), tail + " yy"), 0);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->accepted);

  auto stats = enclave.stream_stats();
  EXPECT_EQ(stats.flows_tracked, 1u);
  EXPECT_EQ(stats.flows_classified, 1u);
  EXPECT_EQ(stats.evasions_caught, 1u);
  EXPECT_EQ(stats.flows_killed, 1u);
  EXPECT_EQ(stats.stream_chunks, 2u);
}

TEST(StreamEnclave, ShardedStreamStatsAggregateAcrossLanes) {
  testing::World world;
  auto bundle = world.publish(UseCase::StreamIdps);
  EndBoxClientOptions options;
  options.shards = 4;
  auto& client = world.add_client(bundle, options);
  auto& enclave = client.enclave();

  PacketBatch batch;
  for (std::uint16_t f = 0; f < 16; ++f)
    batch.push_back(seg(0, "benign stream data", static_cast<std::uint16_t>(6000 + f)));
  EgressBatch out;
  ASSERT_TRUE(enclave.ecall_process_egress_batch(std::move(batch), out).ok());
  EXPECT_EQ(out.accepted, 16u);

  auto stats = enclave.stream_stats();
  EXPECT_EQ(stats.flows_tracked, 16u);
  EXPECT_EQ(stats.flows_classified, 16u);
  EXPECT_EQ(stats.stream_chunks, 16u);
  EXPECT_EQ(stats.evasions_caught, 0u);
}

}  // namespace
}  // namespace endbox
