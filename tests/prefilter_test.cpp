// Adversarial property suite for the two-tier scanning engine: the
// Teddy-style literal prefilter's kernels (scalar SWAR vs SSSE3 vs
// AVX2, each specialised on the fragment width) must agree
// bit-for-bit, candidate windows must cover every planted occurrence
// (soundness — false negatives are correctness bugs), the fragment
// check must turn nibble aliases and clean alphanumeric filler into
// (almost) no windows, and the prefiltered
// inspect / inspect_batch / inspect_stream{,_batch} paths must be
// verdict-identical (match set, offsets, MASK bytes, once-per-flow
// firing) to a fallback engine — the same rules plus one 1-byte
// content, so the prefilter is off and every scan is one whole-buffer
// run — and to the naive std::search oracle (tests/oracle/) over
// randomized payloads, rule subsets and segmentations: literals
// straddling chunk boundaries, nocase literals in raw (unlowered)
// text, and the ENDBOX_FORCE_SCALAR dispatch override both ways.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/cpu_features.hpp"
#include "common/rng.hpp"
#include "idps/aho_corasick.hpp"
#include "idps/engine.hpp"
#include "idps/literal_prefilter.hpp"
#include "idps/snort_rules.hpp"
#include "oracle/naive_scanner.hpp"

namespace endbox::idps {
namespace {

using net::Ipv4;
using net::Packet;

std::vector<ByteView> views_of(const std::vector<Bytes>& patterns) {
  return {patterns.begin(), patterns.end()};
}

/// Every kernel the machine can actually run (scalar always).
std::vector<LiteralPrefilter::Kernel> available_kernels() {
  std::vector<LiteralPrefilter::Kernel> kernels{
      common::SimdLevel::Scalar};
  common::SimdLevel hw = common::hardware_simd_level();
  if (hw >= common::SimdLevel::Ssse3)
    kernels.push_back(common::SimdLevel::Ssse3);
  if (hw >= common::SimdLevel::Avx2)
    kernels.push_back(common::SimdLevel::Avx2);
  return kernels;
}

/// `patterns`' prefilter built once per available kernel, in
/// available_kernels() order (a built filter's kernel is fixed).
std::vector<LiteralPrefilter> filters_for(const std::vector<Bytes>& patterns,
                                          bool case_insensitive) {
  std::vector<LiteralPrefilter> filters;
  for (auto kernel : available_kernels()) {
    filters.emplace_back();
    filters.back().build(views_of(patterns), case_insensitive, kernel);
  }
  return filters;
}

/// RAII override of ENDBOX_FORCE_SCALAR for dispatch tests. Restores
/// the prior value so the CI leg that runs the whole binary under
/// ENDBOX_FORCE_SCALAR=1 stays forced for later tests.
struct ScopedForceScalar {
  ScopedForceScalar() {
    const char* prev = ::getenv("ENDBOX_FORCE_SCALAR");
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    ::setenv("ENDBOX_FORCE_SCALAR", "1", 1);
  }
  ~ScopedForceScalar() {
    if (had_prev_)
      ::setenv("ENDBOX_FORCE_SCALAR", prev_.c_str(), 1);
    else
      ::unsetenv("ENDBOX_FORCE_SCALAR");
  }
  bool had_prev_ = false;
  std::string prev_;
};

Packet probe_packet() {
  return Packet::udp(Ipv4(10, 8, 0, 2), Ipv4(10, 0, 0, 1), 4242, 80, {});
}

/// Plants the full content list of a few random rules into `payload`
/// at random positions (possibly adjacent/overlapping planted runs).
void plant_rules(const std::vector<SnortRule>& rules, Bytes& payload,
                 Rng& rng) {
  for (std::size_t p = 0; p < 1 + rng.uniform(0, 2); ++p) {
    const SnortRule& rule = rules[rng.uniform(0, rules.size() - 1)];
    std::size_t at =
        payload.empty() ? 0 : rng.uniform(0, payload.size() - 1);
    for (const auto& content : rule.contents) {
      payload.insert(payload.begin() + static_cast<std::ptrdiff_t>(at),
                     content.bytes.begin(), content.bytes.end());
      at += content.bytes.size() + rng.uniform(0, 16);
      at = std::min(at, payload.size());
    }
  }
}

/// The fallback engine's rule set: `rules` plus one rule with a 1-byte
/// content, which makes the prefilter unusable engine-wide. The extra
/// rule can never fire: its header wants TCP (the probes are UDP) and
/// its contents are built from byte 0xff, which scrub() removes from
/// every fuzz payload — so it adds no hits and no MASK bytes either.
std::vector<SnortRule> with_sub_width_content(std::vector<SnortRule> rules) {
  auto extra = parse_snort_rule(
      "alert tcp any any -> any 1 (content:\"|ff|\"; "
      "content:\"|ff fe ff fe|\"; sid:999999;)");
  if (!extra.ok()) throw std::runtime_error(extra.error());
  rules.push_back(*extra);
  return rules;
}

void scrub(Bytes& payload) { std::replace(payload.begin(), payload.end(), 0xff, 0xfe); }

void expect_verdict_eq(const IdpsVerdict& got, const IdpsVerdict& want,
                       const std::string& where) {
  EXPECT_EQ(got.matched, want.matched) << where;
  EXPECT_EQ(got.drop, want.drop) << where;
  EXPECT_EQ(got.sid, want.sid) << where;
}

// ---- LiteralPrefilter ---------------------------------------------------

TEST(LiteralPrefilter, KernelsAgreeBitForBit) {
  // The SWAR fallback, SSSE3 and AVX2 kernels implement one candidate
  // predicate — the nibble test plus the fragment check — specialised
  // on each fragment width; at W = 2, 3 and 4, case-sensitive and
  // nocase, over random texts seeded with fragments (including ones
  // straddling the 16B/32B block seams the SIMD kernels carry state
  // across) and texts drawn from the patterns' own bytes (dense nibble
  // candidates, most rejected by the check), they must produce
  // identical runs and candidate counts.
  Rng rng(42);
  auto kernels = available_kernels();
  for (std::size_t width : {2u, 3u, 4u}) {
    std::vector<Bytes> patterns = {
        to_bytes("malware"), to_bytes("/etc/passwd"), to_bytes("evil"),
        to_bytes(std::string("xxyz").substr(0, width)),
        to_bytes("powershell -enc")};
    Bytes alphabet;
    for (const Bytes& p : patterns) alphabet.insert(alphabet.end(), p.begin(), p.end());
    for (bool nocase : {false, true}) {
      auto filters = filters_for(patterns, nocase);
      ASSERT_TRUE(filters[0].usable());
      ASSERT_EQ(filters[0].fragment_width(), width);

      for (int round = 0; round < 200; ++round) {
        Bytes text = rng.bytes(rng.uniform(0, 200));
        if (round % 3 == 1)
          for (auto& b : text) b = alphabet[rng.uniform(0, alphabet.size() - 1)];
        if (round % 2 == 0 && !text.empty()) {
          const Bytes& p = patterns[rng.uniform(0, patterns.size() - 1)];
          std::size_t at = rng.uniform(0, text.size() - 1);
          // Truncate at the text end so partial fragments at the
          // boundary are exercised too.
          for (std::size_t j = 0; j < p.size() && at + j < text.size(); ++j)
            text[at + j] = p[j];
        }
        std::vector<CandidateRun> expected;
        std::size_t expected_count = 0;
        for (std::size_t k = 0; k < kernels.size(); ++k) {
          std::vector<CandidateRun> runs;
          std::size_t count = filters[k].find_runs(text, runs);
          if (k == 0) {
            expected = runs;
            expected_count = count;
          } else {
            std::string where = "W " + std::to_string(width) + " nocase " +
                                std::to_string(nocase) + " round " +
                                std::to_string(round) + " kernel " +
                                common::simd_level_name(kernels[k]);
            EXPECT_EQ(runs, expected) << where;
            EXPECT_EQ(count, expected_count) << where;
          }
        }
      }
    }
  }
}

TEST(LiteralPrefilter, OneBytePatternIsUnusable) {
  std::vector<Bytes> patterns = {to_bytes("longpattern"), to_bytes("X")};
  LiteralPrefilter filter;
  filter.build(views_of(patterns), false);
  EXPECT_FALSE(filter.usable());
}

TEST(LiteralPrefilter, EmptyPatternSetIsUsableAndClean) {
  LiteralPrefilter filter;
  filter.build({}, false);
  EXPECT_TRUE(filter.usable());
  std::vector<CandidateRun> runs;
  Bytes text = to_bytes("anything at all");
  EXPECT_EQ(filter.find_runs(text, runs), 0u);
  EXPECT_TRUE(runs.empty());
}

TEST(LiteralPrefilter, CaseInsensitiveMasksAdmitRawUppercase) {
  // The nocase filter scans RAW text: masks built from the lower-cased
  // pattern must fire on any case mixture of the literal.
  std::vector<Bytes> patterns = {to_bytes("malware")};
  for (const LiteralPrefilter& filter : filters_for(patterns, true)) {
    ASSERT_TRUE(filter.usable());
    for (const char* text : {"xx MALWARE yy", "xx MaLwArE yy", "malware"}) {
      Bytes raw = to_bytes(text);
      std::size_t at = std::string(text).find_first_of("mM");
      std::vector<CandidateRun> runs;
      filter.find_runs(raw, runs);
      bool covered = false;
      for (const CandidateRun& run : runs)
        covered |= run.begin <= at && at + 7 <= run.end;
      EXPECT_TRUE(covered) << text << " kernel "
                           << common::simd_level_name(filter.kernel());
    }
  }
}

TEST(LiteralPrefilter, TextShorterThanFragmentHasNoCandidates) {
  std::vector<Bytes> patterns = {to_bytes("abcd")};
  LiteralPrefilter filter;
  filter.build(views_of(patterns), false);
  ASSERT_EQ(filter.fragment_width(), 4u);
  std::vector<CandidateRun> runs;
  Bytes text = to_bytes("abc");
  EXPECT_EQ(filter.find_runs(text, runs), 0u);
  EXPECT_TRUE(runs.empty());
}

TEST(LiteralPrefilter, RunsCoverEveryPlantedOccurrence) {
  // Soundness at W = 2, 3 and 4, case-sensitive and nocase: every
  // occurrence of every pattern must lie wholly inside one candidate
  // run at every kernel — occurrences at offset 0, at the very end,
  // straddling a 16B/32B block seam, and back-to-back overlapping
  // plants. Nocase patterns (lower-cased, as the engine stores them)
  // are planted in random case, so the fragment check must fold the
  // raw bytes exactly as the bitmap's fragments were folded.
  Rng rng(7);
  const std::string alphabet = "abcdefghijklmnopqrstuvwxyz0123456789_/.-";
  for (std::size_t width : {2u, 3u, 4u}) {
    std::vector<Bytes> patterns;
    for (std::size_t p = 0; p < 20; ++p) {
      Bytes pattern(width + (p == 0 ? 0 : rng.uniform(0, 12)));
      for (auto& b : pattern)
        b = static_cast<std::uint8_t>(alphabet[rng.uniform(0, alphabet.size() - 1)]);
      patterns.push_back(pattern);
    }
    for (bool nocase : {false, true}) {
      auto filters = filters_for(patterns, nocase);
      ASSERT_TRUE(filters[0].usable());
      ASSERT_EQ(filters[0].fragment_width(), width);

      for (int round = 0; round < 150; ++round) {
        Bytes text = rng.bytes(40 + rng.uniform(0, 160));
        std::vector<std::pair<std::size_t, const Bytes*>> spans;
        for (int plant = 0; plant < 4; ++plant) {
          const Bytes& p = patterns[rng.uniform(0, patterns.size() - 1)];
          std::size_t at = rng.uniform(0, text.size() - p.size());
          if (plant == 0) {
            at = 0;
          } else if (plant == 1) {
            at = text.size() - p.size();
          } else if (plant == 2) {
            // Start 1..len-1 bytes before a multiple of 16.
            std::size_t seam = 16 * (1 + rng.uniform(0, text.size() / 16 - 1));
            at = std::min(seam - 1 - rng.uniform(0, p.size() - 2),
                          text.size() - p.size());
          }
          for (std::size_t j = 0; j < p.size(); ++j) {
            std::uint8_t b = p[j];
            if (nocase && b >= 'a' && b <= 'z' && rng.uniform(0, 1) == 1) b ^= 0x20;
            text[at + j] = b;
          }
          spans.emplace_back(at, &p);
        }
        for (const LiteralPrefilter& filter : filters) {
          std::vector<CandidateRun> runs;
          filter.find_runs(text, runs);
          for (auto [at, p] : spans) {
            // A later plant may have clobbered this one — only intact
            // occurrences must be covered.
            if (!std::equal(p->begin(), p->end(),
                            text.begin() + static_cast<std::ptrdiff_t>(at),
                            [nocase](std::uint8_t want, std::uint8_t got) {
                              return want == (nocase ? ascii_lower(got) : got);
                            }))
              continue;
            std::size_t end = at + p->size();
            bool covered = false;
            for (const CandidateRun& run : runs)
              covered |= run.begin <= at && end <= run.end;
            EXPECT_TRUE(covered)
                << "W " << width << " nocase " << nocase << " round " << round
                << " span [" << at << "," << end << ") kernel "
                << common::simd_level_name(filter.kernel());
          }
        }
      }
    }
  }
}

TEST(LiteralPrefilter, NibbleAliasTextYieldsNoRun) {
  // Sixteen W-byte patterns f_k[j] = (k << 4) | ((k + j) & 15) sort in
  // k order, so bucket m holds f_2m and f_2m+1. The byte with f_2m[j]'s
  // high nibble and f_2m+1[j]'s low nibble passes bucket m's masks at
  // position j, so a text of such alias grams makes the nibble test
  // fire, yet it spells no fragment: the fragment check must reject
  // every candidate, at every kernel and width.
  Rng rng(83);
  for (std::size_t width : {2u, 3u, 4u}) {
    std::vector<Bytes> patterns(16, Bytes(width));
    for (std::size_t k = 0; k < 16; ++k)
      for (std::size_t j = 0; j < width; ++j)
        patterns[k][j] = static_cast<std::uint8_t>(k << 4 | ((k + j) & 15));
    auto filters = filters_for(patterns, false);
    ASSERT_TRUE(filters[0].usable());
    ASSERT_EQ(filters[0].fragment_width(), width);

    for (int round = 0; round < 50; ++round) {
      Bytes text;
      for (std::size_t g = 0; g < 10 + rng.uniform(0, 60); ++g) {
        std::size_t m = rng.uniform(0, 7);
        for (std::size_t j = 0; j < width; ++j)
          text.push_back(static_cast<std::uint8_t>(2 * m << 4 | ((2 * m + 1 + j) & 15)));
      }
      for (const Bytes& p : patterns)
        ASSERT_EQ(std::search(text.begin(), text.end(), p.begin(), p.end()), text.end());
      for (const LiteralPrefilter& filter : filters) {
        std::vector<CandidateRun> runs;
        EXPECT_EQ(filter.find_runs(text, runs), 0u)
            << "W " << width << " round " << round << " kernel "
            << common::simd_level_name(filter.kernel());
        EXPECT_TRUE(runs.empty());
      }
    }
  }
}

TEST(LiteralPrefilter, CommunityRulesClearAlphanumericFiller) {
  // The traffic shape of the benchmark's clean workload: seeded
  // alphanumeric filler, which no community content matches (each
  // holds a byte that is not alphanumeric). The case-sensitive and the
  // nocase filter, built as the engine builds them, each leave at most
  // 0.1 confirm windows per KiB of it at every kernel; the nibble test
  // alone left 6.3 and 1.0. Sampled over 1 MiB: at ~0.04 windows per
  // KiB a 64 KiB sample holds only a few windows, too few to resolve a
  // rate against a 0.1 bound.
  Rng rule_rng(7);
  std::vector<Bytes> cs_patterns, ci_patterns;
  for (const SnortRule& rule : generate_community_ruleset(377, rule_rng))
    for (const auto& content : rule.contents) {
      if (!content.nocase) {
        cs_patterns.push_back(content.bytes);
        continue;
      }
      Bytes lowered = content.bytes;
      for (auto& b : lowered) b = ascii_lower(b);
      ci_patterns.push_back(lowered);
    }
  const std::string alnum =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
  Rng rng(5);
  Bytes filler(1024 * 1024);
  for (auto& b : filler) b = static_cast<std::uint8_t>(alnum[rng.uniform(0, 61)]);
  for (bool nocase : {false, true}) {
    for (const LiteralPrefilter& filter :
         filters_for(nocase ? ci_patterns : cs_patterns, nocase)) {
      ASSERT_TRUE(filter.usable());
      std::vector<CandidateRun> runs;
      filter.find_runs(filler, runs);
      EXPECT_LE(static_cast<double>(runs.size()) / 1024.0, 0.1)
          << "nocase " << nocase << " kernel "
          << common::simd_level_name(filter.kernel());
    }
  }
}

// ---- Engine equivalence -------------------------------------------------

TEST(PrefilterEngine, InspectEqualsReferenceOnCommunityFuzz) {
  Rng rng(11);
  auto rules = generate_community_ruleset(150, rng);
  IdpsEngine engine(rules);
  IdpsEngine fallback(with_sub_width_content(rules));
  oracle::NaiveScanner naive(rules);
  ASSERT_TRUE(engine.prefilter_enabled());
  ASSERT_FALSE(fallback.prefilter_enabled());
  IdpsEngine::InspectScratch scratch, fallback_scratch;
  Packet probe = probe_packet();
  for (int round = 0; round < 150; ++round) {
    Bytes payload = rng.bytes(rng.uniform(0, 1600));
    if (round % 2 == 0) plant_rules(rules, payload, rng);
    scrub(payload);
    auto want = naive.inspect(probe, payload);
    std::string where = "round " + std::to_string(round);
    expect_verdict_eq(engine.inspect(probe, payload, scratch), want, where);
    expect_verdict_eq(fallback.inspect(probe, payload, fallback_scratch), want,
                      "fallback " + where);
  }
  EXPECT_EQ(scratch.stats.alerts, naive.alerts());
  EXPECT_EQ(scratch.stats.drops, naive.drops());
  EXPECT_EQ(fallback_scratch.stats.alerts, naive.alerts());
  EXPECT_EQ(fallback_scratch.stats.drops, naive.drops());
  // Clean rounds never entered the automaton, so the prefilter did
  // real screening work; the fallback engine ran one run per scan.
  EXPECT_GT(scratch.stats.prefiltered_bytes, 0u);
  EXPECT_EQ(scratch.stats.fallback_scans, 0u);
  EXPECT_EQ(fallback_scratch.stats.fallback_scans, 150u);
  EXPECT_EQ(fallback_scratch.stats.prefiltered_bytes, 0u);
}

TEST(PrefilterEngine, OneByteContentForcesFullWalkFallback) {
  // Regression for the sub-fragment-width literal: a 1-byte content
  // has no fragment, so a bucket miss would silently skip it — the
  // whole engine must fall back to the full walk and still match.
  auto rules = parse_snort_ruleset(
      "alert ip any any -> any any (content:\"Z\"; sid:1;)\n"
      "alert ip any any -> any any (content:\"longenough\"; sid:2;)\n");
  ASSERT_TRUE(rules.ok());
  IdpsEngine engine(*rules);
  EXPECT_FALSE(engine.prefilter_enabled());
  IdpsEngine::InspectScratch scratch;
  Packet probe = probe_packet();

  Bytes single = to_bytes("xx Z yy");
  auto verdict = engine.inspect(probe, single, scratch);
  EXPECT_TRUE(verdict.matched);
  EXPECT_EQ(verdict.sid, 1u);
  EXPECT_GT(scratch.stats.fallback_scans, 0u);
  EXPECT_EQ(scratch.stats.prefiltered_bytes, 0u);

  Bytes both = to_bytes("a longenough payload");
  verdict = engine.inspect(probe, both, scratch);
  EXPECT_TRUE(verdict.matched);

  // Stream path falls back too (and must still catch straddles via
  // the carried tail).
  StreamMatchState state;
  auto v1 = engine.inspect_stream(probe, to_bytes("tail is longe"), state,
                                  scratch);
  EXPECT_FALSE(v1.matched);
  auto v2 = engine.inspect_stream(probe, to_bytes("nough yes"), state, scratch);
  EXPECT_TRUE(v2.matched);
  EXPECT_EQ(v2.sid, 2u);
  EXPECT_EQ(state.cross_segment_matches, 1u);
}

TEST(PrefilterEngine, BatchEqualsPerPacketAndReference) {
  Rng rng(23);
  auto rules = generate_community_ruleset(120, rng);
  IdpsEngine batch_engine(rules);
  IdpsEngine single_engine(rules);
  IdpsEngine fallback(with_sub_width_content(rules));
  oracle::NaiveScanner naive(rules);
  IdpsEngine::BatchScratch batch_scratch, fallback_scratch;
  IdpsEngine::InspectScratch single_scratch;
  Packet probe = probe_packet();

  for (int round = 0; round < 20; ++round) {
    std::size_t n = 1 + rng.uniform(0, 31);
    std::vector<Bytes> storage(n);
    std::vector<ByteView> payloads(n);
    std::vector<const Packet*> packets(n, &probe);
    for (std::size_t i = 0; i < n; ++i) {
      storage[i] = rng.bytes(rng.uniform(0, 600));
      if (i % 3 == 0) plant_rules(rules, storage[i], rng);
      scrub(storage[i]);
      payloads[i] = storage[i];
    }
    std::vector<IdpsVerdict> got(n), fallback_got(n);
    batch_engine.inspect_batch({packets.data(), n}, {payloads.data(), n},
                               batch_scratch, got.data());
    fallback.inspect_batch({packets.data(), n}, {payloads.data(), n},
                           fallback_scratch, fallback_got.data());
    for (std::size_t i = 0; i < n; ++i) {
      std::string where =
          "round " + std::to_string(round) + " packet " + std::to_string(i);
      auto want = naive.inspect(probe, payloads[i]);
      expect_verdict_eq(got[i], want, where);
      expect_verdict_eq(fallback_got[i], want, "fallback " + where);
      expect_verdict_eq(single_engine.inspect(probe, payloads[i], single_scratch),
                        want, "single " + where);
    }
  }
  EXPECT_EQ(batch_scratch.rules.stats.alerts, naive.alerts());
  EXPECT_EQ(single_scratch.stats.alerts, naive.alerts());
  EXPECT_EQ(fallback_scratch.rules.stats.alerts, naive.alerts());
  EXPECT_EQ(batch_scratch.rules.stats.drops, naive.drops());
  EXPECT_EQ(fallback_scratch.rules.stats.drops, naive.drops());
}

TEST(PrefilterEngine, StreamEqualsReferenceOverRandomSegmentations) {
  // The tail-carry stream path with and without the prefilter vs the
  // naive whole-stream oracle, over random payloads with planted
  // contents and random chunk boundaries — cuts deliberately land
  // mid-pattern so the carried tail is what catches the straddle.
  // Verdicts, cross-segment counts, MASK bytes and once-per-flow
  // firing must all agree.
  Rng rng(31);
  auto rules = generate_community_ruleset(100, rng);
  IdpsEngine engine(rules);
  IdpsEngine fallback(with_sub_width_content(rules));
  oracle::NaiveScanner naive(rules);
  ASSERT_TRUE(engine.prefilter_enabled());
  ASSERT_FALSE(fallback.prefilter_enabled());
  IdpsEngine::InspectScratch scratch, fallback_scratch;
  Packet probe = probe_packet();

  for (int round = 0; round < 60; ++round) {
    Bytes stream = rng.bytes(100 + rng.uniform(0, 700));
    plant_rules(rules, stream, rng);
    scrub(stream);
    // Each engine masks its own copy. As in production, each mask
    // aliases the scanned chunk — the carried tail must hold the
    // unmasked original bytes or a straddling literal masked mid-way
    // would be lost.
    Bytes masked = stream, fallback_masked = stream, naive_masked = stream;

    StreamMatchState state, fallback_state;
    oracle::NaiveScanner::Flow flow;
    std::size_t pos = 0;
    while (pos < stream.size()) {
      std::size_t len = std::min<std::size_t>(stream.size() - pos,
                                              1 + rng.uniform(0, 48));
      std::string where = "round " + std::to_string(round) + " pos " + std::to_string(pos);
      auto want = naive.inspect_stream(probe, ByteView(stream.data() + pos, len),
                                       flow, {naive_masked.data() + pos, len});
      expect_verdict_eq(engine.inspect_stream(probe, ByteView(masked.data() + pos, len),
                                              state, scratch, {masked.data() + pos, len}),
                        want, where);
      expect_verdict_eq(
          fallback.inspect_stream(probe, ByteView(fallback_masked.data() + pos, len),
                                  fallback_state, fallback_scratch,
                                  {fallback_masked.data() + pos, len}),
          want, "fallback " + where);
      pos += len;
    }
    for (const StreamMatchState* st : {&state, &fallback_state}) {
      EXPECT_EQ(st->cross_segment_matches, flow.cross_segment_matches)
          << "round " << round;
      EXPECT_EQ(st->bytes_masked, flow.bytes_masked) << "round " << round;
      EXPECT_EQ(st->bytes_scanned, stream.size());
      // Once-per-flow firing: the completed rule sets must coincide.
      auto completed = st->completed;
      auto want_completed = flow.completed;
      std::sort(completed.begin(), completed.end());
      std::sort(want_completed.begin(), want_completed.end());
      EXPECT_EQ(completed, want_completed) << "round " << round;
    }
    EXPECT_EQ(masked, naive_masked) << "round " << round;
    EXPECT_EQ(fallback_masked, naive_masked) << "round " << round;
  }
  EXPECT_EQ(scratch.stats.alerts, naive.alerts());
  EXPECT_EQ(scratch.stats.drops, naive.drops());
  EXPECT_EQ(fallback_scratch.stats.alerts, naive.alerts());
  EXPECT_EQ(fallback_scratch.stats.drops, naive.drops());
}

TEST(PrefilterEngine, StreamBatchMatchesSequentialAtManyFlowCounts) {
  // inspect_stream_batch (prefilter on, and the fallback engine) must
  // equal the oracle's per-chunk verdicts in burst order for 1/2/4/8
  // interleaved flows, including several chunks of one flow inside one
  // burst.
  Rng rng(47);
  auto rules = generate_community_ruleset(80, rng);
  Packet probe = probe_packet();
  for (std::size_t flows : {1u, 2u, 4u, 8u}) {
    IdpsEngine batched(rules);
    IdpsEngine fallback(with_sub_width_content(rules));
    oracle::NaiveScanner naive(rules);
    IdpsEngine::BatchScratch batch_scratch, fallback_scratch;
    std::vector<StreamMatchState> batch_states(flows), fallback_states(flows);
    std::vector<oracle::NaiveScanner::Flow> naive_flows(flows);

    // Each flow is one payload with planted contents, cut into chunks;
    // bursts interleave the flows' next chunks round-robin-ish.
    std::vector<Bytes> streams(flows);
    std::vector<std::vector<ByteView>> flow_chunks(flows);
    for (std::size_t f = 0; f < flows; ++f) {
      streams[f] = rng.bytes(150 + rng.uniform(0, 300));
      plant_rules(rules, streams[f], rng);
      scrub(streams[f]);
      std::size_t pos = 0;
      while (pos < streams[f].size()) {
        std::size_t len = std::min<std::size_t>(streams[f].size() - pos,
                                                1 + rng.uniform(0, 40));
        flow_chunks[f].emplace_back(streams[f].data() + pos, len);
        pos += len;
      }
    }
    std::vector<std::size_t> next(flows, 0);
    std::vector<std::pair<std::size_t, ByteView>> order;
    bool remaining = true;
    while (remaining) {
      remaining = false;
      for (std::size_t f = 0; f < flows; ++f) {
        // Sometimes two chunks of one flow in a row -> same burst.
        std::size_t take = 1 + rng.uniform(0, 1);
        for (std::size_t t = 0; t < take && next[f] < flow_chunks[f].size();
             ++t)
          order.emplace_back(f, flow_chunks[f][next[f]++]);
        remaining |= next[f] < flow_chunks[f].size();
      }
    }

    std::vector<IdpsVerdict> expected;
    for (const auto& [f, chunk] : order)
      expected.push_back(naive.inspect_stream(probe, chunk, naive_flows[f]));

    // Deliver in bursts of up to 16.
    std::size_t done = 0;
    std::vector<IdpsVerdict> got(order.size()), fallback_got(order.size());
    while (done < order.size()) {
      std::size_t n = std::min<std::size_t>(16, order.size() - done);
      std::vector<const Packet*> packets(n, &probe);
      std::vector<ByteView> chunks(n);
      std::vector<StreamMatchState*> states(n), fb_states(n);
      for (std::size_t i = 0; i < n; ++i) {
        chunks[i] = order[done + i].second;
        states[i] = &batch_states[order[done + i].first];
        fb_states[i] = &fallback_states[order[done + i].first];
      }
      batched.inspect_stream_batch({packets.data(), n}, {chunks.data(), n},
                                   {states.data(), n}, batch_scratch,
                                   got.data() + done);
      fallback.inspect_stream_batch({packets.data(), n}, {chunks.data(), n},
                                    {fb_states.data(), n}, fallback_scratch,
                                    fallback_got.data() + done);
      done += n;
    }
    for (std::size_t i = 0; i < order.size(); ++i) {
      std::string where = std::to_string(flows) + " flows, chunk " + std::to_string(i);
      expect_verdict_eq(got[i], expected[i], where);
      expect_verdict_eq(fallback_got[i], expected[i], "fallback " + where);
    }
    EXPECT_EQ(batch_scratch.rules.stats.alerts, naive.alerts()) << flows << " flows";
    EXPECT_EQ(batch_scratch.rules.stats.drops, naive.drops()) << flows << " flows";
    EXPECT_EQ(fallback_scratch.rules.stats.alerts, naive.alerts()) << flows << " flows";
    for (std::size_t f = 0; f < flows; ++f) {
      EXPECT_EQ(batch_states[f].cross_segment_matches,
                naive_flows[f].cross_segment_matches)
          << flows << " flows, flow " << f;
      EXPECT_EQ(fallback_states[f].cross_segment_matches,
                naive_flows[f].cross_segment_matches)
          << flows << " flows, flow " << f;
      EXPECT_EQ(batch_states[f].bytes_scanned, streams[f].size());
    }
  }
}

TEST(PrefilterEngine, ForcedScalarDispatchMatchesSimd) {
  // The ENDBOX_FORCE_SCALAR override must pin the portable kernel at
  // engine construction — and the pinned engine must produce the same
  // verdicts as the hardware-dispatched one.
  Rng rng(59);
  auto rules = generate_community_ruleset(60, rng);
  IdpsEngine simd_engine(rules);
  EXPECT_EQ(simd_engine.cs_automaton().prefilter().kernel(),
            common::current_simd_level());

  ScopedForceScalar force;
  IdpsEngine scalar_engine(rules);
  EXPECT_EQ(scalar_engine.cs_automaton().prefilter().kernel(),
            common::SimdLevel::Scalar);
  EXPECT_EQ(scalar_engine.ci_automaton().prefilter().kernel(),
            common::SimdLevel::Scalar);

  IdpsEngine::InspectScratch a, b;
  Packet probe = probe_packet();
  for (int round = 0; round < 80; ++round) {
    Bytes payload = rng.bytes(rng.uniform(0, 1000));
    if (round % 2 == 0) plant_rules(rules, payload, rng);
    expect_verdict_eq(scalar_engine.inspect(probe, payload, a),
                      simd_engine.inspect(probe, payload, b),
                      "round " + std::to_string(round));
  }
  EXPECT_EQ(a.stats.alerts, b.stats.alerts);
}

TEST(PrefilterEngine, NocaseLiteralMatchesUppercaseRawPayload) {
  // Nocase contents are lowered into the masks; the raw (unlowered)
  // uppercase delivery must still be caught by the prefiltered path.
  auto rules = parse_snort_ruleset(
      "alert ip any any -> any any (content:\"malware\"; nocase; sid:9;)\n");
  ASSERT_TRUE(rules.ok());
  IdpsEngine engine(*rules);
  ASSERT_TRUE(engine.prefilter_enabled());
  IdpsEngine::InspectScratch scratch;
  Packet probe = probe_packet();
  for (const char* text : {"xx MALWARE yy", "xx MaLwArE yy", "malware!"}) {
    Bytes payload = to_bytes(text);
    auto verdict = engine.inspect(probe, payload, scratch);
    EXPECT_TRUE(verdict.matched) << text;
    EXPECT_EQ(verdict.sid, 9u) << text;
  }
  Bytes clean = to_bytes("nothing interesting here");
  EXPECT_FALSE(engine.inspect(probe, clean, scratch).matched);
}

TEST(PrefilterEngine, StreamStraddleAcrossTinyChunksIsCaught) {
  // 2-byte chunk delivery of a pattern: every chunk boundary lands
  // inside the literal, so only the carried tail can complete it.
  auto rules = parse_snort_ruleset(
      "drop ip any any -> any any (content:\"malware\"; sid:5;)\n");
  ASSERT_TRUE(rules.ok());
  IdpsEngine engine(*rules);
  ASSERT_TRUE(engine.prefilter_enabled());
  IdpsEngine::InspectScratch scratch;
  Packet probe = probe_packet();
  StreamMatchState state;
  std::string stream = "xxmalwareyy";
  bool matched = false;
  for (std::size_t pos = 0; pos < stream.size(); pos += 2) {
    std::string chunk = stream.substr(pos, 2);
    auto verdict = engine.inspect_stream(probe, to_bytes(chunk), state, scratch);
    matched |= verdict.matched;
  }
  EXPECT_TRUE(matched);
  EXPECT_EQ(state.cross_segment_matches, 1u);
  EXPECT_EQ(scratch.stats.drops, 1u);
}

}  // namespace
}  // namespace endbox::idps
