// Test oracle for the IDPS scanner: every content literal found by a
// plain case-folded std::search, rules evaluated in rule order (first
// firing sid wins, any firing Drop rule drops). No automaton and no
// prefilter, so it shares no code with the engine it checks. The stream
// variant keeps each flow's whole byte stream and reports what a
// scanner must: content hits ending in the new chunk (cross-segment
// counts and MASK bytes included) and each rule firing once per flow,
// on the chunk that completes it.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "idps/aho_corasick.hpp"
#include "idps/engine.hpp"
#include "idps/snort_rules.hpp"
#include "net/packet.hpp"

namespace endbox::oracle {

/// End offsets (one past the last byte) of every occurrence of
/// `needle` in `text`, overlapping ones included; `nocase` compares
/// ASCII case-folded.
inline std::vector<std::size_t> occurrences(ByteView text, ByteView needle,
                                            bool nocase) {
  std::vector<std::size_t> ends;
  if (needle.empty()) return ends;
  auto same = [nocase](std::uint8_t a, std::uint8_t b) {
    return nocase ? std::tolower(a) == std::tolower(b) : a == b;
  };
  for (auto it = text.begin();; ++it) {
    it = std::search(it, text.end(), needle.begin(), needle.end(), same);
    if (it == text.end()) break;
    ends.push_back(static_cast<std::size_t>(it - text.begin()) + needle.size());
  }
  return ends;
}

/// Every match of `patterns` (pattern id = index) in `text`, sorted by
/// end offset then id: the multiset an Aho-Corasick walk must report.
inline std::vector<idps::AcMatch> naive_matches(const std::vector<Bytes>& patterns,
                                                ByteView text) {
  std::vector<idps::AcMatch> matches;
  for (std::size_t p = 0; p < patterns.size(); ++p)
    for (std::size_t end : occurrences(text, patterns[p], false))
      matches.push_back({static_cast<int>(p), end});
  std::sort(matches.begin(), matches.end(), [](const auto& a, const auto& b) {
    return std::pair(a.end_offset, a.pattern_id) < std::pair(b.end_offset, b.pattern_id);
  });
  return matches;
}

class NaiveScanner {
 public:
  /// One flow's stream state: every byte so far, which (rule, content)
  /// pairs have occurred, the rules that completed, and the per-flow
  /// counters the engine keeps in StreamMatchState.
  struct Flow {
    Bytes stream;
    std::vector<std::vector<bool>> seen;
    std::vector<std::uint32_t> completed;
    std::uint64_t cross_segment_matches = 0;
    std::uint64_t bytes_masked = 0;
  };

  explicit NaiveScanner(std::vector<idps::SnortRule> rules) : rules_(std::move(rules)) {}

  /// Per-packet verdict: a rule fires when every content occurs in
  /// `payload` and its header constraints match `packet`.
  idps::IdpsVerdict inspect(const net::Packet& packet, ByteView payload) {
    idps::IdpsVerdict verdict;
    for (const idps::SnortRule& rule : rules_) {
      if (rule.contents.empty()) continue;
      bool all = std::all_of(rule.contents.begin(), rule.contents.end(),
                             [&](const idps::ContentPattern& content) {
                               return !occurrences(payload, content.bytes, content.nocase)
                                           .empty();
                             });
      if (all && header_matches(rule, packet)) fire(rule, verdict);
    }
    if (verdict.drop) ++drops_;
    return verdict;
  }

  /// Stream verdict for the flow's next chunk. When `mask` is non-empty
  /// it aliases the chunk and every content occurrence ending in the
  /// chunk is overwritten with 'X' (the part before the chunk is gone).
  idps::IdpsVerdict inspect_stream(const net::Packet& packet, ByteView chunk,
                                   Flow& flow, std::span<std::uint8_t> mask = {}) {
    std::size_t before = flow.stream.size();
    flow.stream.insert(flow.stream.end(), chunk.begin(), chunk.end());
    flow.seen.resize(rules_.size());
    for (std::size_t r = 0; r < rules_.size(); ++r) {
      const auto& contents = rules_[r].contents;
      flow.seen[r].resize(contents.size());
      for (std::size_t c = 0; c < contents.size(); ++c) {
        std::size_t plen = contents[c].bytes.size();
        // Only occurrences ending inside the chunk are new; they start
        // at most plen-1 bytes before it.
        std::size_t from = before + 1 > plen ? before + 1 - plen : 0;
        ByteView window = ByteView(flow.stream).subspan(from);
        for (std::size_t end : occurrences(window, contents[c].bytes, contents[c].nocase)) {
          std::size_t chunk_end = from + end - before;
          flow.seen[r][c] = true;
          if (chunk_end < plen) ++flow.cross_segment_matches;
          if (!mask.empty()) {
            std::size_t start = chunk_end > plen ? chunk_end - plen : 0;
            std::fill(mask.begin() + static_cast<std::ptrdiff_t>(start),
                      mask.begin() + static_cast<std::ptrdiff_t>(chunk_end), 'X');
            flow.bytes_masked += chunk_end - start;
          }
        }
      }
    }
    idps::IdpsVerdict verdict;
    for (std::uint32_t r = 0; r < rules_.size(); ++r) {
      const idps::SnortRule& rule = rules_[r];
      if (rule.contents.empty()) continue;
      if (std::find(flow.completed.begin(), flow.completed.end(), r) !=
          flow.completed.end())
        continue;
      if (std::find(flow.seen[r].begin(), flow.seen[r].end(), false) !=
          flow.seen[r].end())
        continue;
      // Header constraints are flow-constant: a completed rule whose
      // header does not match can never fire later in the flow.
      flow.completed.push_back(r);
      if (header_matches(rule, packet)) fire(rule, verdict);
    }
    if (verdict.drop) ++drops_;
    return verdict;
  }

  std::uint64_t alerts() const { return alerts_; }
  std::uint64_t drops() const { return drops_; }

 private:
  static bool header_matches(const idps::SnortRule& rule, const net::Packet& packet) {
    if (rule.proto && packet.proto != *rule.proto) return false;
    if (!rule.src.matches(packet.src) || !rule.dst.matches(packet.dst)) return false;
    if (packet.proto == net::IpProto::Icmp) return true;
    return rule.src_port.matches(packet.src_port) && rule.dst_port.matches(packet.dst_port);
  }

  void fire(const idps::SnortRule& rule, idps::IdpsVerdict& verdict) {
    if (!verdict.matched) {
      verdict.matched = true;
      verdict.sid = rule.sid;
    }
    if (rule.action == idps::RuleAction::Drop) verdict.drop = true;
    if (rule.action == idps::RuleAction::Alert) ++alerts_;
  }

  std::vector<idps::SnortRule> rules_;
  std::uint64_t alerts_ = 0;
  std::uint64_t drops_ = 0;
};

}  // namespace endbox::oracle
