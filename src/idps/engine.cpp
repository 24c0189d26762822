#include "idps/engine.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

namespace endbox::idps {

namespace {
void to_lower_into(ByteView data, Bytes& out) {
  out.assign(data.begin(), data.end());
  for (auto& b : out) b = static_cast<std::uint8_t>(std::tolower(b));
}

Bytes to_lower(ByteView data) {
  Bytes out;
  to_lower_into(data, out);
  return out;
}
}  // namespace

IdpsEngine::IdpsEngine(std::vector<SnortRule> rules) : rules_(std::move(rules)) {
  if (rules_.size() > (1u << 23))
    throw std::invalid_argument("IdpsEngine: too many rules");
  for (std::size_t r = 0; r < rules_.size(); ++r) {
    const auto& contents = rules_[r].contents;
    if (contents.size() > 255)
      throw std::invalid_argument("IdpsEngine: too many contents in rule");
    for (std::size_t c = 0; c < contents.size(); ++c) {
      int id = static_cast<int>(r << 8 | c);
      if (contents[c].nocase) {
        ci_automaton_.add_pattern(to_lower(contents[c].bytes), id);
      } else {
        cs_automaton_.add_pattern(contents[c].bytes, id);
      }
    }
  }
  cs_automaton_.build();
  // The nocase automaton's prefilter admits both cases of every
  // fragment byte so tier 1 scans the raw text; only confirm slices
  // pay for lowering.
  ci_automaton_.build(/*prefilter_case_insensitive=*/true);
  // One literal shorter than the fragment width anywhere in the rule
  // set disables the prefilter for the whole engine: a 1-byte content
  // has no fragment, and a bucket miss would silently skip it.
  prefilter_enabled_ = cs_automaton_.prefilter().usable() &&
                       ci_automaton_.prefilter().usable();
  std::size_t max_len = std::max(cs_automaton_.max_pattern_length(),
                                 ci_automaton_.max_pattern_length());
  stream_tail_len_ = max_len > 0 ? max_len - 1 : 0;
}

bool IdpsEngine::header_matches(const SnortRule& rule,
                                const net::Packet& packet) const {
  if (rule.proto && packet.proto != *rule.proto) return false;
  if (!rule.src.matches(packet.src)) return false;
  if (!rule.dst.matches(packet.dst)) return false;
  if (packet.proto != net::IpProto::Icmp) {
    if (!rule.src_port.matches(packet.src_port)) return false;
    if (!rule.dst_port.matches(packet.dst_port)) return false;
  }
  return true;
}

void IdpsEngine::reset_hits(InspectScratch& scratch) const {
  // The table is zeroed wholesale only when (re)sized; afterwards just
  // the rules the previous packet hit are cleared — content hits are
  // rare, so a warm scratch skips the O(rules) wipe entirely.
  if (scratch.content_hits.size() != rules_.size()) {
    scratch.content_hits.assign(rules_.size(), 0);
  } else {
    for (std::uint32_t rule : scratch.touched) scratch.content_hits[rule] = 0;
  }
  scratch.touched.clear();
}

void IdpsEngine::record_hit(InspectScratch& scratch, int pattern_id) {
  std::size_t rule_index = static_cast<std::size_t>(pattern_id) >> 8;
  std::size_t content_index = static_cast<std::size_t>(pattern_id) & 0xff;
  if (content_index >= 64) return;
  std::uint64_t& bits = scratch.content_hits[rule_index];
  if (bits == 0)
    scratch.touched.push_back(static_cast<std::uint32_t>(rule_index));
  bits |= 1ull << content_index;
}

IdpsVerdict IdpsEngine::evaluate_hits(const net::Packet& packet,
                                      const InspectScratch& scratch,
                                      bool any_hit) {
  IdpsVerdict verdict;
  if (!any_hit) return verdict;
  const std::vector<std::uint64_t>& content_hits = scratch.content_hits;
  for (std::size_t r = 0; r < rules_.size(); ++r) {
    const SnortRule& rule = rules_[r];
    if (rule.contents.empty()) continue;
    std::uint64_t want =
        rule.contents.size() >= 64 ? ~0ull : (1ull << rule.contents.size()) - 1;
    if ((content_hits[r] & want) != want) continue;
    if (!header_matches(rule, packet)) continue;
    if (!verdict.matched) {
      verdict.matched = true;
      verdict.sid = rule.sid;
    }
    if (rule.action == RuleAction::Drop) verdict.drop = true;
    if (rule.action == RuleAction::Alert) ++alerts_;
  }
  if (verdict.drop) ++drops_;
  return verdict;
}

void IdpsEngine::count_scan(std::size_t bytes) {
  if (prefilter_enabled_)
    prefilter_stats_.prefiltered_bytes += bytes;
  else
    ++prefilter_stats_.fallback_scans;
}

void IdpsEngine::find_runs(const AhoCorasick& automaton, ByteView text,
                           std::vector<CandidateRun>& runs) {
  runs.clear();
  if (automaton.pattern_count() == 0) return;
  if (!prefilter_enabled_) {
    // Fallback: the whole buffer is one candidate run.
    if (!text.empty())
      runs.push_back({0, static_cast<std::uint32_t>(text.size())});
    return;
  }
  automaton.prefilter().find_runs(text, runs);
  prefilter_stats_.confirmed_windows += runs.size();
}

void IdpsEngine::confirm_runs(ByteView text, InspectScratch& scratch,
                              const std::function<bool(const AcMatch&)>& record,
                              std::size_t* bias) {
  // Each run contains every match it witnesses whole, so it is walked
  // from the root — no cross-run automaton state is needed.
  find_runs(cs_automaton_, text, scratch.runs);
  for (const CandidateRun& run : scratch.runs) {
    if (bias) *bias = run.begin;
    cs_automaton_.match(text.subspan(run.begin, run.end - run.begin), record);
  }
  // The nocase prefilter screened the raw text; only its runs are
  // lowered for the confirm walk.
  find_runs(ci_automaton_, text, scratch.runs);
  for (const CandidateRun& run : scratch.runs) {
    if (bias) *bias = run.begin;
    to_lower_into(text.subspan(run.begin, run.end - run.begin), scratch.lowered);
    ci_automaton_.match(scratch.lowered, record);
  }
}

IdpsVerdict IdpsEngine::inspect(const net::Packet& packet) {
  InspectScratch scratch;
  return inspect(packet, packet.payload, scratch);
}

IdpsVerdict IdpsEngine::inspect(const net::Packet& packet, ByteView payload,
                                InspectScratch& scratch) {
  ++packets_inspected_;
  count_scan(payload.size());
  reset_hits(scratch);
  // Single-pointer capture keeps the callback inside std::function's
  // small-object buffer — no allocation per scan. Rule evaluation only
  // consumes the hit set, so slice-relative offsets need no rebasing.
  struct RecordCtx {
    InspectScratch* scratch;
    bool any_hit = false;
  } ctx{&scratch};
  confirm_runs(payload, scratch, [&ctx](const AcMatch& m) {
    record_hit(*ctx.scratch, m.pattern_id);
    ctx.any_hit = true;
    return true;
  });
  return evaluate_hits(packet, scratch, ctx.any_hit);
}

void IdpsEngine::inspect_batch(std::span<const net::Packet* const> packets,
                               std::span<const ByteView> payloads,
                               BatchScratch& scratch, IdpsVerdict* verdicts) {
  std::size_t n = packets.size();
  packets_inspected_ += n;
  if (scratch.matches.size() < n) scratch.matches.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    count_scan(payloads[i].size());
    scratch.matches[i].clear();
  }

  // Tier 1 screens each payload sequentially (the prefilter kernel is
  // data-parallel within one buffer, not latency-bound like the
  // automaton walk); the surviving candidate slices of the whole burst
  // are then confirmed with one interleaved multi-stream walk, each
  // slice attributed back to its packet.
  struct RecordCtx {
    BatchScratch* scratch;
  } ctx{&scratch};
  auto record = [&ctx](std::size_t stream, const AcMatch& m) {
    ctx.scratch->matches[ctx.scratch->owner[stream]].push_back(m);
    return true;
  };
  auto confirm = [&](const AhoCorasick& automaton, bool lower) {
    scratch.views.clear();
    scratch.owner.clear();
    std::size_t slice = 0;
    for (std::size_t i = 0; i < n; ++i) {
      find_runs(automaton, payloads[i], scratch.rules.runs);
      for (const CandidateRun& run : scratch.rules.runs) {
        ByteView view = payloads[i].subspan(run.begin, run.end - run.begin);
        if (lower) {
          if (scratch.lowered.size() <= slice) scratch.lowered.resize(slice + 1);
          to_lower_into(view, scratch.lowered[slice]);
          view = scratch.lowered[slice++];
        }
        scratch.views.push_back(view);
        scratch.owner.push_back(static_cast<std::uint32_t>(i));
      }
    }
    automaton.match_multi({scratch.views.data(), scratch.views.size()}, record);
  };
  confirm(cs_automaton_, false);
  confirm(ci_automaton_, true);

  // Rule evaluation is per packet and cheap (content hits are rare);
  // replaying the recorded matches into the sparse hit table makes the
  // verdicts bit-identical to per-packet inspection.
  for (std::size_t i = 0; i < n; ++i) {
    reset_hits(scratch.rules);
    for (const AcMatch& m : scratch.matches[i])
      record_hit(scratch.rules, m.pattern_id);
    verdicts[i] =
        evaluate_hits(*packets[i], scratch.rules, !scratch.matches[i].empty());
  }
}

void IdpsEngine::load_stream_hits(const StreamMatchState& state,
                                  InspectScratch& scratch) const {
  for (const auto& [rule, bits] : state.hits) {
    scratch.content_hits[rule] = bits;
    scratch.touched.push_back(rule);
  }
}

void IdpsEngine::persist_stream_hits(StreamMatchState& state,
                                     const InspectScratch& scratch) const {
  state.hits.clear();
  for (std::uint32_t rule : scratch.touched) {
    if (std::uint64_t bits = scratch.content_hits[rule]; bits != 0)
      state.hits.emplace_back(rule, bits);
  }
}

IdpsVerdict IdpsEngine::evaluate_stream(const net::Packet& packet,
                                        StreamMatchState& state,
                                        InspectScratch& scratch, bool new_hit) {
  IdpsVerdict verdict;
  // A rule can only newly complete when this chunk produced a hit.
  if (!new_hit) return verdict;
  // Ascending rule-index order preserves the per-packet path's
  // first-sid determinism (evaluate_hits walks all rules in order;
  // untouched rules cannot match, so sorted-touched is equivalent).
  std::sort(scratch.touched.begin(), scratch.touched.end());
  for (std::uint32_t r : scratch.touched) {
    const SnortRule& rule = rules_[r];
    if (rule.contents.empty()) continue;
    std::uint64_t want =
        rule.contents.size() >= 64 ? ~0ull : (1ull << rule.contents.size()) - 1;
    if ((scratch.content_hits[r] & want) != want) continue;
    if (std::find(state.completed.begin(), state.completed.end(), r) !=
        state.completed.end())
      continue;
    // Record completion even when the header check fails: header
    // constraints are flow-constant, so the rule can never fire later
    // in this flow and need not be re-evaluated per segment.
    state.completed.push_back(r);
    if (!header_matches(rule, packet)) continue;
    if (!verdict.matched) {
      verdict.matched = true;
      verdict.sid = rule.sid;
    }
    if (rule.action == RuleAction::Drop) verdict.drop = true;
    if (rule.action == RuleAction::Alert) ++alerts_;
  }
  if (verdict.drop) ++drops_;
  // Flow-kill policy (state.drop_flow) belongs to the caller: the
  // element also kills flows on DROP-mode alert matches, and owns the
  // once-per-flow kill accounting.
  return verdict;
}

IdpsVerdict IdpsEngine::inspect_stream(const net::Packet& packet, ByteView chunk,
                                       StreamMatchState& state,
                                       InspectScratch& scratch,
                                       std::span<std::uint8_t> mask) {
  ++packets_inspected_;
  count_scan(chunk.size());
  reset_hits(scratch);
  load_stream_hits(state, scratch);

  // Tail carry: scanning tail+chunk guarantees any match ending in
  // this chunk — its length is at most maxlen, so it starts no more
  // than maxlen-1 bytes before the chunk — lies wholly inside the
  // combined buffer, boundary-straddling literals included. Matches
  // ending inside the tail (combined end <= tail_len) were reported by
  // the chunk that delivered those bytes and are suppressed. The
  // combined copy also keeps the scanned bytes unmasked while `mask`
  // rewrites the payload.
  const std::size_t tail_len = state.prefilter_tail.size();
  scratch.combined.assign(state.prefilter_tail.begin(),
                          state.prefilter_tail.end());
  scratch.combined.insert(scratch.combined.end(), chunk.begin(), chunk.end());

  struct RecordCtx {
    IdpsEngine* self;
    InspectScratch* scratch;
    StreamMatchState* state;
    std::uint8_t* mask_data;
    std::size_t mask_size;
    std::size_t tail_len;
    std::size_t bias = 0;  ///< current run's offset within `combined`
    bool new_hit = false;
  } ctx{this, &scratch, &state, mask.data(), mask.size(), tail_len};
  confirm_runs(
      scratch.combined, scratch,
      [&ctx](const AcMatch& m) {
        std::size_t combined_end = m.end_offset + ctx.bias;
        if (combined_end <= ctx.tail_len) return true;  // earlier chunk's match
        std::size_t end = combined_end - ctx.tail_len;  // chunk-relative
        record_hit(*ctx.scratch, m.pattern_id);
        ctx.new_hit = true;
        std::size_t plen = ctx.self->content_length(m.pattern_id);
        // An end offset inside the pattern means the match began in an
        // earlier segment — the split delivery per-packet scanning misses.
        if (end < plen) ++ctx.state->cross_segment_matches;
        if (ctx.mask_size != 0) {
          std::size_t start = end > plen ? end - plen : 0;
          for (std::size_t j = start; j < end; ++j) ctx.mask_data[j] = 'X';
          ctx.state->bytes_masked += end - start;
        }
        return true;
      },
      &ctx.bias);
  state.bytes_scanned += chunk.size();
  std::size_t keep = std::min(scratch.combined.size(), stream_tail_len_);
  state.prefilter_tail.assign(scratch.combined.end() -
                                  static_cast<std::ptrdiff_t>(keep),
                              scratch.combined.end());

  IdpsVerdict verdict = evaluate_stream(packet, state, scratch, ctx.new_hit);
  persist_stream_hits(state, scratch);
  return verdict;
}

void IdpsEngine::inspect_stream_batch(
    std::span<const net::Packet* const> packets, std::span<const ByteView> chunks,
    std::span<StreamMatchState* const> states, BatchScratch& scratch,
    IdpsVerdict* verdicts, std::span<const std::span<std::uint8_t>> masks) {
  for (std::size_t i = 0; i < packets.size(); ++i)
    verdicts[i] = inspect_stream(*packets[i], chunks[i], *states[i],
                                 scratch.rules,
                                 masks.empty() ? std::span<std::uint8_t>{}
                                               : masks[i]);
}

}  // namespace endbox::idps
