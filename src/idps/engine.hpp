// IDPS matching engine: compiles a Snort rule set into Aho-Corasick
// automatons (one case-sensitive, one case-insensitive) and evaluates
// packets. A rule fires when its header constraints match AND all of
// its content patterns occur in the payload. Drop rules mark the
// packet; alert rules record an event.
//
// Scanning is two-tier: each automaton's Teddy-style literal
// prefilter (built at AhoCorasick::build() time) reports candidate
// windows — positions where some pattern's rarest fragment may start,
// rewound by maxlen-W and extended by maxlen so any real match lies
// wholly inside — and the flat automaton walks only those merged
// slices from its root. Clean payloads (the common case) never enter
// the automaton. Rule sets containing a content literal shorter than
// the fragment width (1-byte contents) make the prefilter unusable;
// the engine then hands the automaton one candidate run covering the
// whole buffer, so the fallback runs through the same two-tier code.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "idps/aho_corasick.hpp"
#include "idps/snort_rules.hpp"
#include "net/packet.hpp"

namespace endbox::idps {

struct IdpsVerdict {
  bool matched = false;   ///< some rule fired
  bool drop = false;      ///< a drop rule fired
  std::uint32_t sid = 0;  ///< first firing rule's sid
};

/// Persistent per-flow stream inspection state (lives in the flow's
/// CTX context, lane-local): the carried stream tail, the content-hit
/// bits accumulated over the life of the flow (sparse — hits are
/// rare), and the rules that already fired so a completed rule alerts
/// once per flow, not once per subsequent segment. Cheap when idle:
/// three empty vectors.
struct StreamMatchState {
  /// Tail carry: the last maxlen-1 stream bytes, prepended to the next
  /// chunk so a literal straddling the chunk boundary still lands
  /// inside one scanned buffer; matches ending inside the tail were
  /// already reported by the chunk that delivered them and are
  /// suppressed.
  Bytes prefilter_tail;
  bool drop_flow = false;      ///< a drop verdict fired; rest of flow dies
  std::uint64_t bytes_scanned = 0;
  /// Matches whose pattern began in an earlier segment — each one is a
  /// split-payload delivery the per-packet matcher would have missed.
  std::uint64_t cross_segment_matches = 0;
  std::uint64_t bytes_masked = 0;
  /// rule index -> content-hit bitmask, only rules with at least one hit.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> hits;
  /// Rules that already completed (fired or were header-rejected once).
  std::vector<std::uint32_t> completed;
};

/// Two-tier scanning statistics: how much traffic the prefilter
/// cleared without automaton work, how many candidate windows needed
/// confirming, and how many scans fell back to one whole-buffer run
/// (rule sets with sub-fragment-width literals).
struct PrefilterStats {
  std::uint64_t prefiltered_bytes = 0;   ///< bytes screened by tier 1
  std::uint64_t confirmed_windows = 0;   ///< candidate runs walked by tier 2
  std::uint64_t fallback_scans = 0;      ///< whole-buffer runs (prefilter unusable)
};

class IdpsEngine {
 public:
  explicit IdpsEngine(std::vector<SnortRule> rules);

  /// Reusable working memory for inspect(): the per-rule content-hit
  /// bitmasks and the lower-cased payload copy. One scratch reused
  /// across a burst turns the per-packet heap traffic of inspection
  /// into capacity reuse, and the hit table resets sparsely — only the
  /// rules the previous packet touched are cleared, not all N — which
  /// is the batch path's main win for small packets.
  struct InspectScratch {
    std::vector<std::uint64_t> content_hits;
    std::vector<std::uint32_t> touched;  ///< rules with non-zero bits
    Bytes lowered;
    std::vector<CandidateRun> runs;  ///< prefilter candidate windows
    Bytes combined;                  ///< stream path: tail + chunk
  };

  /// Working memory for inspect_batch: per-stream match lists and
  /// lowered copies on top of the shared rule-evaluation scratch.
  struct BatchScratch {
    std::vector<std::vector<AcMatch>> matches;  ///< per stream
    std::vector<Bytes> lowered;                 ///< per stream (nocase scan)
    std::vector<ByteView> views;                ///< span storage for lowered
    std::vector<std::uint32_t> owner;  ///< candidate slice -> packet index
    InspectScratch rules;
  };

  /// Evaluates one packet; also tallies alert/drop statistics.
  IdpsVerdict inspect(const net::Packet& packet);

  /// Scratch-reusing variant: headers come from `packet`, content is
  /// scanned from `payload` (the decrypted payload when TLSDecrypt ran
  /// upstream), so callers need neither a probe copy nor fresh buffers.
  /// Two-tier: the prefilter screens the payload and only candidate
  /// windows reach the automaton.
  IdpsVerdict inspect(const net::Packet& packet, ByteView payload,
                      InspectScratch& scratch);

  /// Burst variant: screens every payload, then confirms the burst's
  /// candidate slices with the interleaved multi-stream Aho-Corasick
  /// walk (independent transition chains overlap in the memory
  /// system, hiding the table-walk latency a single scan is bound by)
  /// and evaluates each packet's rules exactly as inspect().
  /// `verdicts[i]` corresponds to `packets[i]`; verdicts and statistics
  /// are identical to per-packet inspection.
  void inspect_batch(std::span<const net::Packet* const> packets,
                     std::span<const ByteView> payloads, BatchScratch& scratch,
                     IdpsVerdict* verdicts);

  /// Stream inspection: scans `chunk` (the flow's next run of
  /// in-order stream bytes) continuing from `state`, so content split
  /// across TCP segments matches exactly as if delivered in one
  /// segment. The flow's carried tail (last maxlen-1 stream bytes) is
  /// prepended to the chunk, so boundary-straddling literals land
  /// inside one scanned buffer; matches ending inside the tail were
  /// reported by an earlier chunk and are suppressed. Multi-content
  /// rules complete across segments (hit bits persist in `state`); a
  /// rule fires once per flow, on the packet whose chunk completes it,
  /// with the same verdict/sid the single-segment per-packet path
  /// produces. When `mask` is non-empty it must alias the chunk's
  /// bytes in the packet payload: every content occurrence is
  /// overwritten with 'X' (best effort — the part of a straddling
  /// match already forwarded in an earlier segment cannot be
  /// rewritten).
  IdpsVerdict inspect_stream(const net::Packet& packet, ByteView chunk,
                             StreamMatchState& state, InspectScratch& scratch,
                             std::span<std::uint8_t> mask = {});

  /// Burst variant of inspect_stream, run sequentially in burst order:
  /// each chunk's scan needs the tail its same-flow predecessor leaves
  /// behind, and clean chunks have no automaton walk to interleave.
  /// `masks` is either empty or one (possibly empty) span per packet.
  void inspect_stream_batch(std::span<const net::Packet* const> packets,
                            std::span<const ByteView> chunks,
                            std::span<StreamMatchState* const> states,
                            BatchScratch& scratch, IdpsVerdict* verdicts,
                            std::span<const std::span<std::uint8_t>> masks = {});

  std::size_t rule_count() const { return rules_.size(); }
  std::uint64_t packets_inspected() const { return packets_inspected_; }
  std::uint64_t alerts() const { return alerts_; }
  std::uint64_t drops() const { return drops_; }
  std::size_t automaton_nodes() const {
    return cs_automaton_.node_count() + ci_automaton_.node_count();
  }
  /// True when both automatons compiled usable prefilters (every
  /// content literal is at least fragment-width bytes).
  bool prefilter_enabled() const { return prefilter_enabled_; }
  const PrefilterStats& prefilter_stats() const { return prefilter_stats_; }
  const AhoCorasick& cs_automaton() const { return cs_automaton_; }
  const AhoCorasick& ci_automaton() const { return ci_automaton_; }

 private:
  bool header_matches(const SnortRule& rule, const net::Packet& packet) const;
  /// Tallies one scan of `bytes` in the two-tier statistics.
  void count_scan(std::size_t bytes);
  /// Tier 1 for `automaton` over `text`: the prefilter's candidate runs,
  /// or one run covering all of `text` when the prefilter is unusable.
  void find_runs(const AhoCorasick& automaton, ByteView text,
                 std::vector<CandidateRun>& runs);
  /// Tier 2 over `text`: walks both automatons' candidate runs from the
  /// root (nocase runs lowered first) and reports every match to
  /// `record`. `*bias` (when given) is set to each run's offset in
  /// `text` before the run is walked.
  void confirm_runs(ByteView text, InspectScratch& scratch,
                    const std::function<bool(const AcMatch&)>& record,
                    std::size_t* bias = nullptr);
  /// Sparse hit-table reset: zero only the rules touched last time.
  void reset_hits(InspectScratch& scratch) const;
  /// Sets the content bit for one pattern hit (tracks touched rules).
  static void record_hit(InspectScratch& scratch, int pattern_id);
  /// First-match rule evaluation over a populated hit table; tallies
  /// alert/drop statistics.
  IdpsVerdict evaluate_hits(const net::Packet& packet,
                            const InspectScratch& scratch, bool any_hit);
  /// Stream variant: evaluates only the touched rules (sorted to keep
  /// the per-packet path's first-sid rule-index order), fires each rule
  /// at most once per flow, and records completions in `state`.
  IdpsVerdict evaluate_stream(const net::Packet& packet,
                              StreamMatchState& state, InspectScratch& scratch,
                              bool new_hit);
  /// Seeds the sparse hit table from the flow's persisted hits (call
  /// right after reset_hits).
  void load_stream_hits(const StreamMatchState& state,
                        InspectScratch& scratch) const;
  /// Writes the combined hit table back into the flow state.
  void persist_stream_hits(StreamMatchState& state,
                           const InspectScratch& scratch) const;
  std::size_t content_length(int pattern_id) const {
    return rules_[static_cast<std::size_t>(pattern_id) >> 8]
        .contents[static_cast<std::size_t>(pattern_id) & 0xff]
        .bytes.size();
  }

  std::vector<SnortRule> rules_;
  // Pattern ids encode (rule index << 8 | content index within rule).
  AhoCorasick cs_automaton_;  ///< case-sensitive patterns
  AhoCorasick ci_automaton_;  ///< nocase patterns, stored lower-cased
  bool prefilter_enabled_ = false;
  /// Stream tail carry length: max pattern length over both automatons
  /// minus one — the longest prefix of a match that can live in
  /// earlier chunks.
  std::size_t stream_tail_len_ = 0;
  PrefilterStats prefilter_stats_;
  std::uint64_t packets_inspected_ = 0;
  std::uint64_t alerts_ = 0;
  std::uint64_t drops_ = 0;
};

}  // namespace endbox::idps
