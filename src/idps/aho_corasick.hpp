// Aho-Corasick multi-pattern string matching (the paper's IDPS executes
// Snort rule sets with this algorithm, citing Aho & Corasick 1975).
// Built from scratch: trie + BFS failure links + output links.
//
// build() additionally compiles the node list into a single flat,
// state-major transition table (goto links already resolved through
// failure links) with pattern outputs in a parallel CSR array, so the
// scan loop is one contiguous table lookup plus one CSR-range check per
// byte instead of chasing a vector<Node> of ~1KB nodes. The node list
// exists only between add_pattern() and build().
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/bytes.hpp"
#include "idps/literal_prefilter.hpp"

namespace endbox::idps {

struct AcMatch {
  int pattern_id;
  std::size_t end_offset;  ///< offset one past the last matched byte
};

class AhoCorasick {
 public:
  /// Adds a pattern with a caller-chosen id. Must be called before
  /// build(); empty patterns are ignored.
  void add_pattern(ByteView pattern, int pattern_id);

  /// Computes failure/output links, compiles the flat transition
  /// table, and builds the Teddy-style literal prefilter from the
  /// pattern set (pattern bytes are retained only until this point).
  /// `prefilter_case_insensitive` marks the pattern set as lower-cased
  /// nocase literals whose prefilter must admit both cases (it then
  /// scans raw text; only confirm slices are lowered). Idempotent.
  void build(bool prefilter_case_insensitive = false);

  /// Finds all pattern occurrences in `text` (overlaps included).
  std::vector<AcMatch> match(ByteView text) const;

  /// Streaming variant: invokes `on_match` per occurrence; returns the
  /// number of matches. Stops early if `on_match` returns false.
  std::size_t match(ByteView text,
                    const std::function<bool(const AcMatch&)>& on_match) const;

  /// Batched scan: walks up to 16 texts in lockstep so the dependent
  /// transition loads of different streams overlap in the memory
  /// system. A single walk is latency-bound (each step's table load
  /// depends on the previous one); interleaving independent chains is
  /// where burst processing beats per-packet scanning. Per-stream
  /// matches and their order are identical to match() on each text;
  /// `on_match(stream, match)` receives the stream index. Returns the
  /// total match count.
  std::size_t match_multi(
      std::span<const ByteView> texts,
      const std::function<bool(std::size_t, const AcMatch&)>& on_match) const;

  /// True when any pattern occurs (early exit on first hit).
  bool contains_any(ByteView text) const;

  std::size_t pattern_count() const { return pattern_lengths_.size(); }
  std::size_t node_count() const {
    return built_ ? out_start_.size() - 1 : nodes_.size();
  }
  bool built() const { return built_; }
  std::size_t max_pattern_length() const { return max_pattern_length_; }
  /// The literal prefilter compiled by build(). usable() is false when
  /// some pattern is too short for a fragment — the caller must then
  /// run the full walk over every byte.
  const LiteralPrefilter& prefilter() const { return prefilter_; }
  LiteralPrefilter& prefilter() { return prefilter_; }

 private:
  struct Node {
    std::array<std::int32_t, 256> next;
    std::int32_t fail = 0;
    std::int32_t output_link = -1;       ///< nearest suffix node with output
    std::vector<std::int32_t> outputs;   ///< pattern indices ending here

    Node() { next.fill(-1); }
  };

  /// Trie under construction; compiled into the flat table and freed
  /// by build().
  std::vector<Node> nodes_{1};
  std::vector<int> pattern_ids_;
  std::vector<std::size_t> pattern_lengths_;
  /// Pattern bytes, retained only between add_pattern and build() so
  /// build() can select prefilter fragments; cleared after compiling.
  std::vector<Bytes> pattern_bytes_;
  std::size_t max_pattern_length_ = 0;
  LiteralPrefilter prefilter_;
  bool built_ = false;

  // Flat automaton (filled by build()): transitions_[state*256 + byte]
  // is the next state; out_start_[s]..out_start_[s+1] indexes the
  // pattern indices reported at state s (own outputs first, then those
  // inherited through the output-link chain, matching the emission
  // order of the node-chasing matcher).
  std::vector<std::int32_t> transitions_;
  std::vector<std::uint32_t> out_start_;
  std::vector<std::int32_t> out_patterns_;
};

}  // namespace endbox::idps
