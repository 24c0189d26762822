// Teddy-style shuffled-literal pre-filter (Hyperscan's "Teddy", also
// the rust aho-corasick packed searcher): the first tier of the
// two-tier scanning engine. Each pattern contributes its rarest
// W-byte fragment (W = min(4, shortest pattern length)); fragments are
// grouped into 8 buckets and compiled into per-position nibble tables,
// so one pshufb pair per position turns 16 (SSSE3) or 32 (AVX2) input
// bytes into per-byte bucket bitmaps whose W-way AND is non-zero
// where some bucket's fragment may start. Each such nibble candidate
// is then checked against the fragments themselves: its W bytes
// (ASCII-folded for the nocase filter) index a 64 Kbit presence bitmap
// that holds one bit per fragment — the fragment itself for W = 2, a
// 16-bit hash of it for W = 3 and 4. Checked candidates are widened
// into confirmation windows — rewound by maxlen-W and extended by
// maxlen so any full match whose fragment starts there lies wholly
// inside — and overlapping windows merge into runs the confirming
// automaton walks from its root. Clean payloads (no checked
// candidates) skip the automaton entirely.
//
// The nibble test over-approximates (a byte matches position j when
// its low nibble appears in some bucket fragment's j-th byte AND its
// high nibble does — possibly from different fragments), and so does
// the bitmap (hash collisions), but every fragment's bit is set, so
// checked candidates remain a superset of true fragment occurrences:
// a nibble alias costs one bit test, a bitmap collision a short
// confirm walk, and false negatives cannot happen. The kernels are
// specialised on W. A portable SWAR kernel (per-byte 32-bit table
// holding all W position masks, one shift/or/and per byte) is selected
// at runtime via cpuid — or pinned with ENDBOX_FORCE_SCALAR — so tests
// and sanitizer CI are deterministic without AVX2.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "common/cpu_features.hpp"

namespace endbox::idps {

/// What `nocase` means in both scanning tiers: ASCII 'A'-'Z' fold to
/// 'a'-'z', every other byte is itself (no locale).
inline std::uint8_t ascii_lower(std::uint8_t b) {
  return static_cast<std::uint8_t>(
      static_cast<unsigned>(b - 'A') < 26u ? b | 0x20 : b);
}

/// Half-open byte range of a scanned text that may contain a match;
/// the confirming automaton walks only these slices.
struct CandidateRun {
  std::uint32_t begin;
  std::uint32_t end;

  bool operator==(const CandidateRun&) const = default;
};

class LiteralPrefilter {
 public:
  using Kernel = common::SimdLevel;

  /// Compiles the prefilter from the complete pattern set of one
  /// automaton. When `case_insensitive` is set the patterns must
  /// already be lower-cased (the nocase automaton stores them that
  /// way) and the masks additionally admit the upper-case form of
  /// every alphabetic fragment byte, so the filter scans the RAW text
  /// — only confirm slices pay for lowering. Any pattern shorter than
  /// 2 bytes makes the filter unusable (a 1-byte literal has no
  /// fragment; the engine must fall back to the full walk). An empty
  /// pattern set is usable and reports no candidates. `kernel` (one the
  /// hardware has) is fixed for the filter's life; tests pin each level.
  void build(std::span<const ByteView> patterns, bool case_insensitive,
             Kernel kernel = common::current_simd_level());

  /// False when some pattern is too short for a fragment; the caller
  /// must then scan everything with the full automaton walk.
  bool usable() const { return usable_; }
  /// Fragment width W in [2, 4]; 0 for an empty pattern set.
  std::size_t fragment_width() const { return width_; }
  std::size_t max_pattern_length() const { return max_len_; }

  Kernel kernel() const { return kernel_; }

  /// Scans `text` and appends the merged candidate runs (ascending,
  /// disjoint, clamped to the text). Returns the count of checked
  /// candidates (nibble hits whose bytes passed the fragment bitmap)
  /// before widening/merging. Every occurrence of every pattern lies
  /// wholly inside exactly one appended run.
  std::size_t find_runs(ByteView text, std::vector<CandidateRun>& runs) const;

 private:
  /// Widens a candidate fragment-start into a window and merges it
  /// into `runs` (candidates arrive in ascending order).
  void emit(std::size_t start, std::size_t text_len,
            std::vector<CandidateRun>& runs) const;
  /// Registers byte `b` of fragment position `j` for `bucket`.
  void admit_byte(std::size_t j, std::uint8_t b, unsigned bucket);
  /// True when the W bytes at `at` may spell a fragment: their bit in
  /// `fragment_bits_` is set.
  template <std::size_t W>
  bool fragment_at(const std::uint8_t* at) const;

  /// The kernel for fragment width W.
  template <std::size_t W>
  std::size_t scan(const std::uint8_t* data, std::size_t len,
                   std::vector<CandidateRun>& runs) const;
  template <std::size_t W>
  std::size_t scan_scalar(const std::uint8_t* data, std::size_t len,
                          std::size_t from, std::size_t emit_from,
                          std::vector<CandidateRun>& runs) const;
#if defined(__x86_64__) || defined(__i386__)
  template <std::size_t W>
  std::size_t scan_ssse3(const std::uint8_t* data, std::size_t len,
                         std::vector<CandidateRun>& runs) const;
  template <std::size_t W>
  std::size_t scan_avx2(const std::uint8_t* data, std::size_t len,
                        std::vector<CandidateRun>& runs) const;
#endif

  bool usable_ = false;
  bool empty_ = true;
  std::size_t width_ = 0;    ///< W: fragment bytes per pattern
  std::size_t max_len_ = 0;  ///< longest pattern (window extent)
  Kernel kernel_ = Kernel::Scalar;
  // Per-position nibble tables: lo_[j][n] (hi_[j][n]) is the bitmap of
  // buckets owning a fragment whose j-th byte has low (high) nibble n.
  alignas(16) std::uint8_t lo_[4][16] = {};
  alignas(16) std::uint8_t hi_[4][16] = {};
  // SWAR fallback: byte j of tbl32_[b] is lo_[j][b&15] & hi_[j][b>>4]
  // (zero for j >= W), so the W-position AND pipelines through one
  // 32-bit shift/or/and per input byte.
  std::uint32_t tbl32_[256] = {};
  // Byte fold before the fragment check: ascii_lower for the nocase
  // filter, the identity otherwise.
  std::uint8_t fold_[256] = {};
  // Fragment presence bitmap, one bit per 16-bit fragment slot, held
  // inline: a compiled filter makes no heap allocation. The 64-byte
  // alignment makes the engine an aligned allocation; at the default
  // alignment, the 16 KiB the two bitmaps add to an engine moved where
  // glibc trims the heap between bench_e2e's repeated world builds,
  // and stream_split's setup_s read +70%.
  alignas(64) std::uint64_t fragment_bits_[1024] = {};
};

}  // namespace endbox::idps
