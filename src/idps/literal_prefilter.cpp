#include "idps/literal_prefilter.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace endbox::idps {

namespace {

// Commonness weight for fragment selection: the rarest window of a
// pattern makes the cheapest filter, so frequent payload bytes (ASCII
// letters, digits, space, common punctuation) score high and binary /
// unusual bytes score zero. The exact ranking only affects the false-
// positive rate, never correctness.
std::uint8_t byte_commonness(std::uint8_t b) {
  switch (b) {
    case ' ':
    case 'e':
    case 't':
    case 'a':
    case 'o':
    case 'i':
    case 'n':
    case 's':
    case 'r':
    case 'h':
      return 4;
    default:
      break;
  }
  if (b >= 'a' && b <= 'z') return 3;
  if ((b >= 'A' && b <= 'Z') || (b >= '0' && b <= '9')) return 2;
  if (b == '.' || b == ',' || b == '-' || b == '_' || b == '/') return 2;
  if (b >= 0x20 && b < 0x7f) return 1;
  return 0;
}

/// Bitmap slot of the `w` bytes at `at`, each mapped through `fold`: a
/// 2-byte fragment is its own slot; wider ones take the top 16 bits of
/// a Fibonacci hash.
inline std::uint32_t fragment_slot(const std::uint8_t* at, std::size_t w,
                                   const std::uint8_t* fold) {
  std::uint32_t key = 0;
#pragma GCC unroll 4
  for (std::size_t j = 0; j < w; ++j)
    key |= std::uint32_t{fold[at[j]]} << (8 * j);
  return w == 2 ? key : (key * 0x9e3779b1u) >> 16;
}

#if defined(__x86_64__) || defined(__i386__)
// Bucket bits D bytes earlier: `cur` shifted up by D bytes, the first
// D taken from the end of the previous block `prev`.
template <int D>
__attribute__((target("ssse3"))) inline __m128i earlier(__m128i cur,
                                                        __m128i prev) {
  return _mm_alignr_epi8(cur, prev, 16 - D);
}
// alignr works per 128-bit lane; splicing [prev.hi, cur.lo] as the
// carry register makes the byte shift cross the lane seam.
template <int D>
__attribute__((target("avx2"))) inline __m256i earlier(__m256i cur,
                                                       __m256i prev) {
  return _mm256_alignr_epi8(cur, _mm256_permute2x128_si256(prev, cur, 0x21),
                            16 - D);
}
#endif

}  // namespace

void LiteralPrefilter::admit_byte(std::size_t j, std::uint8_t b,
                                  unsigned bucket) {
  lo_[j][b & 0x0f] |= static_cast<std::uint8_t>(1u << bucket);
  hi_[j][b >> 4] |= static_cast<std::uint8_t>(1u << bucket);
}

void LiteralPrefilter::build(std::span<const ByteView> patterns,
                             bool case_insensitive, Kernel kernel) {
  usable_ = false;
  empty_ = true;
  width_ = 0;
  max_len_ = 0;
  std::memset(lo_, 0, sizeof(lo_));
  std::memset(hi_, 0, sizeof(hi_));
  std::memset(tbl32_, 0, sizeof(tbl32_));
  std::memset(fragment_bits_, 0, sizeof(fragment_bits_));
  for (unsigned b = 0; b < 256; ++b)
    fold_[b] = case_insensitive ? ascii_lower(static_cast<std::uint8_t>(b))
                                : static_cast<std::uint8_t>(b);
  kernel_ = kernel;

  if (patterns.empty()) {
    usable_ = true;  // nothing can match: every payload is clean
    return;
  }
  std::size_t min_len = patterns[0].size();
  for (ByteView p : patterns) {
    min_len = std::min(min_len, p.size());
    max_len_ = std::max(max_len_, p.size());
  }
  if (min_len < 2) return;  // 1-byte literal: no fragment, stay unusable
  empty_ = false;
  width_ = std::min<std::size_t>(4, min_len);

  // Rarest W-byte window of each pattern becomes its fragment.
  std::vector<std::array<std::uint8_t, 4>> fragments;
  fragments.reserve(patterns.size());
  for (ByteView p : patterns) {
    std::size_t best_off = 0;
    unsigned best_score = ~0u;
    for (std::size_t off = 0; off + width_ <= p.size(); ++off) {
      unsigned score = 0;
      for (std::size_t j = 0; j < width_; ++j)
        score += byte_commonness(p[off + j]);
      if (score < best_score) {
        best_score = score;
        best_off = off;
      }
    }
    std::array<std::uint8_t, 4> frag{};
    for (std::size_t j = 0; j < width_; ++j) frag[j] = p[best_off + j];
    fragments.push_back(frag);
  }

  // Lexicographic sort + contiguous split keeps shared prefixes inside
  // one bucket, which keeps each bucket's per-position nibble sets —
  // and with them the cross-product false positives — small.
  std::sort(fragments.begin(), fragments.end());
  fragments.erase(std::unique(fragments.begin(), fragments.end()),
                  fragments.end());
  std::size_t buckets = std::min<std::size_t>(8, fragments.size());
  for (std::size_t f = 0; f < fragments.size(); ++f) {
    unsigned bucket = static_cast<unsigned>(f * buckets / fragments.size());
    for (std::size_t j = 0; j < width_; ++j) {
      std::uint8_t b = fragments[f][j];
      admit_byte(j, b, bucket);
      // Nocase patterns are stored lower-cased; admitting the upper
      // form too lets the filter scan the raw (unlowered) text.
      if (case_insensitive && b >= 'a' && b <= 'z')
        admit_byte(j, static_cast<std::uint8_t>(b - 'a' + 'A'), bucket);
    }
    std::uint32_t slot = fragment_slot(fragments[f].data(), width_, fold_);
    fragment_bits_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
  }

  for (unsigned b = 0; b < 256; ++b) {
    std::uint32_t v = 0;
    for (std::size_t j = 0; j < width_; ++j)
      v |= static_cast<std::uint32_t>(lo_[j][b & 0x0f] & hi_[j][b >> 4])
           << (8 * j);
    tbl32_[b] = v;
  }
  usable_ = true;
}

void LiteralPrefilter::emit(std::size_t start, std::size_t text_len,
                            std::vector<CandidateRun>& runs) const {
  // A fragment at `start` belonging to a pattern of length L at offset
  // `off` implies a match span [start-off, start-off+L) with
  // off <= L-W <= maxlen-W and end <= start+maxlen, so this window
  // contains every match the candidate can witness.
  std::size_t rewind = max_len_ - width_;
  std::uint32_t begin =
      static_cast<std::uint32_t>(start > rewind ? start - rewind : 0);
  std::uint32_t end =
      static_cast<std::uint32_t>(std::min(text_len, start + max_len_));
  if (!runs.empty() && begin <= runs.back().end) {
    runs.back().end = std::max(runs.back().end, end);
  } else {
    runs.push_back({begin, end});
  }
}

template <std::size_t W>
bool LiteralPrefilter::fragment_at(const std::uint8_t* at) const {
  std::uint32_t slot = fragment_slot(at, W, fold_);
  return (fragment_bits_[slot >> 6] >> (slot & 63)) & 1;
}

template <std::size_t W>
std::size_t LiteralPrefilter::scan_scalar(
    const std::uint8_t* data, std::size_t len, std::size_t from,
    std::size_t emit_from, std::vector<CandidateRun>& runs) const {
  // Zero-initialised history: byte j of `acc` becomes valid only after
  // j+1 input bytes, so fragment ends before position W-1 (candidates
  // starting before the text) can never fire.
  constexpr std::size_t r = W - 1;
  std::uint32_t acc = 0;
  std::size_t count = 0;
  for (std::size_t i = from; i < len; ++i) {
    acc = ((acc << 8) | 0xffu) & tbl32_[data[i]];
    if (((acc >> (8 * r)) & 0xffu) != 0 && i >= emit_from &&
        fragment_at<W>(data + i - r)) {
      ++count;
      emit(i - r, len, runs);
    }
  }
  return count;
}

#if defined(__x86_64__) || defined(__i386__)

template <std::size_t W>
__attribute__((target("ssse3"))) std::size_t LiteralPrefilter::scan_ssse3(
    const std::uint8_t* data, std::size_t len,
    std::vector<CandidateRun>& runs) const {
  constexpr std::size_t r = W - 1;
  __m128i lo_tbl[W], hi_tbl[W], prev[W];
#pragma GCC unroll 4
  for (std::size_t j = 0; j < W; ++j) {
    lo_tbl[j] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(lo_[j]));
    hi_tbl[j] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(hi_[j]));
    prev[j] = _mm_setzero_si128();  // no fragments start before the text
  }
  const __m128i nibble = _mm_set1_epi8(0x0f);
  const __m128i zero = _mm_setzero_si128();
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    __m128i chunk =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    __m128i lo_n = _mm_and_si128(chunk, nibble);
    __m128i hi_n = _mm_and_si128(_mm_srli_epi16(chunk, 4), nibble);
    __m128i bits[W];
#pragma GCC unroll 4
    for (std::size_t j = 0; j < W; ++j)
      bits[j] = _mm_and_si128(_mm_shuffle_epi8(lo_tbl[j], lo_n),
                              _mm_shuffle_epi8(hi_tbl[j], hi_n));
    // Result byte p: AND over positions j of the bucket bitmap seen
    // r-j bytes earlier — fragment position j aligned to its end.
    __m128i res = _mm_and_si128(bits[r], earlier<1>(bits[r - 1], prev[r - 1]));
    if constexpr (W >= 3)
      res = _mm_and_si128(res, earlier<2>(bits[r - 2], prev[r - 2]));
    if constexpr (W >= 4)
      res = _mm_and_si128(res, earlier<3>(bits[r - 3], prev[r - 3]));
#pragma GCC unroll 4
    for (std::size_t j = 0; j < W; ++j) prev[j] = bits[j];
    unsigned mask =
        static_cast<unsigned>(_mm_movemask_epi8(_mm_cmpeq_epi8(res, zero))) ^
        0xffffu;
    while (mask != 0) {
      std::size_t start = i + static_cast<unsigned>(__builtin_ctz(mask)) - r;
      mask &= mask - 1;
      if (!fragment_at<W>(data + start)) continue;
      ++count;
      emit(start, len, runs);
    }
  }
  // Tail: re-run the SWAR recurrence from r bytes before the SIMD
  // frontier (to rebuild the AND history) but emit only new positions.
  count += scan_scalar<W>(data, len, i >= r ? i - r : 0, i, runs);
  return count;
}

template <std::size_t W>
__attribute__((target("avx2"))) std::size_t LiteralPrefilter::scan_avx2(
    const std::uint8_t* data, std::size_t len,
    std::vector<CandidateRun>& runs) const {
  constexpr std::size_t r = W - 1;
  __m256i lo_tbl[W], hi_tbl[W], prev[W];
#pragma GCC unroll 4
  for (std::size_t j = 0; j < W; ++j) {
    __m128i lo128 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(lo_[j]));
    __m128i hi128 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(hi_[j]));
    lo_tbl[j] = _mm256_broadcastsi128_si256(lo128);
    hi_tbl[j] = _mm256_broadcastsi128_si256(hi128);
    prev[j] = _mm256_setzero_si256();
  }
  const __m256i nibble = _mm256_set1_epi8(0x0f);
  const __m256i zero = _mm256_setzero_si256();
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    __m256i chunk =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    __m256i lo_n = _mm256_and_si256(chunk, nibble);
    __m256i hi_n = _mm256_and_si256(_mm256_srli_epi16(chunk, 4), nibble);
    __m256i bits[W];
#pragma GCC unroll 4
    for (std::size_t j = 0; j < W; ++j)
      bits[j] = _mm256_and_si256(_mm256_shuffle_epi8(lo_tbl[j], lo_n),
                                 _mm256_shuffle_epi8(hi_tbl[j], hi_n));
    __m256i res =
        _mm256_and_si256(bits[r], earlier<1>(bits[r - 1], prev[r - 1]));
    if constexpr (W >= 3)
      res = _mm256_and_si256(res, earlier<2>(bits[r - 2], prev[r - 2]));
    if constexpr (W >= 4)
      res = _mm256_and_si256(res, earlier<3>(bits[r - 3], prev[r - 3]));
#pragma GCC unroll 4
    for (std::size_t j = 0; j < W; ++j) prev[j] = bits[j];
    std::uint32_t mask = static_cast<std::uint32_t>(_mm256_movemask_epi8(
                             _mm256_cmpeq_epi8(res, zero))) ^
                         0xffffffffu;
    while (mask != 0) {
      std::size_t start = i + static_cast<unsigned>(__builtin_ctz(mask)) - r;
      mask &= mask - 1;
      if (!fragment_at<W>(data + start)) continue;
      ++count;
      emit(start, len, runs);
    }
  }
  count += scan_scalar<W>(data, len, i >= r ? i - r : 0, i, runs);
  return count;
}

#endif  // x86

template <std::size_t W>
std::size_t LiteralPrefilter::scan(const std::uint8_t* data, std::size_t len,
                                   std::vector<CandidateRun>& runs) const {
#if defined(__x86_64__) || defined(__i386__)
  if (kernel_ == Kernel::Avx2) return scan_avx2<W>(data, len, runs);
  if (kernel_ == Kernel::Ssse3) return scan_ssse3<W>(data, len, runs);
#endif
  return scan_scalar<W>(data, len, 0, 0, runs);
}

std::size_t LiteralPrefilter::find_runs(ByteView text,
                                        std::vector<CandidateRun>& runs) const {
  if (empty_ || text.size() < width_) return 0;
  switch (width_) {
    case 2:
      return scan<2>(text.data(), text.size(), runs);
    case 3:
      return scan<3>(text.data(), text.size(), runs);
    default:
      return scan<4>(text.data(), text.size(), runs);
  }
}

}  // namespace endbox::idps
