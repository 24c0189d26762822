#include "crypto/sha256.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/cpu_features.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace endbox::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, unsigned n) {
  return (x >> n) | (x << (32 - n));
}

void compress_portable(std::uint32_t* state, const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) w[i] = get_u32(block + i * 4);
  for (int i = 16; i < 64; ++i) {
    std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    std::uint32_t ch = (e & f) ^ (~e & g);
    std::uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
    std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    std::uint32_t temp2 = s0 + maj;
    h = g; g = f; f = e;
    e = d + temp1;
    d = c; c = b; b = a;
    a = temp1 + temp2;
  }
  state[0] += a; state[1] += b; state[2] += c; state[3] += d;
  state[4] += e; state[5] += f; state[6] += g; state[7] += h;
}

#if defined(__x86_64__) || defined(__i386__)

// SHA-NI compression (Gulley et al. 2013). The state travels as two
// vectors, ABEF and CDGH, the order SHA256RNDS2 takes. Each of the 16
// groups runs four rounds as two RNDS2, the second on the upper half of
// the W+K vector; each RNDS2 returns the new ABEF while the old ABEF
// becomes CDGH, so `abef` and `cdgh` swap roles within a group and are
// back in order at its end. Meanwhile MSG1/MSG2 extend the schedule:
// W[n] = MSG2(MSG1(W[n-4], W[n-3]) + ALIGNR(W[n-1], W[n-2], 4), W[n-1]),
// with four message vectors rotating through `w`. N independent
// streams (N = 2 for a pair of MACs) compress `blocks` blocks each, one
// group of every stream at a time, so one stream's RNDS2 latency
// overlaps the other's.
template <std::size_t N>
__attribute__((target("sha,sse4.1"))) void compress_shani(
    std::array<std::uint32_t*, N> state, std::array<const std::uint8_t*, N> data,
    std::size_t blocks) {
  const __m128i byte_swap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i abef[N], cdgh[N];
  for (std::size_t s = 0; s < N; ++s) {
    __m128i cdab = _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state[s])), 0xb1);
    __m128i efgh = _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state[s] + 4)), 0x1b);
    abef[s] = _mm_alignr_epi8(cdab, efgh, 8);
    cdgh[s] = _mm_blend_epi16(efgh, cdab, 0xf0);
  }

  for (; blocks > 0; --blocks) {
    __m128i abef_in[N], cdgh_in[N], w[N][4];
    for (std::size_t s = 0; s < N; ++s) {
      abef_in[s] = abef[s];
      cdgh_in[s] = cdgh[s];
    }
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      const __m128i k = _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK.data() + g * 4));
#pragma GCC unroll 2
      for (std::size_t s = 0; s < N; ++s) {
        if (g < 4)
          w[s][g] = _mm_shuffle_epi8(
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(data[s] + g * 16)), byte_swap);
        __m128i wk = _mm_add_epi32(w[s][g % 4], k);
        cdgh[s] = _mm_sha256rnds2_epu32(cdgh[s], abef[s], wk);
        if (g >= 3 && g < 15) {  // W for group g + 1
          __m128i& next = w[s][(g + 1) % 4];
          next = _mm_add_epi32(next, _mm_alignr_epi8(w[s][g % 4], w[s][(g + 3) % 4], 4));
          next = _mm_sha256msg2_epu32(next, w[s][g % 4]);
        }
        abef[s] = _mm_sha256rnds2_epu32(abef[s], cdgh[s], _mm_shuffle_epi32(wk, 0x0e));
        if (g >= 1 && g < 13)  // first half of W for group g + 3
          w[s][(g + 3) % 4] = _mm_sha256msg1_epu32(w[s][(g + 3) % 4], w[s][g % 4]);
      }
    }
    for (std::size_t s = 0; s < N; ++s) {
      abef[s] = _mm_add_epi32(abef[s], abef_in[s]);
      cdgh[s] = _mm_add_epi32(cdgh[s], cdgh_in[s]);
      data[s] += 64;
    }
  }

  for (std::size_t s = 0; s < N; ++s) {
    __m128i feba = _mm_shuffle_epi32(abef[s], 0x1b);
    __m128i dchg = _mm_shuffle_epi32(cdgh[s], 0xb1);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state[s]), _mm_blend_epi16(feba, dchg, 0xf0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state[s] + 4), _mm_alignr_epi8(dchg, feba, 8));
  }
}

#endif  // x86

// Writes the padded final block(s) of a message of `total` bytes whose
// unhashed remainder (< 64 bytes) is `rest`; returns 1 or 2 blocks.
std::size_t pad_final(ByteView rest, std::uint64_t total, std::uint8_t (&out)[128]) {
  std::size_t blocks = rest.size() < 56 ? 1 : 2;
  std::fill(std::copy(rest.begin(), rest.end(), out), out + blocks * 64, std::uint8_t{0});
  out[rest.size()] = 0x80;
  std::uint64_t bits = total * 8;
  for (std::size_t i = 1; i <= 8; ++i, bits >>= 8)
    out[blocks * 64 - i] = static_cast<std::uint8_t>(bits);
  return blocks;
}

Sha256Digest to_digest(const std::array<std::uint32_t, 8>& state) {
  Sha256Digest digest;
  for (std::size_t i = 0; i < 8; ++i) {
    digest[i * 4] = static_cast<std::uint8_t>(state[i] >> 24);
    digest[i * 4 + 1] = static_cast<std::uint8_t>(state[i] >> 16);
    digest[i * 4 + 2] = static_cast<std::uint8_t>(state[i] >> 8);
    digest[i * 4 + 3] = static_cast<std::uint8_t>(state[i]);
  }
  return digest;
}

}  // namespace

Sha256::Kernel Sha256::default_kernel() {
  static const Kernel kernel = common::hardware_has_sha() && !common::force_scalar()
                                   ? Kernel::ShaNi
                                   : Kernel::Portable;
  return kernel;
}

Sha256::Sha256(Kernel kernel)
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19},
      kernel_(kernel) {
  if (kernel == Kernel::ShaNi && !common::hardware_has_sha())
    throw std::invalid_argument("SHA-NI kernel requested on a CPU without SHA-NI");
}

void Sha256::process_blocks(const std::uint8_t* data, std::size_t blocks) {
#if defined(__x86_64__) || defined(__i386__)
  if (kernel_ == Kernel::ShaNi) return compress_shani<1>({state_.data()}, {data}, blocks);
#endif
  for (; blocks > 0; --blocks, data += 64) compress_portable(state_.data(), data);
}

void Sha256::update(ByteView data) {
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    std::size_t to_copy = std::min(data.size(), buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), to_copy);
    buffered_ += static_cast<std::uint32_t>(to_copy);
    offset = to_copy;
    if (buffered_ == buffer_.size()) {
      process_blocks(buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  if (std::size_t whole = (data.size() - offset) / 64; whole > 0) {
    process_blocks(data.data() + offset, whole);
    offset += whole * 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = static_cast<std::uint32_t>(data.size() - offset);
  }
}

Sha256Digest Sha256::finish() {
  std::uint8_t last[128];
  process_blocks(last, pad_final({buffer_.data(), buffered_}, total_bytes_, last));
  return to_digest(state_);
}

std::array<Sha256Digest, 2> Sha256::finish_pair(Sha256 a, ByteView da, Sha256 b,
                                                 ByteView db) {
#if defined(__x86_64__) || defined(__i386__)
  if (a.kernel_ == Kernel::ShaNi && b.kernel_ == Kernel::ShaNi && a.buffered_ == 0 &&
      b.buffered_ == 0) {
    // Each message is two runs of blocks: its whole blocks in place,
    // then its padded final blocks. Both streams compress together
    // while each has blocks left in its current run.
    struct Run {
      const std::uint8_t* at;
      std::size_t blocks;
    };
    std::uint8_t last[2][128];
    Run runs[2][2];
    Sha256* h[2] = {&a, &b};
    ByteView msg[2] = {da, db};
    for (std::size_t s = 0; s < 2; ++s) {
      std::size_t whole = msg[s].size() / 64;
      runs[s][0] = {msg[s].data(), whole};
      runs[s][1] = {last[s], pad_final(msg[s].subspan(whole * 64),
                                       h[s]->total_bytes_ + msg[s].size(), last[s])};
    }
    std::size_t r[2] = {0, 0};
    for (;;) {
      for (std::size_t s = 0; s < 2; ++s)
        while (r[s] < 2 && runs[s][r[s]].blocks == 0) ++r[s];
      if (r[0] == 2 || r[1] == 2) break;
      Run& x = runs[0][r[0]];
      Run& y = runs[1][r[1]];
      std::size_t n = std::min(x.blocks, y.blocks);
      compress_shani<2>({a.state_.data(), b.state_.data()}, {x.at, y.at}, n);
      x = {x.at + n * 64, x.blocks - n};
      y = {y.at + n * 64, y.blocks - n};
    }
    for (std::size_t s = 0; s < 2; ++s)
      for (; r[s] < 2; ++r[s]) h[s]->process_blocks(runs[s][r[s]].at, runs[s][r[s]].blocks);
    return {to_digest(a.state_), to_digest(b.state_)};
  }
#endif
  a.update(da);
  b.update(db);
  return {a.finish(), b.finish()};
}

Sha256Digest Sha256::hash(ByteView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Bytes sha256(ByteView data) {
  auto d = Sha256::hash(data);
  return Bytes(d.begin(), d.end());
}

}  // namespace endbox::crypto
