#include "crypto/sha256.hpp"

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
// with four message vectors rotating through `w`.
__attribute__((target("sha,sse4.1"))) void compress_shani(std::uint32_t* state,
                                                          const std::uint8_t* data,
                                                          std::size_t blocks) {
  const __m128i byte_swap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i cdab = _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xb1);
  __m128i efgh = _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef, cdgh_in = cdgh;
    __m128i w[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      if (g < 4)
        w[g] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + g * 16)), byte_swap);
      __m128i wk = _mm_add_epi32(
          w[g % 4], _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK.data() + g * 4)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      if (g >= 3 && g < 15) {  // W for group g + 1
        __m128i& next = w[(g + 1) % 4];
        next = _mm_add_epi32(next, _mm_alignr_epi8(w[g % 4], w[(g + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, w[g % 4]);
      }
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
      if (g >= 1 && g < 13)  // first half of W for group g + 3
        w[(g + 3) % 4] = _mm_sha256msg1_epu32(w[(g + 3) % 4], w[g % 4]);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}

#endif  // x86

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
  if (kernel_ == Kernel::ShaNi) return compress_shani(state_.data(), data, blocks);
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
  std::uint64_t bit_len = total_bytes_ * 8;
  std::uint8_t pad[72] = {0x80};
  std::size_t pad_len = (buffered_ < 56) ? 56 - buffered_ : 120 - buffered_;
  update(ByteView(pad, pad_len));
  std::uint8_t len_be[8];
  for (int i = 7; i >= 0; --i) {
    len_be[i] = static_cast<std::uint8_t>(bit_len);
    bit_len >>= 8;
  }
  update(ByteView(len_be, 8));

  Sha256Digest digest;
  for (int i = 0; i < 8; ++i) {
    digest[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
    digest[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    digest[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    digest[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return digest;
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
