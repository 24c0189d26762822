#include "crypto/aes.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "common/cpu_features.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace endbox::crypto {

namespace {

// S-box generated from the AES definition (multiplicative inverse in
// GF(2^8) followed by the affine transform).
constexpr std::array<std::uint8_t, 256> make_sbox() {
  std::array<std::uint8_t, 256> sbox{};
  // Build log/antilog tables over GF(2^8) with generator 3.
  std::array<std::uint8_t, 256> log{}, alog{};
  std::uint8_t x = 1;
  for (int i = 0; i < 255; ++i) {
    alog[i] = x;
    log[x] = static_cast<std::uint8_t>(i);
    // multiply x by generator 3 = x ^ (x*2)
    std::uint8_t x2 = static_cast<std::uint8_t>((x << 1) ^ ((x & 0x80) ? 0x1b : 0));
    x = static_cast<std::uint8_t>(x ^ x2);
  }
  for (int i = 0; i < 256; ++i) {
    // g^255 == g^0 == 1, so reduce the exponent mod 255 (alog has 255 entries).
    std::uint8_t inv =
        (i == 0) ? 0 : alog[(255 - log[static_cast<std::uint8_t>(i)]) % 255];
    std::uint8_t s = inv;
    // affine transform: s ^= rotl(inv,1..4) ^ 0x63
    std::uint8_t r = inv;
    for (int j = 0; j < 4; ++j) {
      r = static_cast<std::uint8_t>((r << 1) | (r >> 7));
      s ^= r;
    }
    sbox[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(s ^ 0x63);
  }
  return sbox;
}

constexpr std::array<std::uint8_t, 256> kSbox = make_sbox();

constexpr std::array<std::uint8_t, 256> make_inv_sbox() {
  std::array<std::uint8_t, 256> inv{};
  for (int i = 0; i < 256; ++i) inv[kSbox[static_cast<std::size_t>(i)]] = static_cast<std::uint8_t>(i);
  return inv;
}

constexpr std::array<std::uint8_t, 256> kInvSbox = make_inv_sbox();

inline constexpr std::uint8_t xtime(std::uint8_t a) {
  return static_cast<std::uint8_t>((a << 1) ^ ((a & 0x80) ? 0x1b : 0));
}

// Precomputed GF(2^8) multiplication tables for the MixColumns /
// InvMixColumns constants used while generating the T-tables.
template <std::uint8_t C>
constexpr std::array<std::uint8_t, 256> make_gmul_table() {
  std::array<std::uint8_t, 256> table{};
  for (int i = 0; i < 256; ++i) {
    std::uint8_t a = static_cast<std::uint8_t>(i), b = C, r = 0;
    while (b) {
      if (b & 1) r ^= a;
      a = static_cast<std::uint8_t>((a << 1) ^ ((a & 0x80) ? 0x1b : 0));
      b >>= 1;
    }
    table[static_cast<std::size_t>(i)] = r;
  }
  return table;
}
constexpr auto kMul2 = make_gmul_table<2>();
constexpr auto kMul3 = make_gmul_table<3>();
constexpr auto kMul9 = make_gmul_table<9>();
constexpr auto kMul11 = make_gmul_table<11>();
constexpr auto kMul13 = make_gmul_table<13>();
constexpr auto kMul14 = make_gmul_table<14>();

// T-tables (rijndael-alg-fst formulation): each entry is one S-box
// substitution pre-multiplied through MixColumns, so a full round is 16
// table lookups + XORs instead of per-byte GF arithmetic. Te{1,2,3} and
// Td{1,2,3} are byte rotations of Te0/Td0.
constexpr std::array<std::uint32_t, 256> make_te(unsigned rot) {
  std::array<std::uint32_t, 256> t{};
  for (int i = 0; i < 256; ++i) {
    std::uint8_t s = kSbox[static_cast<std::size_t>(i)];
    std::uint32_t w = (static_cast<std::uint32_t>(kMul2[s]) << 24) |
                      (static_cast<std::uint32_t>(s) << 16) |
                      (static_cast<std::uint32_t>(s) << 8) |
                      static_cast<std::uint32_t>(kMul3[s]);
    t[static_cast<std::size_t>(i)] = std::rotr(w, static_cast<int>(rot));
  }
  return t;
}

constexpr std::array<std::uint32_t, 256> make_td(unsigned rot) {
  std::array<std::uint32_t, 256> t{};
  for (int i = 0; i < 256; ++i) {
    std::uint8_t s = kInvSbox[static_cast<std::size_t>(i)];
    std::uint32_t w = (static_cast<std::uint32_t>(kMul14[s]) << 24) |
                      (static_cast<std::uint32_t>(kMul9[s]) << 16) |
                      (static_cast<std::uint32_t>(kMul13[s]) << 8) |
                      static_cast<std::uint32_t>(kMul11[s]);
    t[static_cast<std::size_t>(i)] = std::rotr(w, static_cast<int>(rot));
  }
  return t;
}

constexpr auto kTe0 = make_te(0), kTe1 = make_te(8), kTe2 = make_te(16), kTe3 = make_te(24);
constexpr auto kTd0 = make_td(0), kTd1 = make_td(8), kTd2 = make_td(16), kTd3 = make_td(24);

inline constexpr std::uint32_t sub_word(std::uint32_t w) {
  return (static_cast<std::uint32_t>(kSbox[w >> 24]) << 24) |
         (static_cast<std::uint32_t>(kSbox[(w >> 16) & 0xff]) << 16) |
         (static_cast<std::uint32_t>(kSbox[(w >> 8) & 0xff]) << 8) |
         static_cast<std::uint32_t>(kSbox[w & 0xff]);
}

// InvMixColumns of one round-key word, expressed via the decryption
// T-tables (Td contains InvSbox, which S cancels).
inline constexpr std::uint32_t inv_mix_word(std::uint32_t w) {
  return kTd0[kSbox[w >> 24]] ^ kTd1[kSbox[(w >> 16) & 0xff]] ^
         kTd2[kSbox[(w >> 8) & 0xff]] ^ kTd3[kSbox[w & 0xff]];
}

#if defined(__x86_64__) || defined(__i386__)

// ---- AES-NI kernels ----------------------------------------------------
// The round keys sit in the schedule's word arrays as 11 16-byte keys;
// each kernel loads them into registers once per call.

__attribute__((target("aes,sse2"))) inline __m128i load_block(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

__attribute__((target("aes,sse2"))) inline void store_block(std::uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

__attribute__((target("aes,sse2"))) inline void load_round_keys(
    const std::uint32_t* words, __m128i (&rk)[11]) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(words);
  for (int r = 0; r < 11; ++r) rk[r] = load_block(bytes + r * 16);
}

// Key expansion step (Gueron 2010): fold the previous round
// key into itself word by word and XOR in AESKEYGENASSIST's
// RotWord(SubWord(w3)) ^ rcon.
__attribute__((target("aes,sse2"))) inline __m128i expand_step(__m128i key,
                                                                __m128i assist) {
  assist = _mm_shuffle_epi32(assist, 0xff);
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  return _mm_xor_si128(key, assist);
}

// Writes the encryption round keys to `ek` and the equivalent inverse
// cipher's (reversed, AESIMC on rounds 1-9) to `dk`.
__attribute__((target("aes,sse2"))) void expand_key_aesni(const std::uint8_t* key,
                                                          std::uint32_t* ek,
                                                          std::uint32_t* dk) {
  __m128i rk[11];
  rk[0] = load_block(key);
  rk[1] = expand_step(rk[0], _mm_aeskeygenassist_si128(rk[0], 0x01));
  rk[2] = expand_step(rk[1], _mm_aeskeygenassist_si128(rk[1], 0x02));
  rk[3] = expand_step(rk[2], _mm_aeskeygenassist_si128(rk[2], 0x04));
  rk[4] = expand_step(rk[3], _mm_aeskeygenassist_si128(rk[3], 0x08));
  rk[5] = expand_step(rk[4], _mm_aeskeygenassist_si128(rk[4], 0x10));
  rk[6] = expand_step(rk[5], _mm_aeskeygenassist_si128(rk[5], 0x20));
  rk[7] = expand_step(rk[6], _mm_aeskeygenassist_si128(rk[6], 0x40));
  rk[8] = expand_step(rk[7], _mm_aeskeygenassist_si128(rk[7], 0x80));
  rk[9] = expand_step(rk[8], _mm_aeskeygenassist_si128(rk[8], 0x1b));
  rk[10] = expand_step(rk[9], _mm_aeskeygenassist_si128(rk[9], 0x36));
  auto* enc = reinterpret_cast<std::uint8_t*>(ek);
  auto* dec = reinterpret_cast<std::uint8_t*>(dk);
  for (int r = 0; r < 11; ++r) store_block(enc + r * 16, rk[r]);
  store_block(dec, rk[10]);
  for (int r = 1; r < 10; ++r) store_block(dec + r * 16, _mm_aesimc_si128(rk[10 - r]));
  store_block(dec + 160, rk[0]);
}

// Runs N independent blocks through the ten rounds side by side, so
// each round's AESENC/AESDEC latency overlaps the others'.
template <bool Decrypt, std::size_t N>
__attribute__((target("aes,sse2"))) inline void rounds(__m128i (&b)[N],
                                                       const __m128i (&rk)[11]) {
#pragma GCC unroll 8
  for (auto& x : b) x = _mm_xor_si128(x, rk[0]);
#pragma GCC unroll 9
  for (int r = 1; r < 10; ++r)
#pragma GCC unroll 8
    for (auto& x : b) x = Decrypt ? _mm_aesdec_si128(x, rk[r]) : _mm_aesenc_si128(x, rk[r]);
#pragma GCC unroll 8
  for (auto& x : b)
    x = Decrypt ? _mm_aesdeclast_si128(x, rk[10]) : _mm_aesenclast_si128(x, rk[10]);
}

template <bool Decrypt>
__attribute__((target("aes,sse2"))) inline __m128i rounds1(__m128i x,
                                                           const __m128i (&rk)[11]) {
  __m128i b[1] = {x};
  rounds<Decrypt>(b, rk);
  return b[0];
}

// One block with the round keys in `words` (ek_ to encrypt, dk_ to decrypt).
template <bool Decrypt>
__attribute__((target("aes,sse2"))) void block_aesni(const std::uint32_t* words,
                                                     const std::uint8_t* in,
                                                     std::uint8_t* out) {
  __m128i rk[11];
  load_round_keys(words, rk);
  store_block(out, rounds1<Decrypt>(load_block(in), rk));
}

// One CBC encryption in flight: the next block, the blocks left and the
// chaining value (the IV, then the last ciphertext block).
struct CbcLane {
  std::uint8_t* next;
  std::size_t left;
  const std::uint8_t* prev;
};

// CBC encryption is one dependent chain per buffer: each block waits
// for the last. N independent chains advance `blocks` blocks round by
// round side by side, so each AESENC's latency overlaps the others'.
template <std::size_t N>
__attribute__((target("aes,sse2"))) void cbc_encrypt_aesni(const std::uint32_t* ek,
                                                           CbcLane* lanes,
                                                           std::size_t blocks) {
  __m128i rk[11];
  load_round_keys(ek, rk);
  __m128i chain[N];
  std::uint8_t* p[N];
#pragma GCC unroll 8
  for (std::size_t j = 0; j < N; ++j) {
    chain[j] = load_block(lanes[j].prev);
    p[j] = lanes[j].next;
  }
  for (std::size_t i = 0; i < blocks; ++i) {
#pragma GCC unroll 8
    for (std::size_t j = 0; j < N; ++j)
      chain[j] = _mm_xor_si128(load_block(p[j] + i * kAesBlockSize), chain[j]);
    rounds<false>(chain, rk);
#pragma GCC unroll 8
    for (std::size_t j = 0; j < N; ++j) store_block(p[j] + i * kAesBlockSize, chain[j]);
  }
  for (std::size_t j = 0; j < N; ++j) {
    lanes[j].next += blocks * kAesBlockSize;
    lanes[j].prev = lanes[j].next - kAesBlockSize;
    lanes[j].left -= blocks;
  }
}

template <std::size_t... N>
constexpr auto cbc_encrypt_kernels(std::index_sequence<N...>) {
  return std::array{&cbc_encrypt_aesni<N + 1>...};
}

// The multi-buffer scheduler: up to eight lanes run together until the
// shortest ends, and each chain that ends hands its lane to the next
// waiting chain.
void cbc_encrypt_chains_aesni(const std::uint32_t* ek, std::span<const CbcChain> chains) {
  static constexpr auto kKernels = cbc_encrypt_kernels(std::make_index_sequence<8>());
  CbcLane lanes[kKernels.size()];
  std::size_t busy = 0;
  for (auto next = chains.begin();;) {
    for (; busy < kKernels.size() && next != chains.end(); ++next)
      lanes[busy++] = {next->buf.data(), next->buf.size() / kAesBlockSize, next->iv};
    if (busy == 0) return;
    std::size_t step = lanes[0].left;
    for (std::size_t j = 1; j < busy; ++j) step = std::min(step, lanes[j].left);
    kKernels[busy - 1](ek, lanes, step);
    busy = static_cast<std::size_t>(
        std::remove_if(lanes, lanes + busy, [](const CbcLane& l) { return l.left == 0; }) -
        lanes);
  }
}

// CBC decryption's blocks are independent (each needs only its own and
// the previous ciphertext), so they run four at a time.
__attribute__((target("aes,sse2"))) void cbc_decrypt_aesni(const std::uint32_t* dk,
                                                           const std::uint8_t* iv,
                                                           std::uint8_t* buf,
                                                           std::size_t blocks) {
  __m128i rk[11];
  load_round_keys(dk, rk);
  __m128i prev = load_block(iv);
  std::size_t i = 0;
  for (; i + 4 <= blocks; i += 4, buf += 4 * kAesBlockSize) {
    __m128i ct[4], pt[4];
#pragma GCC unroll 4
    for (int j = 0; j < 4; ++j) pt[j] = ct[j] = load_block(buf + j * kAesBlockSize);
    rounds<true>(pt, rk);
    store_block(buf, _mm_xor_si128(pt[0], prev));
#pragma GCC unroll 3
    for (int j = 1; j < 4; ++j)
      store_block(buf + j * kAesBlockSize, _mm_xor_si128(pt[j], ct[j - 1]));
    prev = ct[3];
  }
  for (; i < blocks; ++i, buf += kAesBlockSize) {
    __m128i ct = load_block(buf);
    store_block(buf, _mm_xor_si128(rounds1<true>(ct, rk), prev));
    prev = ct;
  }
}

// The 128-bit big-endian counter block for (hi, lo), then hi:lo + 1 —
// the carry crosses all 16 bytes, as the portable byte loop's does.
__attribute__((target("aes,sse2"))) inline __m128i next_counter(std::uint64_t& hi,
                                                                std::uint64_t& lo) {
  __m128i block = _mm_set_epi64x(static_cast<long long>(__builtin_bswap64(lo)),
                                 static_cast<long long>(__builtin_bswap64(hi)));
  if (++lo == 0) ++hi;
  return block;
}

__attribute__((target("aes,sse2"))) void ctr_aesni(const std::uint32_t* ek,
                                                   const std::uint8_t* nonce,
                                                   std::uint8_t* data, std::size_t len) {
  __m128i rk[11];
  load_round_keys(ek, rk);
  std::uint64_t hi = get_u64(nonce), lo = get_u64(nonce + 8);
  std::size_t off = 0;
  for (; off + 4 * kAesBlockSize <= len; off += 4 * kAesBlockSize) {
    __m128i ks[4];
#pragma GCC unroll 4
    for (auto& x : ks) x = next_counter(hi, lo);
    rounds<false>(ks, rk);
#pragma GCC unroll 4
    for (int j = 0; j < 4; ++j) {
      std::uint8_t* p = data + off + j * kAesBlockSize;
      store_block(p, _mm_xor_si128(load_block(p), ks[j]));
    }
  }
  for (; off < len; off += kAesBlockSize) {
    __m128i ks = rounds1<false>(next_counter(hi, lo), rk);
    std::size_t n = std::min(kAesBlockSize, len - off);
    if (n == kAesBlockSize) {
      store_block(data + off, _mm_xor_si128(load_block(data + off), ks));
    } else {  // partial tail: no 16-byte access past the buffer
      std::uint8_t tail[kAesBlockSize];
      store_block(tail, ks);
      for (std::size_t i = 0; i < n; ++i) data[off + i] ^= tail[i];
    }
  }
}

#endif  // x86

// Checks the PKCS#7 padding of a decrypted buffer; returns the
// plaintext length.
Result<std::size_t> pkcs7_plaintext_len(std::span<const std::uint8_t> buf) {
  std::uint8_t pad = buf.back();
  if (pad == 0 || pad > kAesBlockSize || pad > buf.size()) return err("bad CBC padding");
  for (std::size_t i = buf.size() - pad; i < buf.size(); ++i)
    if (buf[i] != pad) return err("bad CBC padding");
  return buf.size() - pad;
}

}  // namespace

Aes128::Kernel Aes128::default_kernel() {
  static const Kernel kernel = common::hardware_has_aes() && !common::force_scalar()
                                   ? Kernel::AesNi
                                   : Kernel::Portable;
  return kernel;
}

Aes128::Aes128(const AesKey& key, Kernel kernel) : kernel_(kernel) {
  if (kernel == Kernel::AesNi) {
    if (!common::hardware_has_aes())
      throw std::invalid_argument("AES-NI kernel requested on a CPU without AES-NI");
#if defined(__x86_64__) || defined(__i386__)
    expand_key_aesni(key.data(), ek_.data(), dk_.data());
    return;
#endif
  }
  for (int i = 0; i < 4; ++i) ek_[static_cast<std::size_t>(i)] = get_u32(key.data() + i * 4);
  std::uint8_t rcon = 1;
  for (std::size_t i = 4; i < 44; ++i) {
    std::uint32_t temp = ek_[i - 1];
    if (i % 4 == 0) {
      temp = sub_word(std::rotl(temp, 8)) ^ (static_cast<std::uint32_t>(rcon) << 24);
      rcon = xtime(rcon);
    }
    ek_[i] = ek_[i - 4] ^ temp;
  }
  // Equivalent inverse cipher: round keys in reverse round order, with
  // InvMixColumns applied to all but the first and last.
  for (std::size_t r = 0; r <= 10; ++r)
    for (std::size_t w = 0; w < 4; ++w) dk_[r * 4 + w] = ek_[(10 - r) * 4 + w];
  for (std::size_t i = 4; i < 40; ++i) dk_[i] = inv_mix_word(dk_[i]);
}

void Aes128::encrypt_block(const std::uint8_t* in, std::uint8_t* out) const {
#if defined(__x86_64__) || defined(__i386__)
  if (kernel_ == Kernel::AesNi) return block_aesni<false>(ek_.data(), in, out);
#endif
  std::uint32_t s0 = get_u32(in) ^ ek_[0];
  std::uint32_t s1 = get_u32(in + 4) ^ ek_[1];
  std::uint32_t s2 = get_u32(in + 8) ^ ek_[2];
  std::uint32_t s3 = get_u32(in + 12) ^ ek_[3];
  for (int round = 1; round < 10; ++round) {
    const std::uint32_t* rk = ek_.data() + round * 4;
    std::uint32_t t0 = kTe0[s0 >> 24] ^ kTe1[(s1 >> 16) & 0xff] ^
                       kTe2[(s2 >> 8) & 0xff] ^ kTe3[s3 & 0xff] ^ rk[0];
    std::uint32_t t1 = kTe0[s1 >> 24] ^ kTe1[(s2 >> 16) & 0xff] ^
                       kTe2[(s3 >> 8) & 0xff] ^ kTe3[s0 & 0xff] ^ rk[1];
    std::uint32_t t2 = kTe0[s2 >> 24] ^ kTe1[(s3 >> 16) & 0xff] ^
                       kTe2[(s0 >> 8) & 0xff] ^ kTe3[s1 & 0xff] ^ rk[2];
    std::uint32_t t3 = kTe0[s3 >> 24] ^ kTe1[(s0 >> 16) & 0xff] ^
                       kTe2[(s1 >> 8) & 0xff] ^ kTe3[s2 & 0xff] ^ rk[3];
    s0 = t0; s1 = t1; s2 = t2; s3 = t3;
  }
  const std::uint32_t* rk = ek_.data() + 40;
  put_u32(out, (sub_word((s0 & 0xff000000u) | (s1 & 0x00ff0000u) |
                         (s2 & 0x0000ff00u) | (s3 & 0x000000ffu))) ^ rk[0]);
  put_u32(out + 4, (sub_word((s1 & 0xff000000u) | (s2 & 0x00ff0000u) |
                             (s3 & 0x0000ff00u) | (s0 & 0x000000ffu))) ^ rk[1]);
  put_u32(out + 8, (sub_word((s2 & 0xff000000u) | (s3 & 0x00ff0000u) |
                             (s0 & 0x0000ff00u) | (s1 & 0x000000ffu))) ^ rk[2]);
  put_u32(out + 12, (sub_word((s3 & 0xff000000u) | (s0 & 0x00ff0000u) |
                              (s1 & 0x0000ff00u) | (s2 & 0x000000ffu))) ^ rk[3]);
}

void Aes128::decrypt_block(const std::uint8_t* in, std::uint8_t* out) const {
#if defined(__x86_64__) || defined(__i386__)
  if (kernel_ == Kernel::AesNi) return block_aesni<true>(dk_.data(), in, out);
#endif
  std::uint32_t s0 = get_u32(in) ^ dk_[0];
  std::uint32_t s1 = get_u32(in + 4) ^ dk_[1];
  std::uint32_t s2 = get_u32(in + 8) ^ dk_[2];
  std::uint32_t s3 = get_u32(in + 12) ^ dk_[3];
  for (int round = 1; round < 10; ++round) {
    const std::uint32_t* rk = dk_.data() + round * 4;
    std::uint32_t t0 = kTd0[s0 >> 24] ^ kTd1[(s3 >> 16) & 0xff] ^
                       kTd2[(s2 >> 8) & 0xff] ^ kTd3[s1 & 0xff] ^ rk[0];
    std::uint32_t t1 = kTd0[s1 >> 24] ^ kTd1[(s0 >> 16) & 0xff] ^
                       kTd2[(s3 >> 8) & 0xff] ^ kTd3[s2 & 0xff] ^ rk[1];
    std::uint32_t t2 = kTd0[s2 >> 24] ^ kTd1[(s1 >> 16) & 0xff] ^
                       kTd2[(s0 >> 8) & 0xff] ^ kTd3[s3 & 0xff] ^ rk[2];
    std::uint32_t t3 = kTd0[s3 >> 24] ^ kTd1[(s2 >> 16) & 0xff] ^
                       kTd2[(s1 >> 8) & 0xff] ^ kTd3[s0 & 0xff] ^ rk[3];
    s0 = t0; s1 = t1; s2 = t2; s3 = t3;
  }
  const std::uint32_t* rk = dk_.data() + 40;
  auto inv_sub = [](std::uint32_t a, std::uint32_t b, std::uint32_t c,
                    std::uint32_t d) {
    return (static_cast<std::uint32_t>(kInvSbox[a >> 24]) << 24) |
           (static_cast<std::uint32_t>(kInvSbox[(b >> 16) & 0xff]) << 16) |
           (static_cast<std::uint32_t>(kInvSbox[(c >> 8) & 0xff]) << 8) |
           static_cast<std::uint32_t>(kInvSbox[d & 0xff]);
  };
  put_u32(out, inv_sub(s0, s3, s2, s1) ^ rk[0]);
  put_u32(out + 4, inv_sub(s1, s0, s3, s2) ^ rk[1]);
  put_u32(out + 8, inv_sub(s2, s1, s0, s3) ^ rk[2]);
  put_u32(out + 12, inv_sub(s3, s2, s1, s0) ^ rk[3]);
}

AesKey make_aes_key(ByteView key) {
  if (key.size() != kAesKeySize) throw std::invalid_argument("AES key must be 16 bytes");
  AesKey k;
  std::memcpy(k.data(), key.data(), kAesKeySize);
  return k;
}

void aes128_cbc_encrypt_chains(const Aes128& aes, std::span<const CbcChain> chains) {
  for (const CbcChain& c : chains) {
    if (c.buf.size() != cbc_padded_size(c.plaintext_len))
      throw std::invalid_argument("CBC buffer must be the padded size");
    std::uint8_t pad = static_cast<std::uint8_t>(c.buf.size() - c.plaintext_len);
    std::fill(c.buf.begin() + static_cast<std::ptrdiff_t>(c.plaintext_len), c.buf.end(), pad);
  }
#if defined(__x86_64__) || defined(__i386__)
  if (aes.kernel_ == Aes128::Kernel::AesNi)
    return cbc_encrypt_chains_aesni(aes.ek_.data(), chains);
#endif
  for (const CbcChain& c : chains) {
    const std::uint8_t* prev = c.iv;
    for (std::size_t off = 0; off < c.buf.size(); off += kAesBlockSize) {
      std::uint8_t* block = c.buf.data() + off;
      for (std::size_t i = 0; i < kAesBlockSize; ++i) block[i] ^= prev[i];
      aes.encrypt_block(block, block);
      prev = block;
    }
  }
}

void aes128_cbc_encrypt_inplace(const Aes128& aes, const std::uint8_t* iv,
                                std::span<std::uint8_t> buf,
                                std::size_t plaintext_len) {
  const CbcChain chain{iv, buf, plaintext_len};
  aes128_cbc_encrypt_chains(aes, {&chain, 1});
}

Result<std::size_t> aes128_cbc_decrypt_inplace(const Aes128& aes,
                                               const std::uint8_t* iv,
                                               std::span<std::uint8_t> buf) {
  if (buf.empty() || buf.size() % kAesBlockSize != 0)
    return err("CBC ciphertext must be a positive multiple of 16 bytes");
#if defined(__x86_64__) || defined(__i386__)
  if (aes.kernel_ == Aes128::Kernel::AesNi) {
    cbc_decrypt_aesni(aes.dk_.data(), iv, buf.data(), buf.size() / kAesBlockSize);
    return pkcs7_plaintext_len(buf);
  }
#endif
  std::uint8_t prev[kAesBlockSize];
  std::memcpy(prev, iv, kAesBlockSize);
  for (std::size_t off = 0; off < buf.size(); off += kAesBlockSize) {
    std::uint8_t* block = buf.data() + off;
    std::uint8_t saved[kAesBlockSize];
    std::memcpy(saved, block, kAesBlockSize);
    aes.decrypt_block(block, block);
    for (std::size_t i = 0; i < kAesBlockSize; ++i) block[i] ^= prev[i];
    std::memcpy(prev, saved, kAesBlockSize);
  }
  return pkcs7_plaintext_len(buf);
}

void aes128_ctr_inplace(const Aes128& aes, const std::uint8_t* nonce,
                        std::span<std::uint8_t> data) {
#if defined(__x86_64__) || defined(__i386__)
  if (aes.kernel_ == Aes128::Kernel::AesNi)
    return ctr_aesni(aes.ek_.data(), nonce, data.data(), data.size());
#endif
  std::uint8_t counter[kAesBlockSize];
  std::memcpy(counter, nonce, kAesBlockSize);
  std::uint8_t keystream[kAesBlockSize];
  for (std::size_t off = 0; off < data.size(); off += kAesBlockSize) {
    aes.encrypt_block(counter, keystream);
    std::size_t n = std::min(kAesBlockSize, data.size() - off);
    for (std::size_t i = 0; i < n; ++i) data[off + i] ^= keystream[i];
    // increment big-endian counter
    for (int i = kAesBlockSize - 1; i >= 0; --i)
      if (++counter[i] != 0) break;
  }
}

Bytes aes128_cbc_encrypt(const AesKey& key, ByteView iv, ByteView plaintext) {
  if (iv.size() != kAesBlockSize) throw std::invalid_argument("CBC IV must be 16 bytes");
  Aes128 aes(key);
  Bytes out(cbc_padded_size(plaintext.size()));
  if (!plaintext.empty()) std::memcpy(out.data(), plaintext.data(), plaintext.size());
  aes128_cbc_encrypt_inplace(aes, iv.data(), out, plaintext.size());
  return out;
}

Result<Bytes> aes128_cbc_decrypt(const AesKey& key, ByteView iv,
                                 ByteView ciphertext) {
  if (iv.size() != kAesBlockSize) return err("CBC IV must be 16 bytes");
  Aes128 aes(key);
  Bytes out(ciphertext.begin(), ciphertext.end());
  auto len = aes128_cbc_decrypt_inplace(aes, iv.data(), out);
  if (!len.ok()) return err(len.error());
  out.resize(*len);
  return out;
}

Bytes aes128_ctr(const AesKey& key, ByteView nonce, ByteView data) {
  if (nonce.size() != kAesBlockSize) throw std::invalid_argument("CTR nonce must be 16 bytes");
  Aes128 aes(key);
  Bytes out(data.begin(), data.end());
  aes128_ctr_inplace(aes, nonce.data(), out);
  return out;
}

}  // namespace endbox::crypto
