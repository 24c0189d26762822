// AES-128 block cipher (FIPS 197) with CBC and CTR modes.
//
// The VPN data channel uses AES-128-CBC + HMAC (encrypt-then-MAC), the
// TLS record layer uses AES-128-CTR, and the SGX sealing format uses
// AES-128-CTR with a sealing key derived from the measurement. Every
// mode has an in-place span variant so the VPN fast path encrypts
// without allocating or copying.
//
// Two kernels, chosen once per key schedule (Aes128::Kernel):
//   - AES-NI (Gueron, "Intel Advanced Encryption Standard (AES) New
//     Instructions Set", 2010): key expansion through AESKEYGENASSIST,
//     CBC encryption as one serial chain, and CBC decryption and CTR
//     four independent blocks at a time. Compiled with per-function
//     target attributes, so the binary runs on any x86-64.
//   - The portable fallback: the classic 32-bit T-table formulation
//     (four 1KB lookup tables per direction, generated at compile time
//     from the spec). ENDBOX_FORCE_SCALAR=1 pins it.
// Both produce the same bytes.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "common/bytes.hpp"
#include "common/result.hpp"

namespace endbox::crypto {

inline constexpr std::size_t kAesBlockSize = 16;
inline constexpr std::size_t kAesKeySize = 16;
using AesKey = std::array<std::uint8_t, kAesKeySize>;
using AesBlock = std::array<std::uint8_t, kAesBlockSize>;

/// AES-128 with expanded round keys. Encrypts/decrypts a single block.
/// Construction expands the key schedule once; sessions keep the object
/// alive so per-packet calls pay only the block transforms.
class Aes128 {
 public:
  enum class Kernel : std::uint8_t { Portable, AesNi };

  /// AES-NI when the CPU has it, unless ENDBOX_FORCE_SCALAR pins the
  /// portable kernel. Decided once per process: one-shot helpers build
  /// a schedule per call, so the environment is not re-read per record.
  static Kernel default_kernel();

  /// `kernel` (one the hardware has, or std::invalid_argument) is fixed
  /// for the schedule's life; tests pin each one.
  explicit Aes128(const AesKey& key, Kernel kernel = default_kernel());

  Kernel kernel() const { return kernel_; }

  void encrypt_block(const std::uint8_t* in, std::uint8_t* out) const;
  void decrypt_block(const std::uint8_t* in, std::uint8_t* out) const;

 private:
  friend void aes128_cbc_encrypt_inplace(const Aes128&, const std::uint8_t*,
                                         std::span<std::uint8_t>, std::size_t);
  friend Result<std::size_t> aes128_cbc_decrypt_inplace(
      const Aes128&, const std::uint8_t*, std::span<std::uint8_t>);
  friend void aes128_ctr_inplace(const Aes128&, const std::uint8_t*,
                                 std::span<std::uint8_t>);

  // Portable: 44 round-key words per direction in T-table order.
  // AES-NI: the same 176 bytes hold the 11 round keys in memory order
  // (the decryption keys through AESIMC); the kernels load them
  // unaligned.
  std::array<std::uint32_t, 44> ek_;  ///< encryption round keys
  std::array<std::uint32_t, 44> dk_;  ///< equivalent-inverse-cipher round keys
  Kernel kernel_;
};

/// Converts a Bytes key (must be 16 bytes) to an AesKey.
AesKey make_aes_key(ByteView key);

/// Size of `n` bytes of plaintext after PKCS#7 padding (always grows by
/// 1..16 bytes).
inline constexpr std::size_t cbc_padded_size(std::size_t n) {
  return n + (kAesBlockSize - n % kAesBlockSize);
}

/// In-place CBC encrypt: `buf` must hold cbc_padded_size(plaintext_len)
/// bytes with the plaintext in the leading plaintext_len bytes; the
/// PKCS#7 padding is written and the whole buffer encrypted in place.
/// `iv` points at 16 bytes.
void aes128_cbc_encrypt_inplace(const Aes128& aes, const std::uint8_t* iv,
                                std::span<std::uint8_t> buf,
                                std::size_t plaintext_len);

/// In-place CBC decrypt + padding check; returns the plaintext length
/// (the plaintext occupies the leading bytes of `buf`).
Result<std::size_t> aes128_cbc_decrypt_inplace(const Aes128& aes,
                                               const std::uint8_t* iv,
                                               std::span<std::uint8_t> buf);

/// In-place CTR transform (encrypt == decrypt). `nonce` points at 16
/// bytes and must be unique per key.
void aes128_ctr_inplace(const Aes128& aes, const std::uint8_t* nonce,
                        std::span<std::uint8_t> data);

/// CBC mode with PKCS#7 padding. `iv` must be 16 bytes.
Bytes aes128_cbc_encrypt(const AesKey& key, ByteView iv, ByteView plaintext);
/// Returns an error on bad IV size, non-block-multiple input, or invalid
/// padding (the caller should already have authenticated the ciphertext).
Result<Bytes> aes128_cbc_decrypt(const AesKey& key, ByteView iv,
                                 ByteView ciphertext);

/// CTR mode: encryption and decryption are the same operation. `nonce`
/// must be 16 bytes and unique per key.
Bytes aes128_ctr(const AesKey& key, ByteView nonce, ByteView data);

}  // namespace endbox::crypto
