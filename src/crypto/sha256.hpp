// SHA-256 (FIPS 180-4). Used for enclave measurements, HMAC, key
// derivation and certificate digests. No external dependencies.
//
// Two compression kernels, chosen once per hash state (Sha256::Kernel):
//   - SHA-NI (Gulley et al., "Intel SHA Extensions", 2013): SHA256RNDS2
//     runs two rounds per instruction and SHA256MSG1/MSG2 extend the
//     message schedule. Compiled with a per-function target attribute,
//     so the binary runs on any x86-64.
//   - The portable fallback, written from the spec. ENDBOX_FORCE_SCALAR=1
//     pins it.
// update() hands the kernel every whole block of its input at once.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace endbox::crypto {

inline constexpr std::size_t kSha256DigestSize = 32;
using Sha256Digest = std::array<std::uint8_t, kSha256DigestSize>;

class Sha256 {
 public:
  enum class Kernel : std::uint8_t { Portable, ShaNi };

  /// SHA-NI when the CPU has it, unless ENDBOX_FORCE_SCALAR pins the
  /// portable kernel. Decided once per process: the one-shot helpers
  /// build a state per message, so the environment is not re-read then.
  static Kernel default_kernel();

  /// `kernel` (one the hardware has, or std::invalid_argument) is fixed
  /// for the state's life and carried by its copies; tests pin each one.
  explicit Sha256(Kernel kernel = default_kernel());

  Kernel kernel() const { return kernel_; }

  void update(ByteView data);
  Sha256Digest finish();

  /// One-shot convenience.
  static Sha256Digest hash(ByteView data);

 private:
  /// Compresses `blocks` consecutive 64-byte blocks into the state.
  void process_blocks(const std::uint8_t* data, std::size_t blocks);

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::uint32_t buffered_ = 0;  ///< bytes in buffer_, always < 64
  Kernel kernel_;
  std::uint64_t total_bytes_ = 0;
};

/// Digest as a Bytes value (handy for wire formats).
Bytes sha256(ByteView data);

}  // namespace endbox::crypto
