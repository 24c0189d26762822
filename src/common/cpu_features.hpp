// Runtime CPU-feature dispatch for the SIMD and crypto kernels on the
// data path.
//
// Kernels are compiled with per-function target attributes (so the
// translation unit needs no special -m flags and the binary stays
// runnable on any x86-64), and the caller picks the widest level the
// machine supports at runtime: the prefilter's SSSE3/AVX2 scan, and
// AES-NI and SHA-NI for the tunnel crypto. Setting ENDBOX_FORCE_SCALAR=1
// in the environment pins the portable paths (the SWAR prefilter, the
// T-table AES and the spec SHA-256) — sanitizer CI legs and benches use
// it to exercise the fallbacks deterministically on machines that do
// have the instructions.
#pragma once

#include <cstdlib>
#include <cstring>

namespace endbox::common {

enum class SimdLevel { Scalar, Ssse3, Avx2 };

/// What the hardware supports, ignoring the environment override.
inline SimdLevel hardware_simd_level() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2")) return SimdLevel::Avx2;
  if (__builtin_cpu_supports("ssse3")) return SimdLevel::Ssse3;
#endif
  return SimdLevel::Scalar;
}

/// AES-NI round instructions. Probed apart from SHA-NI: a host can
/// have either without the other.
inline bool hardware_has_aes() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("aes") && __builtin_cpu_supports("sse2");
#else
  return false;
#endif
}

/// SHA-NI (SHA256RNDS2/MSG1/MSG2), plus the SSE4.1 shuffles the
/// compression kernel uses around them.
inline bool hardware_has_sha() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

/// True when ENDBOX_FORCE_SCALAR is set to anything but "" or "0".
inline bool force_scalar() {
  const char* value = std::getenv("ENDBOX_FORCE_SCALAR");
  return value != nullptr && value[0] != '\0' &&
         std::strcmp(value, "0") != 0;
}

/// The dispatch level to use now: the hardware level, unless the
/// override pins the scalar path. Re-reads the environment on every
/// call (dispatch decisions are made at build/compile time of a
/// matcher, not per packet), so tests can flip the override between
/// engine constructions within one process.
inline SimdLevel current_simd_level() {
  if (force_scalar()) return SimdLevel::Scalar;
  return hardware_simd_level();
}

inline const char* simd_level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::Avx2:
      return "avx2";
    case SimdLevel::Ssse3:
      return "ssse3";
    default:
      return "scalar";
  }
}

}  // namespace endbox::common
