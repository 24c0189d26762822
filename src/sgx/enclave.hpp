// Enclave runtime: lifecycle, transition accounting, EPC accounting,
// sealing and report creation.
//
// Concrete enclaves (the EndBox enclave in src/endbox) derive from
// `Enclave` and implement their ecalls as methods guarded by
// `EcallGuard`, which (i) refuses entry when the enclave is not
// initialised (the untrusted host controls the life cycle — the DoS
// attack of section V-A), and (ii) counts transitions so the perf model
// can charge them and tests can assert the "one ecall per packet"
// optimisation (section IV-A).
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "sgx/platform.hpp"
#include "sgx/quote.hpp"

namespace endbox::sgx {

/// EPC is 128 MB per machine in SGXv1; exceeding it forces paging with
/// a severe performance penalty (section II-C). The runtime tracks
/// usage so oversized configurations are observable.
inline constexpr std::size_t kEpcBytes = 128 * 1024 * 1024;

struct TransitionStats {
  std::uint64_t ecalls = 0;
  std::uint64_t ocalls = 0;
  std::uint64_t rejected_entries = 0;  ///< ecalls attempted while destroyed
};

class Enclave {
 public:
  /// Measures `code_identity` and initialises the enclave on `platform`.
  Enclave(SgxPlatform& platform, std::string code_identity, SgxMode mode);
  virtual ~Enclave() = default;

  Enclave(const Enclave&) = delete;
  Enclave& operator=(const Enclave&) = delete;

  const Measurement& measurement() const { return measurement_; }
  SgxMode mode() const { return mode_; }
  SgxPlatform& platform() { return platform_; }
  const SgxPlatform& platform() const { return platform_; }

  /// The untrusted host may destroy the enclave at any time (DoS in the
  /// threat model). Subsequent ecalls fail until start() is called.
  void destroy() { alive_ = false; }
  void start() { alive_ = true; }
  bool alive() const { return alive_; }

  const TransitionStats& transitions() const { return stats_; }
  void reset_transition_stats() { stats_ = {}; }

  /// EPC accounting: trusted heap currently allocated.
  std::size_t epc_used() const { return epc_used_; }
  bool epc_over_limit() const { return epc_used_ > kEpcBytes; }

  // ---- Trusted services (callable from enclave code) -----------------

  /// Seals data to this enclave's measurement (MRENCLAVE policy):
  /// AES-128-CTR with a derived key + HMAC, versioned with a platform
  /// monotonic counter to resist rollback of sealed state.
  Bytes seal(ByteView data) const;
  /// Unseals; fails on wrong platform, wrong measurement or tampering.
  Result<Bytes> unseal(ByteView sealed) const;

  /// EREPORT: creates a locally-attestable report with `report_data`.
  Report create_report(const ReportData& report_data) const;

  /// SGX trusted time (the *ocall cost* is charged by callers via the
  /// perf model; this returns the value).
  sim::Time trusted_time() const { return platform_.trusted_time(); }

 protected:
  /// RAII guard for ecall entry; throws EnclaveDead on a destroyed
  /// enclave so host code observes a failed entry.
  struct EnclaveDead : std::runtime_error {
    EnclaveDead() : std::runtime_error("enclave is not initialised") {}
  };

  class EcallGuard {
   public:
    explicit EcallGuard(Enclave& enclave) : enclave_(enclave) {
      if (!enclave_.alive_) {
        ++enclave_.stats_.rejected_entries;
        throw EnclaveDead();
      }
      ++enclave_.stats_.ecalls;
    }
    EcallGuard(const EcallGuard&) = delete;
    EcallGuard& operator=(const EcallGuard&) = delete;

   private:
    Enclave& enclave_;
  };

  void count_ocall(std::uint64_t n = 1) { stats_.ocalls += n; }
  void allocate_epc(std::size_t bytes) { epc_used_ += bytes; }
  void free_epc(std::size_t bytes) { epc_used_ -= std::min(bytes, epc_used_); }

 private:
  Bytes sealing_key() const;

  SgxPlatform& platform_;
  Measurement measurement_;
  SgxMode mode_;
  bool alive_ = true;
  TransitionStats stats_;
  std::size_t epc_used_ = 0;
};

}  // namespace endbox::sgx
