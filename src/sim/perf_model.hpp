// Calibrated cost model.
//
// Functional behaviour in this repo is real (real AES, real pattern
// matching, real parsing); *time* is virtual. This file is the single
// place where virtual-time costs live, expressed in CPU cycles so they
// scale with the modelled core clock. Constants are calibrated against
// the paper's measured numbers:
//
//  - vanilla OpenVPN ~813 Mbps at 1500-byte packets and ~3.1 Gbps at
//    64 KB writes (Fig 8) implies ~13 us fixed per-packet cost plus
//    ~1 ns/byte crypto on a ~3.5 GHz core;
//  - EndBox-SGX overhead of 39 % (small packets) shrinking to 16 %
//    (64 KB) implies a ~8 us enclave-transition cost amortised over
//    larger reads plus a small per-byte EPC penalty;
//  - the +342 % throughput gain from the single-ecall optimisation
//    (section V-G) implies ~14 transitions per packet before batching;
//  - server-side Click costs ~2 us per packet (Fig 8 gap), and a
//    single-threaded Click process saturates at 5.5 Gbps (Fig 10a);
//  - IDPS (377 Snort rules) and DDoS matching add per-byte costs that
//    produce the 39 % EndBox / 13 % server-side use-case overheads of
//    Fig 9 and the 1.7 Gbps plateau of Fig 10b.
#pragma once

#include <cstddef>

#include "sim/clock.hpp"

namespace endbox::sim {

struct PerfModel {
  // ---- Hardware (paper section V-B) --------------------------------
  // Class A: SGX-capable 4-core Xeon v5. Each client is one
  // single-threaded OpenVPN process, so only the clock rate matters.
  double client_hz = 3.5e9;
  // Class B: 4-core Xeon v2, hyper-threaded => 8 logical, older/slower.
  unsigned server_cores = 8;
  double server_hz = 3.5e9;

  // ---- VPN data path (per packet / per byte, cycles) ---------------
  // Full userspace traversal: tun read/write, encap, syscalls, copies.
  double vpn_packet_cycles = 46'000;
  // AES-128-CBC + HMAC-SHA-256, AES-NI-class per-byte cost.
  double vpn_crypto_cycles_per_byte = 3.6;
  // ISP-mode integrity-only protection (HMAC, no encryption).
  double vpn_integrity_cycles_per_byte = 1.3;
  // Control-channel message handling (ping parse + MAC).
  double vpn_control_msg_cycles = 12'000;

  // ---- Partitioned client (EndBox SIM mode) -------------------------
  // Extra boundary copies introduced by splitting OpenVPN.
  double partition_packet_cycles = 1'700;
  double partition_cycles_per_byte = 1.0;

  // ---- SGX (EndBox hardware mode) -----------------------------------
  // One enclave transition (ecall or ocall) including argument copies.
  double enclave_transition_cycles = 20'000;
  // Per byte touched inside the EPC (memory-encryption engine).
  double epc_cycles_per_byte = 0.85;
  // Multiplier on memory-heavy compute (pattern matching) inside EPC.
  double enclave_compute_multiplier = 2.5;
  // Transitions per processed packet, before/after the batching
  // optimisation of section IV-A / V-G.
  unsigned ecalls_per_packet_optimised = 1;
  unsigned ecalls_per_packet_unoptimised = 14;
  // SGX trusted-time ocall (sgx_get_trusted_time).
  double trusted_time_cycles = 40'000;

  // ---- Click ---------------------------------------------------------
  // Per-packet graph entry for a standalone Click *process* (packet
  // fetch + scheduling); in-enclave Click is a function call and pays
  // the much smaller enclave_click_packet_cycles instead.
  double click_packet_cycles = 6'000;
  double enclave_click_packet_cycles = 1'200;
  // Raw receive cost (tun read) for a standalone Click process.
  double standalone_click_rx_cycles = 1'500;
  // Per element hop in the graph.
  double click_element_cycles = 150;
  // Hot-swap: file-descriptor set-up cost vanilla Click pays for
  // ToDevice/FromDevice (Table II: 2.4 ms vs 0.74 ms in EndBox).
  Duration click_hotswap_base_ns = 740 * kMicrosecond;          // 0.74 ms
  Duration click_hotswap_fd_setup_ns = 1660 * kMicrosecond;     // +1.66 ms

  // ---- Middlebox functions (per unit, cycles) ------------------------
  double lb_packet_cycles = 900;            // RoundRobinSwitch bookkeeping
  double fw_rule_cycles = 85;               // per IPFilter rule evaluated
  double idps_cycles_per_byte = 4.1;        // Aho-Corasick scan
  double ddos_cycles_per_byte = 6.0;        // matching + rate accounting

  // ---- Server-side chaining (OpenVPN+Click set-up) --------------------
  // Handing packets from per-client OpenVPN processes to Click instances
  // costs a second tun traversal plus scheduling.
  double server_chain_packet_cycles = 2'500;
  // Multi-process contention: extra cycles per packet per active client
  // beyond the core count (scheduler/cache pressure), saturating at
  // `server_contention_max_excess` processes.
  double server_contention_cycles_per_client = 2'500;
  double server_contention_max_excess = 24;
  // Cache pressure additionally inflates per-packet pipeline work by
  // this factor per excess process (pattern-matching state thrashes).
  double server_contention_pipeline_factor = 0.15;

  // ---- Config update path (Table II) ----------------------------------
  Duration config_fetch_ns = 860 * kMicrosecond;  // 0.86 ms network fetch
  double config_decrypt_cycles_per_byte = 18;             // in-enclave AES + verify
  Duration config_decrypt_base_ns = 65 * kMicrosecond;  // ~0.07 ms

  // ---- Derived helpers -------------------------------------------------
  double vpn_data_cycles(std::size_t payload_bytes, bool encrypt) const {
    double per_byte = encrypt ? vpn_crypto_cycles_per_byte : vpn_integrity_cycles_per_byte;
    return vpn_packet_cycles + per_byte * static_cast<double>(payload_bytes);
  }
};

/// The process-wide default model used by benches/tests unless an
/// experiment overrides specific constants.
const PerfModel& default_perf_model();

}  // namespace endbox::sim
