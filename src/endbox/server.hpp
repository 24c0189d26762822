// EndBoxServer: the VPN server + gateway of Fig 2, plus the cost model
// for the three server-side set-ups the evaluation compares:
//
//   Plain      — terminates tunnels only (vanilla OpenVPN server, and
//                the EndBox server: middleboxes run on clients);
//   WithClick  — additionally runs one server-side Click instance per
//                client session (the "OpenVPN+Click" baseline).
//
// Also carries the administrator workflow of section III-E: publish a
// signed config bundle to the file server, announce it with a grace
// period, and block stale clients after expiry (enforced in VpnServer).
#pragma once

#include <memory>
#include <unordered_map>

#include "ca/authority.hpp"
#include "config/file_server.hpp"
#include "elements/context.hpp"
#include "endbox/pipeline_cost.hpp"
#include "sim/cpu.hpp"
#include "sim/perf_model.hpp"
#include "vpn/server.hpp"

namespace endbox {

enum class ServerMode { Plain, WithClick };

class EndBoxServer {
 public:
  EndBoxServer(Rng& rng, ca::CertificateAuthority& authority,
               sim::CpuAccount& cpu, const sim::PerfModel& model,
               ServerMode mode = ServerMode::Plain,
               vpn::VpnServerConfig vpn_config = {});

  const crypto::RsaPublicKey& public_key() const { return vpn_.public_key(); }
  vpn::VpnServer& vpn() { return vpn_; }
  config::ConfigFileServer& file_server() { return file_server_; }
  ServerMode mode() const { return mode_; }

  /// Registers a rule set for server-side Click instances (WithClick).
  void add_ruleset(const std::string& name, std::vector<idps::SnortRule> rules);
  /// Sets the config text instantiated per client session (WithClick).
  Status set_click_config(const std::string& config_text);

  struct HandleResult {
    vpn::VpnServer::Event event;
    sim::Time done = 0;
    bool click_accepted = true;  ///< server-side Click verdict (WithClick)
  };
  /// Processes one tunnel message, charging VPN + (optionally) Click
  /// cycles and multi-process contention to the server CPU.
  Result<HandleResult> handle_wire(ByteView wire, sim::Time now);

  /// Result of draining one uplink burst of data frames.
  struct BatchResult {
    std::uint32_t delivered = 0;  ///< completed packets across all sessions
    std::uint32_t pending = 0;    ///< fragments still waiting
    std::uint32_t rejected = 0;   ///< bad frames + server-side Click drops
    sim::Time done = 0;           ///< when the server CPU finished the burst
  };
  /// Drains a burst of data frames delivered back to back by the
  /// uplink, opening them with one batched pass (VpnServer::open_batch:
  /// pooled scratch, in-order replay checks) and charging the same
  /// per-frame cycle model as handle_wire, serialised per session
  /// process. With a session-sharded VPN server, each shard's sessions
  /// serialise onto that shard's core and the shards charge as
  /// parallel jobs after a per-frame lane dispatch pass — the burst
  /// completes at the critical path while every shard's cycles count
  /// as busy time (MultiCoreAccount::charge_parallel). WithClick mode
  /// additionally runs each completed packet through that client's
  /// Click instance.
  Result<BatchResult> handle_batch(std::span<const Bytes> wires, sim::Time now);

  /// Seals an IP packet towards a client.
  struct SealResult {
    std::vector<Bytes> wire;
    sim::Time done = 0;
  };
  SealResult seal_packet(std::uint32_t session_id, ByteView ip_packet, sim::Time now);

  Bytes create_ping(std::uint32_t session_id);

  /// Simulated crash + restart: every VPN session closes, firing the
  /// close hooks so the per-session ledgers (router instances, process
  /// ledger, traffic counters) re-seed empty, and the handshake dedupe
  /// cache empties. The signing key survives — reconnecting clients
  /// see the same server identity but a new session epoch, so their
  /// old keys fail MACs until they re-handshake. Returns the number of
  /// sessions dropped.
  std::size_t restart();

  // ---- Administrator workflow (section III-E) -------------------------
  /// Steps 1-3: sign + (optionally) encrypt the config, upload it to
  /// the file server, announce the version with a grace period.
  Result<config::ConfigBundle> publish_config(std::uint32_t version,
                                              const std::string& click_config,
                                              bool encrypt,
                                              std::uint32_t grace_secs,
                                              sim::Time now);

  /// Gateway duty (section IV-A): packets entering from outside the
  /// managed network must not carry the processed flag — strip it.
  static void strip_external_qos(net::Packet& packet);

  std::uint64_t packets_forwarded() const { return packets_forwarded_; }
  /// Packets forwarded for one client session (0 for unknown sessions) —
  /// the per-client server-side view the scalability experiments report.
  std::uint64_t packets_forwarded_for(std::uint32_t session_id) const {
    auto it = session_packets_.find(session_id);
    return it == session_packets_.end() ? 0 : it->second;
  }
  /// Sessions that have forwarded at least one data packet (distinct
  /// from vpn().session_count(), which counts established tunnels).
  std::size_t sessions_with_traffic() const { return session_packets_.size(); }
  /// Sessions holding a process-ledger entry (completion time of their
  /// single-threaded OpenVPN process). A session earns its entry on its
  /// first successful open (including fragments still pending) — bursts
  /// whose frames all fail to open charge the CPU but never grow the
  /// ledger, so a flood of garbage frames cannot inflate per-session
  /// state.
  std::size_t session_process_entries() const { return session_proc_free_.size(); }
  /// Live server-side Click instances (WithClick; torn down with their
  /// session by the VPN close hook — the storm regression checks this).
  std::size_t session_router_count() const { return session_routers_.size(); }

 private:
  click::Router* session_router(std::uint32_t session_id);
  /// Records `done` as the session's process completion, creating the
  /// ledger entry only for sessions that have delivered at least once.
  void note_session_done(std::uint32_t session_id, sim::Time done);

  Rng& rng_;
  ca::CertificateAuthority& authority_;
  sim::CpuAccount& cpu_;
  const sim::PerfModel& model_;
  ServerMode mode_;
  vpn::VpnServer vpn_;
  config::ConfigFileServer file_server_;

  // Server-side Click (WithClick): one router per client session,
  // mirroring the per-client OpenVPN+Click instances of the evaluation.
  elements::ElementContext click_context_;
  click::ElementRegistry click_registry_;
  std::string click_config_text_;
  std::unordered_map<std::uint32_t, std::unique_ptr<click::Router>> session_routers_;
  struct ClickVerdict {
    bool accepted = true;
  } click_verdict_;
  // Per-session single-threaded OpenVPN process model: completion time
  // of the last message each session's process handled.
  std::unordered_map<std::uint32_t, sim::Time> session_proc_free_;

  std::uint64_t packets_forwarded_ = 0;
  std::unordered_map<std::uint32_t, std::uint64_t> session_packets_;

  // handle_batch scratch, reused across bursts.
  vpn::VpnServer::OpenBatch open_scratch_;
  std::vector<std::uint32_t> opened_sorted_scratch_;  ///< ledger lookups
  std::vector<std::pair<std::uint32_t, double>> session_cycles_scratch_;
  std::vector<double> shard_cycles_scratch_;     ///< per-shard serialised sums
  std::vector<sim::Time> shard_earliest_scratch_;///< per-shard earliest starts
  std::vector<double> job_cycles_scratch_;       ///< non-empty shard jobs
  std::vector<sim::Time> job_earliest_scratch_;  ///< their earliest starts
  std::vector<sim::Time> job_done_scratch_;      ///< their completion times
  std::vector<std::size_t> shard_job_scratch_;   ///< shard -> job index
};

}  // namespace endbox
