// EndBoxServer: the VPN server + gateway of Fig 2, plus the cost model
// for the server-side set-ups the evaluation compares:
//
//   Plain      — terminates tunnels only (vanilla OpenVPN server, and
//                the EndBox server: middleboxes run on clients);
//   WithClick  — additionally runs one server-side Click instance per
//                client session (the "OpenVPN+Click" baseline).
//
// Virtual time follows the paper's deployment (Figs 8-10): one
// single-threaded OpenVPN process per client session, each message
// charged as it arrives (handle_wire). Burst callers drain the
// session-sharded VPN server directly (vpn().open_batch); that path
// carries no virtual time.
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

  /// Seals an IP packet towards a client.
  struct SealResult {
    std::vector<Bytes> wire;
    sim::Time done = 0;
  };
  SealResult seal_packet(std::uint32_t session_id, ByteView ip_packet, sim::Time now);

  Bytes create_ping(std::uint32_t session_id);

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
  /// first successful open (including fragments still pending); frames
  /// that fail to open are refused before any charge, so a flood of
  /// garbage frames cannot inflate per-session state.
  std::size_t session_process_entries() const { return session_proc_free_.size(); }
  /// Live server-side Click instances (WithClick; torn down with their
  /// session by the VPN close hook — the storm regression checks this).
  std::size_t session_router_count() const { return session_routers_.size(); }

 private:
  click::Router* session_router(std::uint32_t session_id);

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
};

}  // namespace endbox
