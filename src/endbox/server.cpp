#include "endbox/server.hpp"
#include <algorithm>

namespace endbox {

EndBoxServer::EndBoxServer(Rng& rng, ca::CertificateAuthority& authority,
                           sim::CpuAccount& cpu, const sim::PerfModel& model,
                           ServerMode mode, vpn::VpnServerConfig vpn_config)
    : rng_(rng),
      authority_(authority),
      cpu_(cpu),
      model_(model),
      mode_(mode),
      vpn_(rng, authority.public_key(), vpn_config),
      click_registry_(elements::make_endbox_registry(click_context_)) {
  click_context_.to_device = [this](net::Packet&&, bool accepted) {
    click_verdict_.accepted = accepted;
  };
  click_context_.untrusted_time = [] { return sim::Time{0}; };
  click_context_.trusted_time = [] { return sim::Time{0}; };
  // Session lifecycle: when the VPN layer drops a session (explicit
  // close or idle expiry), every server-side map keyed by its id goes
  // with it — the router instance, the process ledger and the traffic
  // counter used to leak for the lifetime of the server.
  vpn_.set_session_close_hook([this](std::uint32_t session_id) {
    session_routers_.erase(session_id);
    session_proc_free_.erase(session_id);
    session_packets_.erase(session_id);
  });
}

void EndBoxServer::add_ruleset(const std::string& name,
                               std::vector<idps::SnortRule> rules) {
  click_context_.rulesets[name] = std::move(rules);
}

Status EndBoxServer::set_click_config(const std::string& config_text) {
  // Validate now so configuration errors surface at set-up time.
  auto probe = click::Router::from_config(config_text, click_registry_);
  if (!probe.ok()) return err(probe.error());
  click_config_text_ = config_text;
  session_routers_.clear();
  return {};
}

click::Router* EndBoxServer::session_router(std::uint32_t session_id) {
  if (click_config_text_.empty()) return nullptr;
  auto it = session_routers_.find(session_id);
  if (it == session_routers_.end()) {
    auto router = click::Router::from_config(click_config_text_, click_registry_);
    if (!router.ok()) return nullptr;
    it = session_routers_.emplace(session_id, std::move(*router)).first;
  }
  return it->second.get();
}

Result<EndBoxServer::HandleResult> EndBoxServer::handle_wire(ByteView wire,
                                                             sim::Time now) {
  auto event = vpn_.handle(wire, now);
  if (!event.ok()) return err(event.error());

  HandleResult result;
  result.event = std::move(*event);

  double cycles;
  if (std::holds_alternative<vpn::VpnServer::PingIn>(result.event)) {
    cycles = model_.vpn_control_msg_cycles;
  } else if (std::holds_alternative<vpn::VpnServer::HandshakeDone>(result.event)) {
    cycles = 10.0 * model_.vpn_control_msg_cycles;  // asymmetric crypto etc.
  } else {
    // Data path: per-message tunnel processing.
    bool encrypted = true;
    if (auto* packet = std::get_if<vpn::VpnServer::PacketIn>(&result.event))
      encrypted = packet->was_encrypted;
    double per_byte = encrypted ? model_.vpn_crypto_cycles_per_byte
                                : model_.vpn_integrity_cycles_per_byte;
    cycles = model_.vpn_packet_cycles + per_byte * static_cast<double>(wire.size());

    if (auto* packet = std::get_if<vpn::VpnServer::PacketIn>(&result.event)) {
      ++packets_forwarded_;
      ++session_packets_[packet->session_id];
      if (mode_ == ServerMode::WithClick) {
        // Hand the reassembled packet to this client's Click instance:
        // a second tun traversal plus the pipeline itself.
        cycles += model_.server_chain_packet_cycles;
        // Multi-process contention beyond the core count (saturating:
        // the scheduler round-robins whatever exceeds the cores).
        double excess = static_cast<double>(vpn_.session_count()) -
                        static_cast<double>(cpu_.cores());
        excess = std::clamp(excess, 0.0, model_.server_contention_max_excess);
        cycles += model_.server_contention_cycles_per_client * excess;

        if (click::Router* router = session_router(packet->session_id)) {
          auto parsed = net::Packet::parse(packet->ip_packet);
          if (parsed.ok()) {
            click_verdict_.accepted = true;
            std::size_t payload = parsed->wire_size();
            router->push_to("from_device", std::move(*parsed));
            result.click_accepted = click_verdict_.accepted;
            double pipeline = model_.click_packet_cycles +
                              pipeline_cycles(*router, payload, model_);
            // Cache pressure inflates per-packet pipeline work.
            pipeline *= 1.0 + model_.server_contention_pipeline_factor * excess;
            cycles += pipeline;
          }
        }
      }
    }
  }

  // Each client is served by its own single-threaded OpenVPN process:
  // that session's work serialises on one core even when others idle.
  std::uint32_t session_id = 0;
  if (auto* p = std::get_if<vpn::VpnServer::PacketIn>(&result.event))
    session_id = p->session_id;
  else if (auto* f = std::get_if<vpn::VpnServer::FragmentPending>(&result.event))
    session_id = f->session_id;
  else if (auto* g = std::get_if<vpn::VpnServer::PingIn>(&result.event))
    session_id = g->session_id;
  sim::Time start = now;
  if (session_id != 0) {
    sim::Time& last = session_proc_free_[session_id];
    start = std::max(start, last);
    result.done = cpu_.charge(start, cycles);
    last = result.done;
  } else {
    result.done = cpu_.charge(start, cycles);
  }
  return result;
}

Result<EndBoxServer::BatchResult> EndBoxServer::handle_batch(
    std::span<const Bytes> wires, sim::Time now) {
  BatchResult result;
  result.done = now;
  if (wires.empty()) return result;

  vpn_.open_batch(wires, now, open_scratch_);
  result.delivered = open_scratch_.complete;
  result.pending = open_scratch_.pending;
  result.rejected = open_scratch_.rejected;
  opened_sorted_scratch_.assign(open_scratch_.opened_sessions.begin(),
                                open_scratch_.opened_sessions.end());
  std::sort(opened_sorted_scratch_.begin(), opened_sorted_scratch_.end());

  // Per-frame tunnel cost, accumulated per session (each session's
  // single-threaded OpenVPN process serialises its own work). Frames
  // open_batch rejected before any crypto — unknown sessions, non-data
  // types — charge nothing (mirroring handle_wire, which errors out of
  // such frames first); frames of a known session charge the data-path
  // cost whatever their verdict, because the MAC check runs either way.
  session_cycles_scratch_.clear();
  auto charge_session = [&](std::uint32_t sid, double cycles) {
    for (auto& [id, sum] : session_cycles_scratch_) {
      if (id == sid) {
        sum += cycles;
        return;
      }
    }
    session_cycles_scratch_.emplace_back(sid, cycles);
  };
  for (const Bytes& wire : wires) {
    if (wire.size() < vpn::kWireHeaderSize) continue;
    auto type = static_cast<vpn::MsgType>(wire[0]);
    if (type != vpn::MsgType::Data && type != vpn::MsgType::DataIntegrityOnly)
      continue;
    std::uint32_t sid = get_u32(wire.data() + 1);
    if (!vpn_.has_session(sid)) continue;
    double per_byte = type == vpn::MsgType::Data
                          ? model_.vpn_crypto_cycles_per_byte
                          : model_.vpn_integrity_cycles_per_byte;
    charge_session(sid, model_.vpn_packet_cycles +
                            per_byte * static_cast<double>(wire.size()));
  }

  for (std::size_t i = 0; i < open_scratch_.packet_count; ++i) {
    vpn::VpnServer::BatchPacket& packet = open_scratch_.packets[i];
    ++packets_forwarded_;
    ++session_packets_[packet.session_id];
    if (mode_ != ServerMode::WithClick) continue;
    // Same per-packet chaining model as handle_wire: second tun
    // traversal, multi-process contention, then the pipeline itself.
    double cycles = model_.server_chain_packet_cycles;
    double excess = static_cast<double>(vpn_.session_count()) -
                    static_cast<double>(cpu_.cores());
    excess = std::clamp(excess, 0.0, model_.server_contention_max_excess);
    cycles += model_.server_contention_cycles_per_client * excess;
    if (click::Router* router = session_router(packet.session_id)) {
      auto parsed = net::Packet::parse(packet.ip_packet);
      if (parsed.ok()) {
        click_verdict_.accepted = true;
        std::size_t payload = parsed->wire_size();
        router->push_to("from_device", std::move(*parsed));
        if (!click_verdict_.accepted) {
          --result.delivered;
          ++result.rejected;
        }
        double pipeline =
            model_.click_packet_cycles + pipeline_cycles(*router, payload, model_);
        pipeline *= 1.0 + model_.server_contention_pipeline_factor * excess;
        cycles += pipeline;
      }
    }
    charge_session(packet.session_id, cycles);
  }

  // The batched drain runs on the VPN server's N session-shard lanes
  // (one single thread at the default 1 shard — exactly what
  // open_batch's implementation is): each lane's sessions serialise
  // onto that lane's worker, so their cycles aggregate into one job
  // per lane. The serial part is lane dispatch (RSS hash + ring push
  // per frame), then the lane jobs run in parallel on the server's
  // cores; completion is the
  // burst's critical path, while every lane's cycles count as busy
  // time. The per-frame handle_wire path keeps the per-client OpenVPN
  // process model; this path models the one sharded server process.
  std::size_t shards = vpn_.session_shard_count();
  shard_cycles_scratch_.assign(shards, 0.0);
  shard_earliest_scratch_.assign(shards, now);
  for (const auto& [sid, cycles] : session_cycles_scratch_) {
    std::size_t s = vpn_.shard_of_session(sid);
    shard_cycles_scratch_[s] += cycles;
    // A session still busy from a previous burst holds back only its
    // own shard's worker, not the whole train.
    auto it = session_proc_free_.find(sid);
    if (it != session_proc_free_.end())
      shard_earliest_scratch_[s] = std::max(shard_earliest_scratch_[s], it->second);
  }
  job_cycles_scratch_.clear();
  job_earliest_scratch_.clear();
  shard_job_scratch_.assign(shards, shards);  // `shards` = no job
  for (std::size_t s = 0; s < shards; ++s) {
    if (shard_cycles_scratch_[s] <= 0.0) continue;
    shard_job_scratch_[s] = job_cycles_scratch_.size();
    job_cycles_scratch_.push_back(shard_cycles_scratch_[s]);
    job_earliest_scratch_.push_back(shard_earliest_scratch_[s]);
  }
  double staging = model_.lane_dispatch_cycles_per_frame *
                   static_cast<double>(wires.size());
  job_done_scratch_.assign(job_cycles_scratch_.size(), 0);
  sim::Time done =
      cpu_.charge_parallel(now, staging, job_cycles_scratch_, job_done_scratch_,
                           job_earliest_scratch_);
  result.done = std::max(result.done, done);
  for (const auto& [sid, cycles] : session_cycles_scratch_) {
    std::size_t job = shard_job_scratch_[vpn_.shard_of_session(sid)];
    if (job < job_done_scratch_.size()) note_session_done(sid, job_done_scratch_[job]);
  }
  return result;
}

void EndBoxServer::note_session_done(std::uint32_t session_id, sim::Time done) {
  auto it = session_proc_free_.find(session_id);
  if (it != session_proc_free_.end()) {
    it->second = std::max(it->second, done);
    return;
  }
  // First successful open creates the ledger entry — a frame that
  // passed MAC+replay counts even while its fragment group is still
  // pending (matching handle_wire's FragmentPending behaviour).
  // Sessions whose frames all failed in this burst stay off the ledger:
  // they paid the MAC-check cycles, but a garbage flood must not grow
  // per-session state. opened_sorted_scratch_ is the burst's
  // opened_sessions sorted once in handle_batch, so this lookup stays
  // logarithmic however many sessions a train spans.
  bool opened_this_burst =
      std::binary_search(opened_sorted_scratch_.begin(),
                         opened_sorted_scratch_.end(), session_id);
  if (opened_this_burst || session_packets_.count(session_id))
    session_proc_free_.emplace(session_id, done);
}

EndBoxServer::SealResult EndBoxServer::seal_packet(std::uint32_t session_id,
                                                   ByteView ip_packet,
                                                   sim::Time now) {
  SealResult result;
  vpn_.seal_packet_wire(session_id, ip_packet, result.wire);
  double cycles =
      static_cast<double>(result.wire.size()) * model_.vpn_packet_cycles +
      model_.vpn_crypto_cycles_per_byte * static_cast<double>(ip_packet.size());
  result.done = cpu_.charge(now, cycles);
  return result;
}

Bytes EndBoxServer::create_ping(std::uint32_t session_id) {
  return vpn_.create_ping(session_id).serialize();
}

std::size_t EndBoxServer::restart() {
  // The close hooks clear the per-session ledgers as each session
  // drops, so the maps are empty (not leaked) when the "new" process
  // comes up.
  return vpn_.restart();
}

Result<config::ConfigBundle> EndBoxServer::publish_config(
    std::uint32_t version, const std::string& click_config, bool encrypt,
    std::uint32_t grace_secs, sim::Time now) {
  auto bundle = config::make_bundle(version, click_config,
                                    authority_.admin_signing_key(),
                                    authority_.config_key(), encrypt);
  auto status = file_server_.publish(bundle);
  if (!status.ok()) return err(status.error());
  vpn_.announce_config(version, grace_secs, now);
  return bundle;
}

void EndBoxServer::strip_external_qos(net::Packet& packet) {
  if (packet.processed_flag()) packet.clear_processed_flag();
}

}  // namespace endbox
