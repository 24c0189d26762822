// The bench_e2e data-path driver. One thread moves every packet of a
// tick through the real client -> gateway -> client path, calling the
// layers' public functions directly (the EndBoxClient/EndBoxServer
// virtual-time wrappers are left out):
//
//   EndBoxEnclave::ecall_process_egress_batch      one call per due burst
//   -> in-memory wire                              frames swapped into one train
//   -> VpnServer::open_batch                       the whole uplink train
//   -> VpnServer::seal_jobs                        16 responses per due burst
//   -> in-memory wire                              split by the frame's session id
//   -> EndBoxEnclave::ecall_process_ingress_batch  at most 64 frames per call
//
// Every delivery is checked against the traffic oracle: uplink packets
// byte for byte at the gateway, downlink packets at the client.
#pragma once

#include <algorithm>
#include <array>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

#include "endbox_world.hpp"
#include "measure.hpp"
#include "trace.hpp"
#include "traffic.hpp"

namespace endbox::e2e {

/// Counts over one or more ticks.
struct TickCounts {
  std::uint64_t ticks = 0;
  std::uint64_t offered = 0;        ///< packets generated, both directions
  std::uint64_t delivered = 0;      ///< deliveries the oracle confirmed
  std::uint64_t payload_bytes = 0;  ///< application payload of those
  std::uint64_t failed = 0;         ///< outcome differs from the oracle
  std::uint64_t rejected = 0;       ///< rejected by the enclaves' Click graphs
  std::uint64_t plants = 0;         ///< offered segments completing a planted content
  std::uint64_t up_packets = 0;     ///< offered to egress
  std::uint64_t up_sealed = 0;      ///< accepted and sealed by egress
  std::uint64_t up_frames = 0;
  std::uint64_t down_packets = 0;   ///< sealed by the gateway
  std::uint64_t down_frames = 0;
  std::uint64_t ingress_packets = 0;  ///< completed by client ingress
  std::uint64_t gw_rejected = 0;    ///< frames open_batch rejected
  std::uint64_t gw_packets = 0;     ///< packets the gateway opened or sealed
  std::int64_t client_cpu_ns = 0;   ///< CPU time inside the enclave ecalls
  std::int64_t gateway_cpu_ns = 0;  ///< CPU time inside open_batch + seal_jobs
  std::int64_t gen_ns = 0;          ///< wall time building egress bursts

  void add(const TickCounts& o) {
    ticks += o.ticks;
    offered += o.offered;
    delivered += o.delivered;
    payload_bytes += o.payload_bytes;
    failed += o.failed;
    rejected += o.rejected;
    plants += o.plants;
    up_packets += o.up_packets;
    up_sealed += o.up_sealed;
    up_frames += o.up_frames;
    down_packets += o.down_packets;
    down_frames += o.down_frames;
    ingress_packets += o.ingress_packets;
    gw_rejected += o.gw_rejected;
    gw_packets += o.gw_packets;
    client_cpu_ns += o.client_cpu_ns;
    gateway_cpu_ns += o.gateway_cpu_ns;
    gen_ns += o.gen_ns;
  }
};

/// A delivery the oracle expects.
struct Expected {
  const PacketTemplate* tpl = nullptr;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
};

/// One client's expected deliveries of a tick.
class ExpectQueue {
 public:
  void reset() {
    items_.clear();
    first_open_ = 0;
    matched_ = 0;
    wrong_ = 0;
  }
  void push(const Expected& e) { items_.push_back({e, false}); }
  /// Matches one delivery against the earliest equal expectation not
  /// yet matched (lanes may reorder packets of different flows).
  /// Returns nullptr, and counts the delivery as wrong, when none
  /// matches: a packet the middlebox should have dropped, a duplicate,
  /// or corrupted bytes.
  template <typename Same>
  const Expected* take(Same&& same) {
    for (std::size_t k = first_open_; k < items_.size(); ++k) {
      if (items_[k].matched || !same(items_[k].expected)) continue;
      items_[k].matched = true;
      ++matched_;
      while (first_open_ < items_.size() && items_[first_open_].matched) ++first_open_;
      return &items_[k].expected;
    }
    ++wrong_;
    return nullptr;
  }
  /// Packets whose outcome differs from the oracle: wrong deliveries
  /// or expected ones that never arrived. A corrupted packet is both,
  /// and counts once.
  std::uint64_t failures() const {
    return std::max<std::uint64_t>(wrong_, items_.size() - matched_);
  }

 private:
  struct Item {
    Expected expected;
    bool matched;
  };
  std::vector<Item> items_;
  std::size_t first_open_ = 0;
  std::size_t matched_ = 0;
  std::size_t wrong_ = 0;
};

class Driver {
 public:
  /// At most this many bursts per client in one tick (open-loop backlog).
  static constexpr std::size_t kMaxBurstsPerTick = 4;
  static constexpr std::size_t kMaxIngressFrames = click::PacketBatch::kMaxBurst;

  Driver(testing::World& world, Traffic& traffic)
      : traffic_(traffic), server_(world.server.vpn()), now_(world.clock.now()) {
    if (world.rigs.size() != kClients) throw std::logic_error("driver: client count");
    for (std::size_t c = 0; c < kClients; ++c) {
      Client& client = clients_[c];
      client.enclave = &world.rigs[c]->client.enclave();
      if (!client.enclave->session()) throw std::logic_error("driver: client not connected");
      client.session = client.enclave->session()->session_id();
      if (client.session >= client_of_.size()) client_of_.resize(client.session + 1, -1);
      client_of_[client.session] = static_cast<int>(c);
      client.egress.resize(kMaxBurstsPerTick);
    }
  }

  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  EndBoxEnclave& enclave(std::size_t c) { return *clients_[c].enclave; }
  vpn::VpnServer& server() { return server_; }
  /// Wall time at which client c's downlink of the last tick was delivered.
  std::int64_t delivered_at(std::size_t c) const { return clients_[c].delivered_at; }

  /// One tick: client c sends bursts[c] egress bursts and receives as
  /// many 16-packet downlink bursts.
  void tick(std::span<const std::uint8_t> bursts, TickCounts& counts) {
    if (tracer_) tracer_->begin_tick();
    const std::int64_t tick_start = wall_ns();
    ++counts.ticks;

    // 1. Each due client's egress bursts.
    for (std::size_t c = 0; c < kClients; ++c) {
      Client& client = clients_[c];
      client.up.reset();
      client.down.reset();
      net::PacketPool& pool = client.enclave->packet_pool();
      for (std::size_t b = 0; b < bursts[c]; ++b) {
        std::int64_t g0 = wall_ns();
        for (std::size_t k = 0; k < kBurst; ++k, ++client.up_pos) {
          net::Packet p = pool.acquire();
          traffic_.fill_uplink(c, client.up_pos, p);
          const PacketTemplate& t = traffic_.up[c].at(client.up_pos);
          if (t.pass) client.up.push({&t, p.src_port, p.dst_port});
          counts.plants += t.completes_plant;
          batch_.push_back(std::move(p));
        }
        std::int64_t g1 = wall_ns();
        std::int64_t cpu0 = cpu_ns();
        Status status =
            client.enclave->ecall_process_egress_batch(std::move(batch_), client.egress[b]);
        std::int64_t cpu1 = cpu_ns();
        std::int64_t g2 = wall_ns();
        batch_.clear();
        if (!status.ok()) note_error("egress: " + status.error());
        counts.gen_ns += g1 - g0;
        counts.client_cpu_ns += cpu1 - cpu0;
        counts.offered += kBurst;
        counts.up_packets += kBurst;
        counts.up_sealed += client.egress[b].accepted;
        counts.rejected += client.egress[b].rejected;
        trace(SpanKind::Gen, static_cast<int>(c), g0, g1);
        trace(SpanKind::Egress, static_cast<int>(c), g1, g2);
      }
    }

    // 2. The uplink train: every frame of the tick, moved not copied.
    std::int64_t w0 = wall_ns();
    std::size_t n = 0;
    for (std::size_t c = 0; c < kClients; ++c) {
      for (std::size_t b = 0; b < bursts[c]; ++b) {
        EgressBatch& egress = clients_[c].egress[b];
        for (std::size_t f = 0; f < egress.frame_count; ++f) {
          if (n == train_.size()) train_.emplace_back();
          std::swap(train_[n++], egress.frames[f]);
        }
      }
    }
    counts.up_frames += n;
    trace(SpanKind::Wire, -1, w0, wall_ns());

    // 3. The gateway opens the train.
    std::int64_t cpu0 = cpu_ns();
    std::int64_t o0 = wall_ns();
    server_.open_batch(std::span<const Bytes>(train_.data(), n), now_, open_);
    std::int64_t o1 = wall_ns();
    counts.gateway_cpu_ns += cpu_ns() - cpu0;
    counts.gw_rejected += open_.rejected;
    counts.gw_packets += open_.packet_count;
    trace(SpanKind::GwOpen, -1, o0, o1);

    std::int64_t v0 = wall_ns();
    for (std::size_t k = 0; k < open_.packet_count; ++k) {
      const vpn::VpnServer::BatchPacket& bp = open_.packets[k];
      int c = client_of(bp.session_id);
      if (c < 0) {
        ++counts.failed;
        continue;
      }
      count_delivery(clients_[static_cast<std::size_t>(c)].up.take(
                         [&](const Expected& x) { return uplink_equal(bp.ip_packet, x); }),
                     counts);
    }
    for (Client& client : clients_) counts.failed += client.up.failures();
    trace(SpanKind::Verify, -1, v0, wall_ns());

    // 4. The gateway seals 16 responses per due burst.
    std::int64_t j0 = wall_ns();
    jobs_.clear();
    for (std::size_t c = 0; c < kClients; ++c) {
      Client& client = clients_[c];
      for (std::size_t k = 0; k < bursts[c] * kBurst; ++k, ++client.down_pos) {
        const PacketTemplate& t = traffic_.down[c].at(client.down_pos);
        std::uint16_t port = traffic_.flow_port(traffic_.down[c], client.down_pos);
        jobs_.push_back({client.session, traffic_.downlink(c, client.down_pos)});
        if (t.pass) client.down.push({&t, traffic_.service_port(), port});
        counts.plants += t.completes_plant;
      }
    }
    counts.offered += jobs_.size();
    counts.down_packets += jobs_.size();
    counts.gw_packets += jobs_.size();
    trace(SpanKind::Gen, -1, j0, wall_ns());
    cpu0 = cpu_ns();
    std::int64_t s0 = wall_ns();
    std::size_t m = server_.seal_jobs(jobs_, down_);
    std::int64_t s1 = wall_ns();
    counts.gateway_cpu_ns += cpu_ns() - cpu0;
    counts.down_frames += m;
    trace(SpanKind::GwSeal, -1, s0, s1);

    // 5. The downlink train splits by the session id in each frame header.
    w0 = wall_ns();
    for (Client& client : clients_) client.frame_count = 0;
    for (std::size_t f = 0; f < m; ++f) {
      int c = down_[f].size() >= vpn::kWireHeaderSize
                  ? client_of(get_u32(down_[f].data() + 1))
                  : -1;
      if (c < 0) {
        ++counts.failed;
        continue;
      }
      Client& client = clients_[static_cast<std::size_t>(c)];
      if (client.frame_count == client.frames.size()) client.frames.emplace_back();
      std::swap(client.frames[client.frame_count++], down_[f]);
    }
    trace(SpanKind::Wire, -1, w0, wall_ns());

    // 6. Each client's ingress, at most 64 frames per call.
    for (std::size_t c = 0; c < kClients; ++c) {
      Client& client = clients_[c];
      if (bursts[c] == 0) continue;
      net::PacketPool& pool = client.enclave->packet_pool();
      for (std::size_t i = 0; i < client.frame_count; i += kMaxIngressFrames) {
        std::size_t chunk = std::min(kMaxIngressFrames, client.frame_count - i);
        cpu0 = cpu_ns();
        std::int64_t i0 = wall_ns();
        Status status = client.enclave->ecall_process_ingress_batch(
            std::span<const Bytes>(client.frames.data() + i, chunk), ingress_);
        std::int64_t i1 = wall_ns();
        counts.client_cpu_ns += cpu_ns() - cpu0;
        client.delivered_at = i1;
        if (!status.ok()) note_error("ingress: " + status.error());
        counts.ingress_packets += ingress_.complete;
        counts.rejected += ingress_.rejected;
        trace(SpanKind::Ingress, static_cast<int>(c), i0, i1);

        v0 = wall_ns();
        for (net::Packet& p : ingress_.packets) {
          count_delivery(
              client.down.take([&](const Expected& x) { return downlink_equal(p, x); }),
              counts);
          pool.release(std::move(p));
        }
        ingress_.packets.clear();
        trace(SpanKind::Verify, static_cast<int>(c), v0, wall_ns());
      }
      counts.failed += client.down.failures();
    }
    trace(SpanKind::Tick, -1, tick_start, wall_ns());
  }

  /// The first data-path error, if any (they also count as failures).
  const std::string& first_error() const { return first_error_; }

 private:
  struct Client {
    EndBoxEnclave* enclave = nullptr;
    std::uint32_t session = 0;
    std::uint64_t up_pos = 0;    ///< next uplink track position
    std::uint64_t down_pos = 0;  ///< next downlink track position
    std::vector<EgressBatch> egress;
    std::vector<Bytes> frames;   ///< this tick's downlink frames
    std::size_t frame_count = 0;
    ExpectQueue up, down;
    std::int64_t delivered_at = 0;
  };

  int client_of(std::uint32_t session) const {
    return session < client_of_.size() ? client_of_[session] : -1;
  }

  static void count_delivery(const Expected* e, TickCounts& counts) {
    if (!e) return;
    ++counts.delivered;
    counts.payload_bytes += e->tpl->len;
  }

  bool uplink_equal(const Bytes& ip, const Expected& e) const {
    const bool stream = traffic_.stream();
    std::size_t header = net::kIpv4HeaderSize +
                         (stream ? net::kTcpHeaderSize : net::kUdpHeaderSize);
    if (ip.size() != header + e.tpl->len) return false;
    const std::uint8_t* l4 = ip.data() + net::kIpv4HeaderSize;
    return ip[9] == static_cast<std::uint8_t>(traffic_.proto) &&
           get_u16(l4) == e.src_port && get_u16(l4 + 2) == e.dst_port &&
           (!stream || get_u32(l4 + 4) == e.tpl->seq) &&
           std::memcmp(ip.data() + header, traffic_.arena.data() + e.tpl->off,
                       e.tpl->len) == 0;
  }

  bool downlink_equal(const net::Packet& p, const Expected& e) const {
    return p.proto == traffic_.proto && p.src_port == e.src_port &&
           p.dst_port == e.dst_port && (!traffic_.stream() || p.seq == e.tpl->seq) &&
           p.payload.size() == e.tpl->len &&
           std::memcmp(p.payload.data(), traffic_.arena.data() + e.tpl->off,
                       e.tpl->len) == 0;
  }

  void trace(SpanKind kind, int client, std::int64_t start, std::int64_t end) {
    if (tracer_) tracer_->record(kind, client, start, end);
  }

  void note_error(std::string message) {
    if (first_error_.empty()) first_error_ = std::move(message);
  }

  Traffic& traffic_;
  vpn::VpnServer& server_;
  sim::Time now_;
  Tracer* tracer_ = nullptr;
  std::array<Client, kClients> clients_;
  std::vector<int> client_of_;  ///< session id -> client index
  click::PacketBatch batch_;
  std::vector<Bytes> train_;
  vpn::VpnServer::OpenBatch open_;
  std::vector<vpn::VpnServer::SealJob> jobs_;
  std::vector<Bytes> down_;
  IngressBatch ingress_;
  std::string first_error_;
};

/// Counts of one closed-loop window.
struct Window {
  std::int64_t wall_ns = 0;
  double clock_ghz = 0;  ///< median core clock over the window's selections
  bool traced = false;
  TickCounts counts;
};

/// Closed loop: every client sends one burst every tick, for `seconds`
/// of driver time (vCPU selections are left out of the window).
inline Window closed_window(Driver& driver, CoreSelector& cores, double seconds,
                            Tracer* tracer = nullptr) {
  std::array<std::uint8_t, kClients> all;
  all.fill(1);
  Window w;
  w.traced = tracer != nullptr;
  driver.set_tracer(tracer);
  const std::int64_t start = wall_ns();
  const auto length = static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t paused = cores.select();
  std::vector<double> clocks = {cores.clock_ghz()};
  std::int64_t now = wall_ns();
  while (now - start - paused < length) {
    driver.tick(all, w.counts);
    if (std::int64_t p = cores.maybe_select()) {
      paused += p;
      clocks.push_back(cores.clock_ghz());
    }
    now = wall_ns();
  }
  w.wall_ns = now - start - paused;
  w.clock_ghz = median(std::move(clocks));
  driver.set_tracer(nullptr);
  return w;
}

/// Upper bound on one CoreSelector::select() (four ~50 us probes).
inline constexpr std::int64_t kSelectBudgetNs = 300'000;

/// Result of an open-loop phase.
struct OpenLoop {
  std::vector<double> rtt_us;   ///< per burst: due time -> downlink delivered
  std::vector<double> late_us;  ///< per burst: due time -> tick start
  double clock_ghz = 0;         ///< median core clock over the phase's selections
  TickCounts counts;
};

/// Open loop: client c's k-th burst is due at start + (k + c/8) * T,
/// T = 8 clients * 32 packets / rate, whatever the system does. Bursts
/// due by the start of a tick form its train; RTT runs from the due time.
inline OpenLoop run_open(Driver& driver, CoreSelector& cores, double rate_pps,
                         double seconds) {
  OpenLoop result;
  const double period_ns = 1e9 * kClients * 2 * kBurst / rate_pps;
  const std::int64_t start = wall_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  std::array<std::uint64_t, kClients> next{};  ///< next burst index per client
  auto due = [&](std::size_t c) {
    return start + static_cast<std::int64_t>(
                       (static_cast<double>(next[c]) +
                        static_cast<double>(c) / kClients) * period_ns);
  };
  std::array<std::uint8_t, kClients> bursts{};
  std::vector<std::pair<std::size_t, std::int64_t>> taken;
  std::vector<double> clocks = {cores.clock_ghz()};
  while (true) {
    std::int64_t now = wall_ns();
    if (now >= end) break;
    taken.clear();
    std::int64_t earliest = end;
    for (std::size_t c = 0; c < kClients; ++c) {
      bursts[c] = 0;
      while (bursts[c] < Driver::kMaxBurstsPerTick && due(c) <= now) {
        taken.emplace_back(c, due(c));
        ++bursts[c];
        ++next[c];
      }
      earliest = std::min(earliest, due(c));
    }
    if (taken.empty()) {
      // Idle: a selection fits when the next burst is far enough away.
      if (earliest - now > 2 * kSelectBudgetNs && cores.maybe_select())
        clocks.push_back(cores.clock_ghz());
      spin_until(std::min(earliest, end));
      continue;
    }
    driver.tick(bursts, result.counts);
    for (const auto& [c, due_ns] : taken) {
      result.late_us.push_back(static_cast<double>(now - due_ns) / 1e3);
      result.rtt_us.push_back(static_cast<double>(driver.delivered_at(c) - due_ns) / 1e3);
    }
  }
  result.clock_ghz = median(std::move(clocks));
  return result;
}

/// A closed-loop slice and the open-loop slice run right after it.
struct Slice {
  Window closed;
  OpenLoop open;
};

/// Alternates closed- and open-loop slices, `slice_s` per pair, for
/// `seconds` in total. With a tracer, every other closed slice is traced.
inline std::vector<Slice> run_slices(Driver& driver, CoreSelector& cores, double rate_pps,
                                     double seconds, double slice_s,
                                     Tracer* tracer = nullptr) {
  std::vector<Slice> slices;
  const std::int64_t end = wall_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (wall_ns() < end) {
    bool traced = tracer && slices.size() % 2 == 1;
    Slice slice;
    slice.closed = closed_window(driver, cores, slice_s / 2, traced ? tracer : nullptr);
    cores.select();
    slice.open = run_open(driver, cores, rate_pps, slice_s / 2);
    slices.push_back(std::move(slice));
  }
  return slices;
}

}  // namespace endbox::e2e
