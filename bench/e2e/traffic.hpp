// Seeded traffic for the four bench_e2e workloads, and the verdict
// oracle. Every packet carries the outcome the middlebox must give it,
// decided here from the rule set, never by the code under test:
//
// - Filler bytes are alphanumeric, and every content of the rule set
//   holds a byte that is not, so filler provably matches nothing.
// - A planted content comes from a single-content rule whose header
//   applies to the packet (any address, any port, the packet's
//   protocol) and that contains no other content, so it fires exactly
//   that rule.
// - A near-miss is a planted content with every '_' replaced by 'Z'.
// - Each insertion is checked once, when it is made, by a naive
//   case-folded search for every content over the insertion and its
//   neighbourhood.
//
// Traffic is generated per client and direction as a cyclic track of
// packet templates. The timed loop only resolves ports and copies the
// template's payload bytes into a pool packet (the application's write).
#pragma once

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdint>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "endbox/configs.hpp"
#include "idps/snort_rules.hpp"
#include "net/packet.hpp"

namespace endbox::e2e {

enum class Mix { IdpsClean, IdpsDirty, StreamSplit, FwImixFrag };

struct Workload {
  std::string_view name;
  Mix mix;
  UseCase use_case;
  std::size_t mtu;  ///< tunnel MTU at both ends
  /// R_w: offered packets per second, both directions, in the open
  /// loop. Half the seed commit's median closed-loop packet rate on
  /// the reference box (bench/e2e/README.md), fixed so that a faster
  /// change faces the same offered load.
  double open_rate_pps;
};

inline constexpr Workload kWorkloads[] = {
    {"idps_clean", Mix::IdpsClean, UseCase::Idps, 9000, 15200},
    {"idps_dirty", Mix::IdpsDirty, UseCase::Idps, 9000, 15500},
    {"stream_split", Mix::StreamSplit, UseCase::StreamIdps, 9000, 131000},
    {"fw_imix_frag", Mix::FwImixFrag, UseCase::Fw, 576, 62000},
};

inline const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads)
    if (w.name == name) return &w;
  return nullptr;
}

inline constexpr std::size_t kClients = 8;
inline constexpr std::size_t kBurst = 16;  ///< packets per client burst
inline constexpr std::uint8_t kTcpPshAck = 0x18;

inline net::Ipv4 server_ip() { return net::Ipv4(10, 0, 0, 1); }
inline net::Ipv4 client_ip(std::size_t c) {
  return net::Ipv4(10, 8, 0, static_cast<std::uint8_t>(c + 2));
}

/// One packet of a track.
struct PacketTemplate {
  std::uint32_t flow = 0;  ///< flow slot within the track's cycle
  std::uint32_t seq = 0;   ///< TCP sequence number (stream tracks)
  std::uint32_t off = 0;   ///< payload offset in Traffic::arena
  std::uint32_t len = 0;   ///< payload bytes
  bool pass = true;        ///< the oracle's verdict
  bool completes_plant = false;  ///< stream: completes a planted content
};

/// One client's packets in one direction, replayed cyclically. On a
/// stream track flow slot f of cycle k gets port 1024 + (k * flows + f)
/// mod 60000, so every replay of the cycle opens fresh TCP flows.
struct Track {
  std::vector<PacketTemplate> packets;
  std::uint32_t flows = 0;  ///< flow slots per cycle

  const PacketTemplate& at(std::uint64_t pos) const {
    return packets[pos % packets.size()];
  }
  std::uint64_t cycle(std::uint64_t pos) const { return pos / packets.size(); }
};

/// Everything a workload sends, built from the seed before any timing.
struct Traffic {
  net::IpProto proto = net::IpProto::Udp;
  Bytes arena;  ///< every payload byte of every track
  std::array<Track, kClients> up;    ///< client -> gateway
  std::array<Track, kClients> down;  ///< gateway -> client
  /// Downlink packets serialised per client as external traffic (no
  /// processed flag, so the client's ingress Click runs on them).
  std::array<std::vector<Bytes>, kClients> down_wire;

  bool stream() const { return proto == net::IpProto::Tcp; }
  std::uint16_t service_port() const { return stream() ? 80 : 5001; }
  std::uint16_t flow_port(const Track& track, std::uint64_t pos) const {
    const PacketTemplate& t = track.at(pos);
    if (!stream()) return static_cast<std::uint16_t>(40000 + t.flow);
    return static_cast<std::uint16_t>(
        1024 + (track.cycle(pos) * track.flows + t.flow) % 60000);
  }
  ByteView payload(const PacketTemplate& t) const {
    return {arena.data() + t.off, t.len};
  }

  /// Writes client c's uplink packet number `pos` into `p`.
  void fill_uplink(std::size_t c, std::uint64_t pos, net::Packet& p) const {
    const PacketTemplate& t = up[c].at(pos);
    p.src = client_ip(c);
    p.dst = server_ip();
    p.proto = proto;
    p.tos = 0;
    p.src_port = flow_port(up[c], pos);
    p.dst_port = service_port();
    p.seq = t.seq;
    p.ack = 0;
    p.tcp_flags = stream() ? kTcpPshAck : 0;
    ByteView bytes = payload(t);
    p.payload.assign(bytes.begin(), bytes.end());
  }

  /// Client c's downlink packet number `pos`, serialised. Stream
  /// packets get this cycle's port written in place (the L4 checksum
  /// is not computed by this stack, so nothing else changes).
  ByteView downlink(std::size_t c, std::uint64_t pos) {
    Bytes& wire = down_wire[c][pos % down_wire[c].size()];
    if (stream()) put_u16(wire.data() + net::kIpv4HeaderSize + 2, flow_port(down[c], pos));
    return wire;
  }
};

/// Naive case-folded substring search: the oracle's matcher.
inline bool contains_folded(ByteView hay, ByteView needle) {
  if (needle.empty() || needle.size() > hay.size()) return needle.empty();
  for (std::size_t i = 0; i + needle.size() <= hay.size(); ++i) {
    std::size_t j = 0;
    while (j < needle.size() &&
           std::tolower(hay[i + j]) == std::tolower(needle[j]))
      ++j;
    if (j == needle.size()) return true;
  }
  return false;
}

namespace detail {

constexpr char kAlnum[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
constexpr std::size_t kFillerBytes = std::size_t{1} << 20;
constexpr std::size_t kUdpTrack = 512;    ///< 32 bursts
constexpr std::size_t kImixTrack = 576;   ///< 36 bursts, 48 IMIX rounds
constexpr std::uint32_t kStreamFlows = 64;  ///< flows per stream cycle
constexpr std::size_t kLiveFlows = 8;

/// Builds a Traffic; see the file comment for the oracle's rules.
class TrafficGenerator {
 public:
  TrafficGenerator(const Workload& w, std::uint64_t seed,
                 const std::vector<idps::SnortRule>& rules)
      : workload_(w), seed_(seed), rules_(rules) {
    for (std::size_t r = 0; r < rules.size(); ++r)
      for (const auto& content : rules[r].contents) {
        bool has_non_alnum = std::any_of(
            content.bytes.begin(), content.bytes.end(),
            [](std::uint8_t b) { return std::isalnum(b) == 0; });
        if (!has_non_alnum)
          throw std::runtime_error("oracle: an alphanumeric content could match filler");
        contents_.push_back({r, content.bytes});
        max_content_ = std::max(max_content_, content.bytes.size());
      }
  }

  Traffic build() {
    Traffic t;
    t.proto = workload_.mix == Mix::StreamSplit ? net::IpProto::Tcp
                                                : net::IpProto::Udp;
    bool dirty = workload_.mix == Mix::IdpsDirty;
    if (dirty) plants_ = plant_rules(net::IpProto::Udp, /*drop_only=*/true);
    if (t.stream()) plants_ = plant_rules(net::IpProto::Tcp, /*drop_only=*/false);
    if ((dirty || t.stream()) && plants_.empty())
      throw std::runtime_error("oracle: no rule qualifies for planting");

    Rng filler_rng = Rng(seed_).fork(0xf111e5);
    arena_.resize(kFillerBytes);
    for (auto& b : arena_)
      b = static_cast<std::uint8_t>(kAlnum[filler_rng.next_u32() % 62]);

    for (std::size_t c = 0; c < kClients; ++c) {
      for (int dir = 0; dir < 2; ++dir) {
        rng_ = Rng(seed_).fork(0x100 + c * 2 + static_cast<std::size_t>(dir));
        Track track = t.stream() ? stream_track() : udp_track(dirty);
        (dir == 0 ? t.up[c] : t.down[c]) = std::move(track);
      }
    }
    t.arena = std::move(arena_);
    for (std::size_t c = 0; c < kClients; ++c) {
      const Track& track = t.down[c];
      for (std::uint64_t pos = 0; pos < track.packets.size(); ++pos) {
        const PacketTemplate& tpl = track.packets[pos];
        ByteView bytes = t.payload(tpl);
        Bytes payload(bytes.begin(), bytes.end());
        net::Packet p =
            t.stream()
                ? net::Packet::tcp(server_ip(), client_ip(c), t.service_port(),
                                   t.flow_port(track, pos), tpl.seq, 0,
                                   kTcpPshAck, std::move(payload))
                : net::Packet::udp(server_ip(), client_ip(c), t.service_port(),
                                   t.flow_port(track, pos), std::move(payload));
        t.down_wire[c].push_back(p.serialize());
      }
    }
    return t;
  }

 private:
  struct Content {
    std::size_t rule;
    Bytes bytes;
  };

  /// Single-content rules with '_' in the content whose header applies
  /// to any packet of `proto`, and whose content holds no other content.
  std::vector<std::size_t> plant_rules(net::IpProto proto, bool drop_only) const {
    std::vector<std::size_t> out;
    for (std::size_t r = 0; r < rules_.size(); ++r) {
      const idps::SnortRule& rule = rules_[r];
      if (rule.contents.size() != 1) continue;
      if (drop_only && rule.action != idps::RuleAction::Drop) continue;
      if (rule.action == idps::RuleAction::Pass) continue;
      if (rule.proto && *rule.proto != proto) continue;
      if (!rule.src.any || !rule.dst.any || !rule.src_port.any || !rule.dst_port.any)
        continue;
      const Bytes& bytes = rule.contents[0].bytes;
      if (std::find(bytes.begin(), bytes.end(), '_') == bytes.end()) continue;
      bool nested = false;
      for (const Content& other : contents_)
        nested = nested || (other.rule != r && contains_folded(bytes, other.bytes));
      if (!nested) out.push_back(r);
    }
    return out;
  }

  /// Rule indices whose content occurs in `region`.
  std::vector<std::size_t> matches_in(ByteView region) const {
    std::vector<std::size_t> found;
    for (const Content& content : contents_)
      if (contains_folded(region, content.bytes)) found.push_back(content.rule);
    return found;
  }

  std::uint32_t filler(std::size_t len) {
    return static_cast<std::uint32_t>(rng_.uniform(0, kFillerBytes - len));
  }

  /// Appends `len` filler bytes to the arena with `insert` written at
  /// `pos` and a letter after it (no content can extend the insert's
  /// trailing digits through it). Keeps the copy and returns its offset
  /// when the oracle finds exactly `expect` (a rule index, or nothing);
  /// otherwise discards it and returns nullopt.
  std::optional<std::uint32_t> try_insert(std::size_t len, std::size_t pos,
                                          ByteView insert,
                                          std::optional<std::size_t> expect) {
    std::size_t off = arena_.size();
    std::uint32_t from = filler(len);
    arena_.resize(off + len);
    std::memcpy(arena_.data() + off, arena_.data() + from, len);
    std::memcpy(arena_.data() + off + pos, insert.data(), insert.size());
    if (pos + insert.size() < len) arena_[off + pos + insert.size()] = 'x';
    std::size_t lo = pos >= max_content_ ? pos - max_content_ : 0;
    std::size_t hi = std::min(len, pos + insert.size() + max_content_);
    auto found = matches_in(ByteView(arena_.data() + off + lo, hi - lo));
    bool ok = expect ? found == std::vector<std::size_t>{*expect} : found.empty();
    if (!ok) {
      arena_.resize(off);
      return std::nullopt;
    }
    return static_cast<std::uint32_t>(off);
  }

  std::size_t pick_plant() { return plants_[rng_.uniform(0, plants_.size() - 1)]; }

  /// A payload of `len` bytes carrying rule `r`'s content (or its
  /// near-miss) at a random position.
  std::uint32_t inserted_payload(std::size_t len, std::size_t r, bool near_miss) {
    Bytes insert = rules_[r].contents[0].bytes;
    if (near_miss) std::replace(insert.begin(), insert.end(), std::uint8_t{'_'}, std::uint8_t{'Z'});
    for (int attempt = 0; attempt < 64; ++attempt) {
      std::size_t pos = rng_.uniform(0, len - insert.size() - 1);
      auto off = try_insert(len, pos, insert,
                            near_miss ? std::nullopt : std::optional<std::size_t>(r));
      if (off) return *off;
    }
    throw std::runtime_error("oracle: could not place content of rule " +
                             std::to_string(r));
  }

  /// IDPS and FW tracks: UDP bursts over 16 flows. Dirty tracks carry
  /// one planted Drop content and four near-misses per 16-packet burst.
  Track udp_track(bool dirty) {
    bool imix = workload_.mix == Mix::FwImixFrag;
    std::size_t length = imix ? kImixTrack : kUdpTrack;
    Track track;
    track.flows = 16;
    std::vector<std::size_t> sizes;
    for (std::size_t i = 0; i < length; ++i) {
      if (imix && i % 12 == 0) {
        // IMIX 7:4:1 of 64/576/1500-byte IP packets, shuffled per round.
        sizes.assign(7, 64);
        sizes.insert(sizes.end(), 4, 576);
        sizes.push_back(1500);
        for (std::size_t k = sizes.size() - 1; k > 0; --k)
          std::swap(sizes[k], sizes[rng_.uniform(0, k)]);
      }
      std::size_t ip_size = imix ? sizes[i % 12] : 1500;
      PacketTemplate tpl;
      tpl.flow = static_cast<std::uint32_t>(i % 16);
      tpl.len = static_cast<std::uint32_t>(ip_size - net::kIpv4HeaderSize -
                                           net::kUdpHeaderSize);
      tpl.off = filler(tpl.len);
      track.packets.push_back(tpl);
    }
    if (!dirty) return track;
    for (std::size_t b = 0; b < length / kBurst; ++b) {
      std::array<std::size_t, kBurst> slots;
      for (std::size_t k = 0; k < kBurst; ++k) slots[k] = k;
      for (std::size_t k = kBurst - 1; k > 0; --k)
        std::swap(slots[k], slots[rng_.uniform(0, k)]);
      for (std::size_t k = 0; k < 5; ++k) {  // slot 0 planted, 1..4 near-miss
        PacketTemplate& tpl = track.packets[b * kBurst + slots[k]];
        tpl.off = inserted_payload(tpl.len, pick_plant(), k != 0);
        tpl.pass = k != 0;
      }
    }
    return track;
  }

  /// STREAM track: 8 live TCP flows of 2-8 KB each, cut into 8-64 B
  /// in-order segments and interleaved; a finished flow is replaced by
  /// the next one until the cycle's flows are used up. One flow in 16
  /// carries a planted content straddling a segment boundary and must
  /// die from its completing segment on.
  Track stream_track() {
    struct Flow {
      std::uint32_t id = 0;
      std::uint32_t off = 0;
      std::uint32_t isn = 0;
      std::vector<std::uint32_t> cuts;  ///< segment starts, then the length
      std::size_t next = 0;             ///< next segment to emit
      std::size_t completing = SIZE_MAX;
    };
    std::uint32_t plant_phase = static_cast<std::uint32_t>(rng_.uniform(0, 15));
    auto make_flow = [&](std::uint32_t id) {
      Flow flow;
      flow.id = id;
      flow.isn = rng_.next_u32();
      auto len = static_cast<std::uint32_t>(rng_.uniform(2048, 8192));
      for (std::uint32_t at = 0; at < len;
           at += static_cast<std::uint32_t>(rng_.uniform(8, 64)))
        flow.cuts.push_back(at);
      flow.cuts.push_back(len);
      if (id % 16 != plant_phase) {
        flow.off = filler(len);
        return flow;
      }
      std::size_t r = pick_plant();
      const Bytes& content = rules_[r].contents[0].bytes;
      for (int attempt = 0; attempt < 64; ++attempt) {
        // Start the content 1..len-1 bytes before an interior boundary.
        std::size_t boundary = flow.cuts[rng_.uniform(1, flow.cuts.size() - 2)];
        std::size_t back = rng_.uniform(1, content.size() - 1);
        if (boundary < back || boundary - back + content.size() >= len) continue;
        std::size_t pos = boundary - back;
        auto off = try_insert(len, pos, content, r);
        if (!off) continue;
        flow.off = *off;
        std::size_t last = pos + content.size() - 1;
        flow.completing = static_cast<std::size_t>(
            std::upper_bound(flow.cuts.begin(), flow.cuts.end(), last) -
            flow.cuts.begin() - 1);
        return flow;
      }
      throw std::runtime_error("oracle: could not plant a straddling content");
    };

    Track track;
    track.flows = kStreamFlows;
    std::vector<Flow> live;
    std::uint32_t started = 0;
    while (live.size() < kLiveFlows) live.push_back(make_flow(started++));
    while (!live.empty()) {
      std::size_t slot = rng_.uniform(0, live.size() - 1);
      Flow& flow = live[slot];
      std::size_t s = flow.next++;
      PacketTemplate tpl;
      tpl.flow = flow.id;
      tpl.seq = flow.isn + flow.cuts[s];
      tpl.off = flow.off + flow.cuts[s];
      tpl.len = flow.cuts[s + 1] - flow.cuts[s];
      tpl.pass = s < flow.completing;
      tpl.completes_plant = s == flow.completing;
      track.packets.push_back(tpl);
      if (flow.next + 1 < flow.cuts.size()) continue;
      if (started < kStreamFlows) {
        flow = make_flow(started++);
      } else {
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(slot));
      }
    }
    return track;
  }

  const Workload& workload_;
  std::uint64_t seed_;
  const std::vector<idps::SnortRule>& rules_;
  std::vector<Content> contents_;
  std::size_t max_content_ = 0;
  std::vector<std::size_t> plants_;
  Bytes arena_;
  Rng rng_;
};

}  // namespace detail

inline Traffic make_traffic(const Workload& w, std::uint64_t seed,
                            const std::vector<idps::SnortRule>& rules) {
  return detail::TrafficGenerator(w, seed, rules).build();
}

}  // namespace endbox::e2e
