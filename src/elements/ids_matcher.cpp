#include "elements/ids_matcher.hpp"

#include <array>
#include <sstream>

namespace endbox::elements {

Status IDSMatcher::configure(const std::vector<std::string>& args) {
  std::string ruleset_name;
  drop_mode_ = false;
  mask_mode_ = false;
  for (const auto& arg : args) {
    std::istringstream in(arg);
    std::string key;
    in >> key;
    if (key == "RULESET") {
      if (!(in >> ruleset_name)) return err("IDSMatcher: RULESET needs a name");
    } else if (key == "DROP") {
      drop_mode_ = true;
    } else if (key == "MASK") {
      mask_mode_ = true;
    } else {
      return err("IDSMatcher: unknown argument '" + arg + "'");
    }
  }
  if (ruleset_name.empty()) return err("IDSMatcher: RULESET argument required");
  engine_ = context_.rulesets.engine(ruleset_name);
  if (!engine_) return err("IDSMatcher: unknown ruleset '" + ruleset_name + "'");
  return {};
}

idps::IdpsVerdict IDSMatcher::inspect_stream_one(net::Packet& packet) {
  FlowContext& ctx = *packet.flow_ctx;
  count(kStreamChunks);
  count(kBytesScanned, packet.stream_len);
  ByteView chunk(packet.payload.data() + packet.stream_off, packet.stream_len);
  std::span<std::uint8_t> mask;
  if (mask_mode_ && packet.stream_len > 0)
    mask = {packet.payload.data() + packet.stream_off, packet.stream_len};
  std::uint64_t before = ctx.match.cross_segment_matches;
  auto verdict =
      engine_->inspect_stream(packet, chunk, ctx.match, scratch_.rules, mask);
  count(kStreamEvasions, ctx.match.cross_segment_matches - before);
  return verdict;
}

bool IDSMatcher::apply_stream_verdict(net::Packet& packet,
                                      const idps::IdpsVerdict& verdict) {
  FlowContext& ctx = *packet.flow_ctx;
  if (verdict.matched) count(kMatches);
  bool kill = verdict.drop || (drop_mode_ && verdict.matched);
  if (kill && !ctx.match.drop_flow) {
    ctx.match.drop_flow = true;
    count(kFlowsKilled);
  }
  // A flow killed by an earlier segment stays dead: every later packet
  // of it is dropped whether or not this chunk matched anything.
  if (kill || ctx.match.drop_flow) {
    packet.dropped = true;
    // Dropped packets exit via output 1 and bypass TCPOut's scrub, so
    // the lane-local context pointer must be cleared here.
    packet.flow_ctx = nullptr;
    packet.stream_scan = false;
    return false;
  }
  return true;
}

void IDSMatcher::push_batch(int /*port*/, click::PacketBatch&& batch) {
  // Burst inspection: stream packets (those with a CTX context) are
  // scanned one by one in burst order, each verdict applied before the
  // next scan, so a flow killed earlier in the burst is not rescanned.
  // The other packets are inspected together by the interleaved walk.
  // Each packet's keep/drop lands at its burst position, so outputs and
  // statistics do not depend on how the traffic is cut into bursts.
  constexpr std::size_t kMax = click::PacketBatch::kMaxBurst;
  std::size_t n = batch.size();
  if (n == 0) return;
  std::array<bool, kMax> keep{};
  std::array<const net::Packet*, kMax> packets;
  std::array<ByteView, kMax> payloads;
  std::array<std::uint32_t, kMax> back;  // subset pos -> burst pos
  std::size_t m = 0;

  for (std::size_t i = 0; i < n; ++i) {
    net::Packet& packet = batch[i];
    if (stream_packet(packet)) {
      idps::IdpsVerdict verdict;
      if (!packet.flow_ctx->match.drop_flow) verdict = inspect_stream_one(packet);
      keep[i] = apply_stream_verdict(packet, verdict);
      continue;
    }
    const Bytes& data = packet.decrypted_payload.empty()
                            ? packet.payload
                            : packet.decrypted_payload;
    count(kBytesScanned, data.size());
    packets[m] = &packet;
    payloads[m] = data;
    back[m] = static_cast<std::uint32_t>(i);
    ++m;
  }

  if (m > 0) {
    std::array<idps::IdpsVerdict, kMax> verdicts;
    engine_->inspect_batch({packets.data(), m}, {payloads.data(), m}, scratch_,
                           verdicts.data());
    for (std::size_t k = 0; k < m; ++k) {
      if (verdicts[k].matched) count(kMatches);
      bool drop = verdicts[k].drop || (drop_mode_ && verdicts[k].matched);
      if (drop) batch[back[k]].dropped = true;
      keep[back[k]] = !drop;
    }
  }
  idps::InspectStats& stats = scratch_.rules.stats;
  count(kAlerts, stats.alerts);
  count(kDrops, stats.drops);
  count(kPrefilteredBytes, stats.prefiltered_bytes);
  count(kConfirmedWindows, stats.confirmed_windows);
  count(kFallbackScans, stats.fallback_scans);
  stats = {};

  std::size_t index = 0;
  click::partition_batch(batch, drop_scratch_,
                         [&](net::Packet&) { return keep[index++]; });
  output_batch(0, std::move(batch));
  output_batch(1, std::move(drop_scratch_));
  drop_scratch_.clear();
}

}  // namespace endbox::elements
