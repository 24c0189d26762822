#include "elements/tcp_stream.hpp"

#include <algorithm>
#include <utility>

namespace endbox::elements {

namespace {
constexpr std::uint8_t kSyn = 0x02;

/// Serial-number comparison (RFC 1982 style): a < b across wraparound.
bool seq_before(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}
}  // namespace

void TCPIn::emit(int port, net::Packet&& packet) {
  click::PacketBatch& batch = port == 0 ? out_batch_ : drop_batch_;
  batch.push_back(std::move(packet));
  if (batch.full()) {
    output_batch(port, std::move(batch));
    batch.clear();
  }
}

void TCPIn::expire_parked(FlowContext& ctx) {
  if (ctx.parked.empty()) return;
  std::uint64_t now = ctx.stats->logical_now;
  std::uint64_t age = ctx.limits->park_age;
  // Parked lists are tiny (<= park_segments) and sorted by seq, not
  // age, so a linear sweep with stable compaction is the whole cost.
  std::size_t write = 0;
  for (std::size_t i = 0; i < ctx.parked.size(); ++i) {
    ParkedSegment& seg = ctx.parked[i];
    if (seg.born + age < now) {
      std::size_t bytes = seg.packet.payload.size();
      ctx.parked_bytes -= bytes;
      ctx.stats->bytes_buffered -= bytes;
      ++ctx.stats->segments_expired_age;
      seg.packet.dropped = true;
      seg.packet.flow_ctx = nullptr;
      emit(1, std::move(seg.packet));
      continue;
    }
    if (write != i) ctx.parked[write] = std::move(ctx.parked[i]);
    ++write;
  }
  ctx.parked.resize(write);
}

void TCPIn::park(FlowContext& ctx, net::Packet&& packet) {
  std::size_t bytes = packet.payload.size();
  const StreamLimits& limits = *ctx.limits;
  if (ctx.parked.size() >= limits.park_segments ||
      ctx.parked_bytes + bytes > limits.park_bytes) {
    // At the caps the segment is dropped, not forwarded: unscanned
    // bytes must never reach the protected side.
    ++ctx.stats->segments_dropped_overflow;
    packet.dropped = true;
    packet.flow_ctx = nullptr;
    emit(1, std::move(packet));
    return;
  }
  auto pos = std::find_if(ctx.parked.begin(), ctx.parked.end(),
                          [&](const ParkedSegment& seg) {
                            return !seq_before(seg.seq, packet.seq);
                          });
  if (pos != ctx.parked.end() && pos->seq == packet.seq) {
    if (bytes <= pos->packet.payload.size()) {
      // Duplicate of an already-parked segment: nothing new to buffer
      // or scan — forward with an empty window (a repeated future
      // segment must not be able to pin lane memory).
      packet.stream_off = 0;
      packet.stream_len = 0;
      packet.stream_scan = true;
      emit(0, std::move(packet));
      return;
    }
    // Same start, more data (retransmit grew): the parked copy is a
    // strict prefix — swap it out so its tail bytes are not lost, and
    // forward the now-redundant shorter copy with an empty window.
    std::size_t old_bytes = pos->packet.payload.size();
    if (ctx.parked_bytes - old_bytes + bytes > limits.park_bytes) {
      ++ctx.stats->segments_dropped_overflow;
      packet.dropped = true;
      packet.flow_ctx = nullptr;
      emit(1, std::move(packet));
      return;
    }
    std::swap(pos->packet, packet);
    pos->born = ctx.stats->logical_now;
    ctx.parked_bytes += bytes - old_bytes;
    ctx.stats->bytes_buffered += bytes - old_bytes;
    if (ctx.stats->bytes_buffered > ctx.stats->bytes_buffered_peak)
      ctx.stats->bytes_buffered_peak = ctx.stats->bytes_buffered;
    packet.flow_ctx = &ctx;  // the swapped-out copy may predate a reshard
    packet.stream_off = 0;
    packet.stream_len = 0;
    packet.stream_scan = true;
    emit(0, std::move(packet));
    return;
  }
  ParkedSegment seg;
  seg.seq = packet.seq;
  seg.born = ctx.stats->logical_now;
  seg.packet = std::move(packet);
  ctx.parked.insert(pos, std::move(seg));
  ctx.parked_bytes += bytes;
  ctx.stats->bytes_buffered += bytes;
  if (ctx.stats->bytes_buffered > ctx.stats->bytes_buffered_peak)
    ctx.stats->bytes_buffered_peak = ctx.stats->bytes_buffered;
  ++ctx.stats->segments_parked;
}

void TCPIn::release_parked(FlowContext& ctx) {
  while (!ctx.parked.empty() &&
         !seq_before(ctx.expected_seq, ctx.parked.front().seq)) {
    ParkedSegment seg = std::move(ctx.parked.front());
    ctx.parked.erase(ctx.parked.begin());
    std::size_t bytes = seg.packet.payload.size();
    ctx.parked_bytes -= bytes;
    ctx.stats->bytes_buffered -= bytes;
    ++ctx.stats->segments_released;

    net::Packet packet = std::move(seg.packet);
    packet.flow_ctx = &ctx;  // parked across bursts: re-point
    std::uint32_t len = static_cast<std::uint32_t>(packet.payload.size());
    std::uint32_t overlap =
        static_cast<std::uint32_t>(ctx.expected_seq - seg.seq);
    if (overlap >= len) {
      packet.stream_off = 0;
      packet.stream_len = 0;
    } else {
      packet.stream_off = overlap;
      packet.stream_len = len - overlap;
      ctx.expected_seq += packet.stream_len;
      ctx.stream_bytes += packet.stream_len;
      count(kInOrderBytes, packet.stream_len);
    }
    packet.stream_scan = true;
    emit(0, std::move(packet));
  }
}

void TCPIn::process(net::Packet&& packet) {
  count(kPacketsSeen);
  FlowContext* ctx = packet.flow_ctx;
  if (!ctx) {
    // Unclassified (non-TCP, or CTXManager at capacity): pass through
    // untouched; IDSMatcher keeps the per-packet path for it.
    emit(0, std::move(packet));
    return;
  }
  expire_parked(*ctx);
  std::uint32_t len = static_cast<std::uint32_t>(packet.payload.size());
  if (!ctx->synced) {
    ctx->synced = true;
    // First packet of the direction establishes the cursor; SYN
    // consumes one sequence number.
    ctx->expected_seq = packet.seq + ((packet.tcp_flags & kSyn) ? 1u : 0u);
  }
  std::int32_t diff = static_cast<std::int32_t>(packet.seq - ctx->expected_seq);
  if (diff > 0 && len > 0) {
    park(*ctx, std::move(packet));
    return;
  }
  packet.stream_scan = true;
  std::uint32_t overlap = diff >= 0 ? 0u : static_cast<std::uint32_t>(-diff);
  if (overlap >= len || len == 0) {
    // Pure ACK, SYN, keep-alive or full retransmit: no new bytes.
    packet.stream_off = 0;
    packet.stream_len = 0;
    emit(0, std::move(packet));
    return;
  }
  packet.stream_off = overlap;
  packet.stream_len = len - overlap;
  ctx->expected_seq += packet.stream_len;
  ctx->stream_bytes += packet.stream_len;
  count(kInOrderBytes, packet.stream_len);
  FlowContext& flow = *ctx;  // packet is moved next; keep the context
  emit(0, std::move(packet));
  release_parked(flow);
}

void TCPIn::push_batch(int /*port*/, click::PacketBatch&& batch) {
  for (auto& packet : batch) process(std::move(packet));
  batch.clear();
  output_batch(0, std::move(out_batch_));
  out_batch_.clear();
  output_batch(1, std::move(drop_batch_));
  drop_batch_.clear();
}

void TCPOut::scrub(net::Packet& packet) {
  count(kPacketsOut);
  count(kStreamBytesOut, packet.stream_len);
  packet.flow_ctx = nullptr;
  packet.stream_off = 0;
  packet.stream_len = 0;
  packet.stream_scan = false;
}

void TCPOut::push_batch(int /*port*/, click::PacketBatch&& batch) {
  for (auto& packet : batch) scrub(packet);
  output_batch(0, std::move(batch));
}

}  // namespace endbox::elements
