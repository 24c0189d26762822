// TCPIn / TCPOut: the stream-reassembly ends of the CTX chain
// (MiddleClick's TCPIn/TCPOut pair, FastClick bytestreammaintainer in
// spirit). TCPIn maintains each direction's reassembly cursor and
// annotates every packet with its *stream window* — the run of new
// in-order payload bytes it contributes — without copying segment
// payloads into a reassembly buffer: in-order segments pass straight
// through with a window annotation; out-of-order segments are parked
// (whole packet, bounded count/bytes/age) and released, windows set,
// when the hole fills. Downstream, IDSMatcher feeds the windows to the
// resumable scanner in stream order, which is exactly reassembly as
// far as pattern matching is concerned.
//
// TCPIn output 1 carries parked-cap overflow: segments a hostile flow
// tried to buffer beyond its StreamLimits are dropped *unscanned but
// also unforwarded* — forwarding bytes the IDS never saw is the
// evasion this chain exists to close. TCPIn re-batches per output
// port, so forwarded segments and drops leave as separate bursts;
// a released segment follows the segment that filled its hole.
//
// TCPOut clears the context annotation (contexts are lane-local and
// can expire between bursts; a pointer must never leave the graph) and
// tallies delivered stream bytes.
#pragma once

#include "click/element.hpp"
#include "elements/flow_context.hpp"

namespace endbox::elements {

class TCPIn : public click::Element {
 public:
  std::string_view class_name() const override { return "TCPIn"; }
  void push_batch(int port, click::PacketBatch&& batch) override;
  int n_outputs() const override { return 2; }

  std::uint64_t packets_seen() const { return counter(kPacketsSeen); }
  std::uint64_t in_order_bytes() const { return counter(kInOrderBytes); }

 private:
  enum Slot { kPacketsSeen, kInOrderBytes };

  void process(net::Packet&& packet);
  /// Appends one packet to the output burst of `port` (flushed when
  /// full — parked releases can emit more packets than arrived).
  void emit(int port, net::Packet&& packet);
  /// Drops parked segments older than park_age lane packets.
  void expire_parked(FlowContext& ctx);
  /// Parks an out-of-order segment (or drops it at the caps).
  void park(FlowContext& ctx, net::Packet&& packet);
  /// Releases every parked segment the cursor has caught up to.
  void release_parked(FlowContext& ctx);

  click::PacketBatch out_batch_;
  click::PacketBatch drop_batch_;
};

class TCPOut : public click::Element {
 public:
  std::string_view class_name() const override { return "TCPOut"; }
  void push_batch(int port, click::PacketBatch&& batch) override;

  std::uint64_t packets_out() const { return counter(kPacketsOut); }
  std::uint64_t stream_bytes_out() const { return counter(kStreamBytesOut); }

 private:
  enum Slot { kPacketsOut, kStreamBytesOut };

  void scrub(net::Packet& packet);
};

}  // namespace endbox::elements
