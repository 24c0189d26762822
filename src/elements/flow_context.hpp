// Per-flow stream context for the CTX chain (CTXManager -> TCPIn ->
// IDSMatcher -> TCPOut), modelled on MiddleClick's per-session context
// stack: classify once at the head of the chain, hang every element's
// per-flow state off the one context, and hand it down the graph as a
// packet annotation instead of re-looking-up per element.
//
// Contexts are lane-local: RSS pins a flow's packets to one lane, so
// its context lives in that lane's CTXManager table and is read and
// written without locks. Hot-swap and reshard migrate live contexts to
// the lane their flow hashes to (Element::migrate_flows), so
// mid-stream scans survive a new configuration or lane count.
//
// Keying is *unidirectional* (net::FlowKey, the plain 5-tuple): the
// two directions of a TCP connection are distinct streams with
// independent sequence spaces — and they hash to different lanes, so a
// bidirectional context could not be lane-local in the first place.
#pragma once

#include <cstdint>
#include <vector>

#include "idps/engine.hpp"
#include "net/packet.hpp"

namespace endbox::elements {

/// Bounds on the stream state one flow may hold. A hostile flow that
/// sends nothing but out-of-order futures hits the segment/byte caps
/// and its excess is dropped-unscanned (never forwarded unscanned —
/// that would be exactly the evasion the stream path exists to close);
/// parked segments older than `park_age` packets of lane time are
/// dropped on the next touch, so a stalled hole cannot pin memory.
struct StreamLimits {
  std::size_t park_segments = 32;    ///< max parked segments per flow
  std::size_t park_bytes = 64 << 10; ///< max parked payload bytes per flow
  std::uint64_t park_age = 4096;     ///< max parked lifetime (lane packets)
};

/// Lane-local stream counters, owned by the lane's CTXManager and
/// shared (by pointer) with every context it hands out, so TCPIn's
/// parking decisions update one place the enclave can introspect.
struct StreamStats {
  std::uint64_t logical_now = 0;          ///< lane packet clock
  std::uint64_t flows_classified = 0;     ///< contexts created
  std::uint64_t flows_expired = 0;        ///< contexts idle-expired
  std::uint64_t flows_migrated_in = 0;    ///< contexts moved in (swap, reshard)
  std::uint64_t bytes_buffered = 0;       ///< parked payload bytes now
  std::uint64_t bytes_buffered_peak = 0;
  std::uint64_t segments_parked = 0;      ///< out-of-order segments parked
  std::uint64_t segments_released = 0;    ///< parked segments re-ordered out
  std::uint64_t segments_dropped_overflow = 0;  ///< parked-cap drops
  std::uint64_t segments_expired_age = 0;       ///< park_age drops

  void absorb(const StreamStats& other) {
    // logical_now is lane time, not a counter — keep the larger clock
    // so re-stamped activity never moves backwards. bytes_buffered is
    // not folded: it counts the parked bytes of this lane's contexts,
    // and each migrated context brings its own (CTXManager::adopt).
    logical_now = logical_now > other.logical_now ? logical_now
                                                  : other.logical_now;
    flows_classified += other.flows_classified;
    flows_expired += other.flows_expired;
    flows_migrated_in += other.flows_migrated_in;
    bytes_buffered_peak = bytes_buffered_peak > other.bytes_buffered_peak
                              ? bytes_buffered_peak
                              : other.bytes_buffered_peak;
    segments_parked += other.segments_parked;
    segments_released += other.segments_released;
    segments_dropped_overflow += other.segments_dropped_overflow;
    segments_expired_age += other.segments_expired_age;
  }
};

/// An out-of-order TCP segment held until the stream catches up to it.
/// The whole packet is parked (not just payload): when the hole fills,
/// TCPIn forwards the original packet with its stream window set, so
/// downstream elements see real packets in stream order.
struct ParkedSegment {
  std::uint32_t seq = 0;
  std::uint64_t born = 0;  ///< lane clock at parking (for park_age)
  net::Packet packet;
};

/// Everything the chain keeps per flow. Created by CTXManager on the
/// flow's first TCP packet, advanced by TCPIn (reassembly cursor) and
/// IDSMatcher (resumable match state), torn down by idle expiry or
/// table eviction.
struct FlowContext {
  // --- TCPIn reassembly state ---
  bool synced = false;           ///< expected_seq initialised
  std::uint32_t expected_seq = 0;  ///< next in-order stream byte
  std::uint64_t stream_bytes = 0;  ///< in-order bytes delivered so far
  std::vector<ParkedSegment> parked;  ///< out-of-order, sorted by seq
  std::size_t parked_bytes = 0;

  // --- IDPS resumable scan state ---
  idps::StreamMatchState match;

  // --- Lane plumbing (re-pointed on migration) ---
  StreamStats* stats = nullptr;
  const StreamLimits* limits = nullptr;
};

}  // namespace endbox::elements
