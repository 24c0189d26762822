// IDSMatcher: the paper's custom IDPS element (section V-B). Executes a
// Snort rule set via the Aho-Corasick engine. Configuration:
//
//   IDSMatcher(RULESET community)         — alert-only
//   IDSMatcher(RULESET community, DROP)   — drop on any match
//   IDSMatcher(RULESET community, DROP, MASK)  — also overwrite matched
//                                                bytes with 'X'
//
// Scans the decrypted payload when TLSDecrypt ran upstream, otherwise
// the raw payload. Matching packets exit output 1 (marked dropped) in
// DROP mode; everything else exits output 0.
//
// Stream mode: when CTXManager/TCPIn run upstream (packet carries a
// flow context and a stream window), the matcher feeds each flow's
// windows to the engine's resumable scanner, so content split across
// TCP segments matches exactly as in one segment — the split-payload
// evasion the per-packet path misses. A rule fires once per flow, on
// the completing segment; in DROP mode the rest of a matched flow is
// dropped (stream semantics: the connection is hostile, not one
// packet). Packets without a context (non-TCP, CTX table full) are
// inspected per packet, which gives single-segment flows the same
// verdicts as the stream path.
//
// The engine is the context's compiled rule set, shared by every lane,
// hot-swap and reshard. Each burst folds the engine's tally (alerts,
// drops, scan counts) from the matcher's scratch into the counter
// block, which the router sums, so the matcher needs no state hook.
#pragma once

#include <memory>

#include "click/element.hpp"
#include "elements/context.hpp"
#include "elements/flow_context.hpp"
#include "idps/engine.hpp"

namespace endbox::elements {

class IDSMatcher : public click::Element {
 public:
  explicit IDSMatcher(ElementContext& context) : context_(context) {}

  std::string_view class_name() const override { return "IDSMatcher"; }
  Status configure(const std::vector<std::string>& args) override;
  void push_batch(int port, click::PacketBatch&& batch) override;
  int n_outputs() const override { return 2; }

  const idps::IdpsEngine* engine() const { return engine_.get(); }
  std::uint64_t bytes_scanned() const { return counter(kBytesScanned); }
  std::uint64_t matches() const { return counter(kMatches); }
  /// Stream windows scanned.
  std::uint64_t stream_chunks() const { return counter(kStreamChunks); }
  /// Cross-segment matches observed — split-payload deliveries the
  /// per-packet matcher would have missed (evasions caught).
  std::uint64_t stream_evasions() const { return counter(kStreamEvasions); }
  /// Flows put into drop_flow.
  std::uint64_t flows_killed() const { return counter(kFlowsKilled); }
  /// Alert-rule firings and drop verdicts (idps::InspectStats).
  std::uint64_t alerts() const { return counter(kAlerts); }
  std::uint64_t drops() const { return counter(kDrops); }
  /// Two-tier scanning stats (idps::InspectStats).
  std::uint64_t prefiltered_bytes() const { return counter(kPrefilteredBytes); }
  std::uint64_t confirmed_windows() const { return counter(kConfirmedWindows); }
  std::uint64_t fallback_scans() const { return counter(kFallbackScans); }

 private:
  enum Slot { kBytesScanned, kMatches, kStreamChunks, kStreamEvasions,
              kFlowsKilled, kAlerts, kDrops, kPrefilteredBytes,
              kConfirmedWindows, kFallbackScans };

  /// True when the packet must take the resumable stream path.
  static bool stream_packet(const net::Packet& packet) {
    return packet.flow_ctx != nullptr && packet.stream_scan;
  }
  idps::IdpsVerdict inspect_stream_one(net::Packet& packet);
  /// Applies a stream verdict: kills the flow on drop. Returns true
  /// when the packet survives.
  bool apply_stream_verdict(net::Packet& packet,
                            const idps::IdpsVerdict& verdict);

  ElementContext& context_;
  std::shared_ptr<const idps::IdpsEngine> engine_;  ///< the context's compiled set
  bool drop_mode_ = false;
  bool mask_mode_ = false;
  idps::IdpsEngine::BatchScratch scratch_;    ///< reused across bursts
  click::PacketBatch drop_scratch_;           ///< reused matched burst for output 1
};

}  // namespace endbox::elements
