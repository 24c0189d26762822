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
  void push(int port, net::Packet&& packet) override;
  void push_batch(int port, click::PacketBatch&& batch) override;
  void take_state(Element& old_element) override;
  void absorb_state(Element& old_element) override;
  int n_outputs() const override { return 2; }

  const idps::IdpsEngine* engine() const { return engine_.get(); }
  std::uint64_t bytes_scanned() const { return bytes_scanned_; }
  std::uint64_t matches() const { return matches_; }
  std::uint64_t stream_chunks() const { return stream_chunks_; }
  /// Cross-segment matches observed — split-payload deliveries the
  /// per-packet matcher would have missed (evasions caught).
  std::uint64_t stream_evasions() const { return stream_evasions_; }
  std::uint64_t flows_killed() const { return flows_killed_; }
  /// Two-tier scanning stats: live engine counters plus the totals
  /// inherited from hot-swap predecessors (the engine is rebuilt per
  /// configure, so swap continuity lives in base_prefilter_).
  std::uint64_t prefiltered_bytes() const {
    return base_prefilter_.prefiltered_bytes +
           (engine_ ? engine_->prefilter_stats().prefiltered_bytes : 0);
  }
  std::uint64_t confirmed_windows() const {
    return base_prefilter_.confirmed_windows +
           (engine_ ? engine_->prefilter_stats().confirmed_windows : 0);
  }
  std::uint64_t fallback_scans() const {
    return base_prefilter_.fallback_scans +
           (engine_ ? engine_->prefilter_stats().fallback_scans : 0);
  }

 private:
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
  std::shared_ptr<idps::IdpsEngine> engine_;  ///< shared across hot-swaps
  bool drop_mode_ = false;
  bool mask_mode_ = false;
  std::uint64_t bytes_scanned_ = 0;
  std::uint64_t matches_ = 0;
  std::uint64_t stream_chunks_ = 0;    ///< stream windows scanned
  std::uint64_t stream_evasions_ = 0;  ///< cross-segment matches seen
  std::uint64_t flows_killed_ = 0;     ///< flows put into drop_flow
  idps::PrefilterStats base_prefilter_;  ///< totals from swapped-out elements
  idps::IdpsEngine::BatchScratch scratch_;    ///< reused across bursts
  click::PacketBatch drop_scratch_;           ///< reused matched burst for output 1
};

}  // namespace endbox::elements
