// Span recorder for the traced run. Spans are timed from outside, around
// the driver's calls into each layer's public functions; every span of
// one tick shares the tick id, and the tick's root span is their parent.
// Spans go into a vector preallocated before timing and are written out
// as JSON lines after the run.
#pragma once

#include <array>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace endbox::e2e {

enum class SpanKind : std::uint8_t {
  Tick,     ///< root: one driver tick
  Gen,      ///< driver builds one egress burst from the track
  Egress,   ///< EndBoxEnclave::ecall_process_egress_batch
  Wire,     ///< frames move between the enclaves and the gateway
  GwOpen,   ///< VpnServer::open_batch over the uplink train
  GwSeal,   ///< VpnServer::seal_jobs for the downlink
  Ingress,  ///< EndBoxEnclave::ecall_process_ingress_batch
  Verify,   ///< driver checks deliveries against the oracle
};
inline constexpr std::size_t kSpanKinds = 8;

inline const char* span_name(SpanKind kind) {
  static constexpr const char* kNames[kSpanKinds] = {
      "tick", "gen", "egress", "wire", "gw_open", "gw_seal", "ingress", "verify"};
  return kNames[static_cast<std::size_t>(kind)];
}

class Tracer {
 public:
  explicit Tracer(std::size_t capacity) { spans_.reserve(capacity); }

  void begin_tick() { ++tick_; }

  void record(SpanKind kind, int client, std::int64_t start, std::int64_t end) {
    auto k = static_cast<std::size_t>(kind);
    total_ns_[k] += end - start;
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return;
    }
    spans_.push_back({tick_, static_cast<std::int16_t>(client), kind, start, end});
  }

  std::int64_t total_ns(SpanKind kind) const {
    return total_ns_[static_cast<std::size_t>(kind)];
  }
  std::uint64_t dropped() const { return dropped_; }

  /// Writes one JSON object per span. A tick's children precede its
  /// root in the vector; the root's self time is its duration minus
  /// the children's (which have no children of their own).
  bool write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    std::int64_t child_ns = 0;
    for (const Span& s : spans_) {
      std::int64_t dur = s.end - s.start;
      std::int64_t self = dur;
      if (s.kind == SpanKind::Tick) {
        self = dur - child_ns;
        child_ns = 0;
      } else {
        child_ns += dur;
      }
      out << "{\"tick\":" << s.tick << ",\"span\":\"" << span_name(s.kind)
          << "\",\"parent\":"
          << (s.kind == SpanKind::Tick ? "null" : "\"tick\"")
          << ",\"client\":" << s.client << ",\"start_ns\":" << s.start
          << ",\"dur_ns\":" << dur << ",\"self_ns\":" << self << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::uint64_t tick;
    std::int16_t client;  ///< -1 for spans not tied to one client
    SpanKind kind;
    std::int64_t start;
    std::int64_t end;
  };

  std::vector<Span> spans_;
  std::array<std::int64_t, kSpanKinds> total_ns_{};
  std::uint64_t tick_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace endbox::e2e
