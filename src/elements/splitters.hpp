// Traffic-shaping splitters for the DDoS-prevention use case.
//
// TrustedSplitter shapes traffic to a configured bandwidth using the
// SGX trusted time source. Because a trusted-time read is an expensive
// ocall, it samples timestamps only every SAMPLE packets (500,000 in
// the paper's evaluation) — section V-B. UntrustedSplitter is the
// server-side comparison element that reads system time per packet.
//
//   TrustedSplitter(RATE <bits/s> [, SAMPLE <packets>] [, BURST <bits>])
//   UntrustedSplitter(RATE <bits/s> [, BURST <bits>])
//
// Conforming packets exit output 0; over-rate packets exit output 1
// marked dropped (rate *limiting*, as the DDoS function requires).
//
// The bucket fills when it primes, on the first admitted packet, not
// at configure. Hot-swap and reshard fold each predecessor's unspent
// credit into its successor (absorb_state, capped at BURST), so a
// transition hands the limiter only credit the old lanes really held,
// never a fresh burst.
#pragma once

#include "click/element.hpp"
#include "elements/context.hpp"

namespace endbox::elements {

/// Token-bucket shaper; time acquisition strategy supplied by
/// subclasses (trusted/sampled vs untrusted/per-packet).
class RateSplitterBase : public click::Element {
 public:
  explicit RateSplitterBase(ElementContext& context) : context_(context) {}

  Status configure(const std::vector<std::string>& args) override;
  void push_batch(int port, click::PacketBatch&& batch) override;
  void absorb_state(Element& old_element) override;
  int n_outputs() const override { return 2; }

  double rate_bps() const { return rate_bps_; }
  std::uint64_t conforming() const { return counter(kConforming); }
  std::uint64_t over_rate() const { return counter(kOverRate); }

 protected:
  /// Returns current time; subclasses decide how (and how often) to
  /// actually query a clock.
  virtual sim::Time acquire_time() = 0;
  /// Extra per-subclass argument handling; returns false if unknown.
  virtual bool handle_arg(const std::string& key, const std::string& value,
                          Status& status);

  ElementContext& context_;
  std::uint64_t sample_interval_ = 1;  ///< packets between clock reads

 private:
  enum Slot { kConforming, kOverRate };

  /// Token-bucket admission for one packet (reads the clock via
  /// acquire_time, refreshes tokens, tallies conforming/over-rate).
  bool admit(const net::Packet& packet);

  double rate_bps_ = 1e9;
  double burst_bits_ = 0;  ///< 0 = default to one second at rate
  double tokens_ = 0;      ///< filled to burst_bits_ when the bucket primes
  sim::Time last_refresh_ = 0;
  bool primed_ = false;    ///< first packet admitted (or folded in)
  click::PacketBatch over_scratch_;  ///< reused over-rate burst for output 1
};

class TrustedSplitter : public RateSplitterBase {
 public:
  explicit TrustedSplitter(ElementContext& context) : RateSplitterBase(context) {
    sample_interval_ = 500'000;  // paper default
  }
  std::string_view class_name() const override { return "TrustedSplitter"; }
  std::uint64_t time_calls() const { return time_calls_; }
  std::uint64_t sample_interval() const { return sample_interval_; }

 protected:
  sim::Time acquire_time() override;
  bool handle_arg(const std::string& key, const std::string& value,
                  Status& status) override;

 private:
  std::uint64_t packets_since_sample_ = 0;
  sim::Time cached_time_ = 0;
  bool have_time_ = false;
  std::uint64_t time_calls_ = 0;
};

class UntrustedSplitter : public RateSplitterBase {
 public:
  using RateSplitterBase::RateSplitterBase;
  std::string_view class_name() const override { return "UntrustedSplitter"; }

 protected:
  sim::Time acquire_time() override;
};

}  // namespace endbox::elements
