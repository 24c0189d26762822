#include "elements/splitters.hpp"

#include <sstream>

namespace endbox::elements {

bool RateSplitterBase::handle_arg(const std::string& /*key*/,
                                  const std::string& /*value*/, Status& /*status*/) {
  return false;
}

Status RateSplitterBase::configure(const std::vector<std::string>& args) {
  bool have_rate = false;
  for (const auto& arg : args) {
    std::istringstream in(arg);
    std::string key, value;
    if (!(in >> key >> value))
      return err(std::string(class_name()) + ": malformed argument '" + arg + "'");
    try {
      if (key == "RATE") {
        rate_bps_ = std::stod(value);
        if (rate_bps_ <= 0) return err("RATE must be positive");
        have_rate = true;
      } else if (key == "BURST") {
        burst_bits_ = std::stod(value);
        if (burst_bits_ <= 0) return err("BURST must be positive");
      } else {
        Status status;
        if (!handle_arg(key, value, status))
          return err(std::string(class_name()) + ": unknown argument '" + key + "'");
        if (!status.ok()) return status;
      }
    } catch (const std::exception&) {
      return err(std::string(class_name()) + ": bad number '" + value + "'");
    }
  }
  if (!have_rate) return err(std::string(class_name()) + ": RATE required");
  if (burst_bits_ == 0) burst_bits_ = rate_bps_;  // one second of burst
  return {};
}

bool RateSplitterBase::admit(const net::Packet& packet) {
  sim::Time now = acquire_time();
  if (!primed_) {
    tokens_ = burst_bits_;  // fill on priming: a new element holds no credit
    last_refresh_ = now;
    primed_ = true;
  }
  if (now > last_refresh_) {
    tokens_ += rate_bps_ * sim::to_seconds(now - last_refresh_);
    if (tokens_ > burst_bits_) tokens_ = burst_bits_;
    last_refresh_ = now;
  }
  double bits = static_cast<double>(packet.wire_size()) * 8.0;
  if (tokens_ < bits) {
    count(kOverRate);
    return false;
  }
  tokens_ -= bits;
  count(kConforming);
  return true;
}

void RateSplitterBase::push_batch(int /*port*/, click::PacketBatch&& batch) {
  // Admission stays per packet, in burst order, so the bucket and the
  // sampled clock see the same sequence however the stream is cut into
  // bursts; only the forwarding batches.
  click::partition_batch(batch, over_scratch_, [this](net::Packet& packet) {
    if (admit(packet)) return true;
    packet.dropped = true;
    return false;
  });
  output_batch(0, std::move(batch));
  output_batch(1, std::move(over_scratch_));
  over_scratch_.clear();
}

void RateSplitterBase::absorb_state(Element& old_element) {
  auto& old = static_cast<RateSplitterBase&>(old_element);
  // Bucket state: pool the credit the predecessors really held (capped
  // at the configured burst) and keep the most recent refresh, so a
  // transition never mints extra credit.
  tokens_ = std::min(tokens_ + old.tokens_, burst_bits_);
  last_refresh_ = std::max(last_refresh_, old.last_refresh_);
  primed_ = primed_ || old.primed_;
}

sim::Time TrustedSplitter::acquire_time() {
  if (!have_time_ || ++packets_since_sample_ >= sample_interval_) {
    cached_time_ = context_.trusted_time ? context_.trusted_time() : 0;
    ++time_calls_;
    ++context_.trusted_time_calls;
    packets_since_sample_ = 0;
    have_time_ = true;
  }
  return cached_time_;
}

bool TrustedSplitter::handle_arg(const std::string& key, const std::string& value,
                                 Status& status) {
  if (key != "SAMPLE") return false;
  try {
    long interval = std::stol(value);
    if (interval < 1) {
      status = err("SAMPLE must be >= 1");
      return true;
    }
    sample_interval_ = static_cast<std::uint64_t>(interval);
  } catch (const std::exception&) {
    status = err("bad SAMPLE value '" + value + "'");
  }
  return true;
}

sim::Time UntrustedSplitter::acquire_time() {
  ++context_.untrusted_time_calls;
  return context_.untrusted_time ? context_.untrusted_time() : 0;
}

}  // namespace endbox::elements
