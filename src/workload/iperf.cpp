#include "workload/iperf.hpp"

#include <queue>

namespace endbox::workload {

namespace {
struct Pending {
  sim::Time ready;
  std::size_t source;
  bool operator>(const Pending& other) const { return ready > other.ready; }
};
}  // namespace

IperfReport IperfHarness::run() {
  IperfReport report;
  if (sources_.empty()) return report;
  const sim::Time end = config_.duration;

  // Next send opportunity per source: a source may send when both its
  // client pipeline is free and (offered mode) the pacing gap elapsed.
  std::priority_queue<Pending, std::vector<Pending>, std::greater<>> queue;
  for (std::size_t i = 0; i < sources_.size(); ++i) queue.push({0, i});

  while (!queue.empty()) {
    Pending next = queue.top();
    queue.pop();
    if (next.ready >= end) continue;
    IperfSource& source = sources_[next.source];

    SendOutcome sent = source.send(next.ready);
    ++report.writes_sent;
    report.wire_messages += sent.wire.size();

    // Deliver wire messages: the source's own path, else the shared
    // bottleneck link (if any), then the server. The write counts when
    // any of its frames completed it before the deadline.
    sim::Time server_done = next.ready;
    bool delivered = false;
    for (const Bytes& wire : sent.wire) {
      sim::Time arrival =
          source.path.hops() > 0
              ? source.path.deliver(next.ready, wire.size())
              : (config_.link ? config_.link->transmit(next.ready, wire.size())
                              : next.ready);
      ServeOutcome served = serve_(wire, arrival);
      server_done = std::max(server_done, served.done);
      delivered |= served.delivered;
    }
    if (delivered && server_done < end) ++report.writes_delivered;

    // Schedule the next write for this source.
    sim::Time next_ready = sent.done;
    if (source.offered_bps > 0) {
      auto gap = static_cast<sim::Time>(static_cast<double>(source.write_size) * 8.0 /
                                        source.offered_bps * 1e9);
      next_ready = std::max(next_ready, next.ready + gap);
    }
    if (next_ready < end) queue.push({next_ready, next.source});
  }

  report.elapsed = end;
  // Goodput: delivered writes x write size (uniform per harness run
  // because every source uses the same write size in our experiments).
  double bits = static_cast<double>(report.writes_delivered) *
                static_cast<double>(sources_.front().write_size) * 8.0;
  report.throughput_mbps = bits / sim::to_seconds(end) / 1e6;
  return report;
}

}  // namespace endbox::workload
