// iperf-style throughput measurement harness (the evaluation's tool of
// choice for Figs 8-10).
//
// Each traffic source is an adapter closure pair: `send` produces the
// tunnel wire messages for one application write and reports when the
// client CPU finished it; `serve` consumes one wire message at the
// server and reports whether an application write completed. One send
// is one write, as with iperf over a per-packet OpenVPN client. The
// harness runs any number of sources either closed-loop (maximum rate,
// single-client Figs 8/9) or at a fixed offered rate (200 Mbps per
// client, Fig 10), over a shared bottleneck link, and reports goodput.
#pragma once

#include <functional>
#include <vector>

#include "common/bytes.hpp"
#include "netsim/link.hpp"
#include "sim/clock.hpp"

namespace endbox::workload {

struct SendOutcome {
  std::vector<Bytes> wire;  ///< tunnel messages (>= 1 per write when fragmented)
  sim::Time done = 0;       ///< client CPU completion
};

struct ServeOutcome {
  bool delivered = false;   ///< an application write fully arrived
  sim::Time done = 0;       ///< server CPU completion
};

struct IperfSource {
  /// Produces one application write of `payload` bytes at `now`.
  std::function<SendOutcome(sim::Time now)> send;
  /// Bits per second this source offers; 0 = closed loop (as fast as
  /// the client pipeline allows).
  double offered_bps = 0;
  /// Application write size (sets the inter-send gap in offered mode).
  std::size_t write_size = 1500;
  /// Per-source route to the server (e.g. access link + shared uplink
  /// in a star topology). When non-empty it carries this source's wire
  /// frames and IperfConfig::link is ignored for them.
  netsim::Path path;
};

struct IperfConfig {
  sim::Time duration = sim::from_seconds(1.0);
  /// Shared client->server bottleneck for sources without their own
  /// path; nullptr = infinitely fast wire.
  netsim::Link* link = nullptr;
};

struct IperfReport {
  double throughput_mbps = 0;        ///< application goodput at the server
  std::uint64_t writes_sent = 0;
  std::uint64_t writes_delivered = 0;
  std::uint64_t wire_messages = 0;
  sim::Time elapsed = 0;
};

class IperfHarness {
 public:
  using ServeFn = std::function<ServeOutcome(const Bytes& wire, sim::Time now)>;

  IperfHarness(ServeFn serve, IperfConfig config)
      : serve_(std::move(serve)), config_(config) {}

  void add_source(IperfSource source) { sources_.push_back(std::move(source)); }

  /// Runs all sources for the configured duration of virtual time.
  IperfReport run();

 private:
  ServeFn serve_;
  IperfConfig config_;
  std::vector<IperfSource> sources_;
};

}  // namespace endbox::workload
