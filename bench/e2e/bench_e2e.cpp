// bench_e2e: wall-clock end-to-end benchmark of the EndBox data path.
//
// Eight attested, provisioned and connected clients (tests/
// endbox_world.hpp) run one workload's middlebox bundle. One driver
// thread pushes their traffic through the real client -> gateway ->
// client path (driver.hpp) and checks every delivery against the
// traffic oracle (traffic.hpp). Every stage runs one lane (enclave
// shards = 1, gateway session shards = 1), so only one thread is ever
// runnable: on a small shared VM a second thread may get no second core
// at all, and multi-lane wall-clock numbers would measure the
// hypervisor (README.md, "Host caveats").
//
//   bench_e2e --workload NAME --seed N [--seconds S] [--trace] [--smoke]
//             [--out DIR] [--json FILE]
//   bench_e2e --seed N [...]    all four workloads, each in a fresh process
//
// An untraced run reports the end-to-end metrics; a --trace run reports
// the per-layer metrics and writes <out>/trace_<workload>.jsonl. Both
// print one "workload metric value unit" line per metric and write a
// JSON result. The exit status is non-zero when a packet's outcome
// differs from the oracle, the gateway rejected a frame, or a CTX
// table filled up.
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "driver.hpp"
#include "endbox_world.hpp"
#include "layers.hpp"
#include "measure.hpp"
#include "trace.hpp"
#include "traffic.hpp"

extern char** environ;

namespace {

using namespace endbox;
using namespace endbox::e2e;
using testing::World;

struct Options {
  std::string workload;  ///< empty: every workload, one child process each
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  bool smoke = false;  ///< 1 s phases, for quick checks
  std::string out = "bench_e2e_out";
  std::string json;  ///< result file; default <out>/result_<workload>_seed<N>[_trace].json
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "bench_e2e: %s\n"
               "usage: bench_e2e [--workload NAME] [--seed N] [--seconds S]\n"
               "                 [--trace [0|1]] [--smoke] [--out DIR] [--json FILE]\n",
               problem.c_str());
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = value();
        if (!find_workload(opt.workload)) usage("unknown workload " + opt.workload);
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
        if (!(opt.seconds >= 1 && opt.seconds <= 60)) usage("--seconds must be in [1, 60]");
      } else if (arg == "--trace") {
        opt.trace = true;
        if (i + 1 < argc && (std::string(argv[i + 1]) == "0" || std::string(argv[i + 1]) == "1"))
          opt.trace = std::string(argv[++i]) == "1";
      } else if (arg == "--smoke") {
        opt.smoke = true;
      } else if (arg == "--out") {
        opt.out = value();
      } else if (arg == "--json") {
        opt.json = value();
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  return opt;
}

/// Phase lengths of one run.
struct Phases {
  int setups;       ///< set-ups timed; setup_s is their median
  double warm_s;    ///< untimed, after one verification pass over every track
  double measure_s; ///< alternating closed- and open-loop slices
  double slice_s;   ///< one closed-loop slice plus one open-loop slice
  double lane2_s;   ///< traced run: the 2-lane diagnostic's closed loop
};

Phases phases_for(const Options& opt) {
  if (opt.smoke) return {2, 0.5, 2, 0.2, 0.5};
  if (opt.trace) return {1, 1, opt.seconds * 0.6, 0.2, 1};
  return {9, 2, opt.seconds, 0.2, 0};
}

std::unique_ptr<World> build_world(const Workload& w, std::uint64_t seed,
                                   std::size_t lanes) {
  testing::WorldOptions options;
  options.seed = seed;
  options.clients = kClients;
  options.use_case = w.use_case;
  options.client_options.mtu = w.mtu;
  options.client_options.shards = lanes;
  options.vpn_config.mtu = w.mtu;
  options.vpn_config.session_shards = lanes;
  return std::make_unique<World>(options);
}

std::uint64_t world_seed(std::uint64_t seed, int rep) {
  return splitmix64(seed * 64 + static_cast<std::uint64_t>(rep));
}

/// Enclave-side counters, summed over the clients (peaks: max).
struct EnclaveCounters {
  EndBoxEnclave::StreamStatsSnapshot stream;
  std::uint64_t bypassed = 0;
  std::uint64_t pool_starved = 0;
};

EnclaveCounters enclave_counters(Driver& driver) {
  EnclaveCounters out;
  for (std::size_t c = 0; c < kClients; ++c) {
    EndBoxEnclave& enclave = driver.enclave(c);
    auto s = enclave.stream_stats();
    out.stream.flows_classified += s.flows_classified;
    out.stream.flows_expired += s.flows_expired;
    out.stream.flows_rejected_full += s.flows_rejected_full;
    out.stream.segments_parked += s.segments_parked;
    out.stream.bytes_buffered_peak =
        std::max(out.stream.bytes_buffered_peak, s.bytes_buffered_peak);
    out.stream.stream_chunks += s.stream_chunks;
    out.stream.evasions_caught += s.evasions_caught;
    out.stream.flows_killed += s.flows_killed;
    out.stream.prefiltered_bytes += s.prefiltered_bytes;
    out.stream.confirmed_windows += s.confirmed_windows;
    out.stream.fallback_scans += s.fallback_scans;
    out.bypassed += enclave.click_bypassed_ingress();
    out.pool_starved += enclave.packet_pool().starved();
  }
  return out;
}

/// Ticks covering one full cycle of every client's tracks; what it
/// delivers and drops depends on the seed only.
TickCounts verification_pass(Driver& driver, const Traffic& traffic) {
  std::size_t longest = 0;
  for (std::size_t c = 0; c < kClients; ++c)
    longest = std::max({longest, traffic.up[c].packets.size(), traffic.down[c].packets.size()});
  std::array<std::uint8_t, kClients> all;
  all.fill(1);
  TickCounts counts;
  for (std::size_t t = 0; t < (longest + kBurst - 1) / kBurst; ++t) driver.tick(all, counts);
  return counts;
}

/// End-to-end times are reported at this core clock. The host steps
/// the clock by up to ~15 % over minutes; each window's times are scaled
/// by its measured clock / kReferenceGhz (a time in cycles, expressed in
/// ns at the reference clock), so a clock step does not read as a
/// change of the code.
constexpr double kReferenceGhz = 3.0;

double at_reference(double ns, double clock_ghz) { return ns * clock_ghz / kReferenceGhz; }

double goodput_gbps(const Window& w) {
  return ratio(8.0 * static_cast<double>(w.counts.payload_bytes),
               at_reference(static_cast<double>(w.wall_ns), w.clock_ghz));
}

double pkt_rate_kpps(const Window& w) {
  return ratio(1e6 * static_cast<double>(w.counts.delivered),
               at_reference(static_cast<double>(w.wall_ns), w.clock_ghz));
}

/// Median of `value` over `windows`.
template <typename Value>
double median_over(const std::vector<const Window*>& windows, Value value) {
  std::vector<double> out;
  for (const Window* w : windows) out.push_back(value(*w));
  return median(std::move(out));
}

// Load from other tenants of a shared host only ever slows the benchmark
// down, in epochs of seconds. End-to-end metrics are therefore taken over
// the quieter half of each loop's slices, judged by the slice itself.

/// The closed-loop windows with the highest packet rate.
std::vector<const Window*> quiet_closed(const std::vector<Slice>& slices) {
  std::vector<const Window*> out;
  for (const Slice& s : slices) out.push_back(&s.closed);
  std::sort(out.begin(), out.end(), [](const Window* a, const Window* b) {
    return pkt_rate_kpps(*a) > pkt_rate_kpps(*b);
  });
  out.resize((out.size() + 1) / 2);
  return out;
}

/// The RTTs, at the reference clock, of the open-loop slices with the
/// lowest median RTT.
std::vector<double> quiet_open_rtt(const std::vector<Slice>& slices) {
  std::vector<std::pair<double, std::vector<double>>> ranked;  // (median, RTTs)
  for (const Slice& s : slices) {
    if (s.open.rtt_us.empty()) continue;
    std::vector<double> rtt;
    for (double us : s.open.rtt_us) rtt.push_back(at_reference(us, s.open.clock_ghz));
    ranked.emplace_back(median(rtt), std::move(rtt));
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  ranked.resize((ranked.size() + 1) / 2);
  std::vector<double> rtt;
  for (const auto& [p50, slice] : ranked) rtt.insert(rtt.end(), slice.begin(), slice.end());
  return rtt;
}

double as_double(std::uint64_t v) { return static_cast<double>(v); }

/// Everything one workload run produced.
struct RunResult {
  std::string workload;
  Report metrics;  ///< the benchmark's metrics for this mode
  Report extra;    ///< printed context: counts, floors, probes
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< empty when the outputs are correct
  Host host;
};

void check(RunResult& r, bool ok, const std::string& problem) {
  if (!ok) r.problems.push_back(problem);
}

/// The measured part of a run: alternating closed- and open-loop
/// slices, and counter deltas across them.
struct Measured {
  std::vector<Slice> slices;
  TickCounts all;  ///< every slice, both loops
  EnclaveCounters before, after;
  std::uint64_t gw_starved = 0;  ///< gateway pool starvation during the slices
};

Measured measure(Driver& driver, CoreSelector& cores, const Workload& w, const Phases& ph,
                 Tracer* tracer) {
  Measured m;
  m.before = enclave_counters(driver);
  std::uint64_t gw_starved = driver.server().pool_starved(0);
  driver.server().reset_lane_stats();
  m.slices = run_slices(driver, cores, w.open_rate_pps, ph.measure_s, ph.slice_s, tracer);
  for (const Slice& s : m.slices) {
    m.all.add(s.closed.counts);
    m.all.add(s.open.counts);
  }
  m.after = enclave_counters(driver);
  m.gw_starved = driver.server().pool_starved(0) - gw_starved;
  return m;
}

void end_to_end_metrics(RunResult& r, const std::vector<double>& setups, const Measured& m) {
  std::vector<const Window*> quiet = quiet_closed(m.slices);
  std::vector<double> rtt = quiet_open_rtt(m.slices);
  Report& out = r.metrics;
  out.add("setup_s", median(setups), "s");
  out.add("goodput_gbps", median_over(quiet, goodput_gbps), "Gbit/s");
  out.add("pkt_rate_kpps", median_over(quiet, pkt_rate_kpps), "kpkt/s");
  out.add("rtt_p50_us", quantile(rtt, 0.50), "us");
  out.add("rtt_p90_us", quantile(rtt, 0.90), "us");
  out.add("client_cpu_ns_per_pkt", median_over(quiet, [](const Window& w) {
            return ratio(at_reference(static_cast<double>(w.counts.client_cpu_ns), w.clock_ghz),
                         as_double(w.counts.delivered));
          }), "ns");
  out.add("gateway_cpu_ns_per_pkt", median_over(quiet, [](const Window& w) {
            return ratio(at_reference(static_cast<double>(w.counts.gateway_cpu_ns), w.clock_ghz),
                         as_double(w.counts.gw_packets));
          }), "ns");
  out.add("peak_rss_mb", peak_rss_mib(), "MiB");
  r.extra.add("rtt_samples", as_double(rtt.size()), "count");
  r.extra.add("rtt_p99_us", quantile(rtt, 0.99), "us");
  r.extra.add("goodput_gbps_measured_clock", median_over(quiet, [](const Window& w) {
                return ratio(8.0 * as_double(w.counts.payload_bytes), static_cast<double>(w.wall_ns));
              }), "Gbit/s");
}

/// The 2-lane diagnostic (informational): the same closed loop with
/// enclave shards = 2 and gateway session shards = 2.
struct LaneDiagnostic {
  double gbps = 0;
  double cpu_per_wall = 0;
  TickCounts counts;
};

LaneDiagnostic two_lanes(const Workload& w, const Options& opt, const Phases& ph,
                         CoreSelector& cores) {
  LaneDiagnostic out;
  std::unique_ptr<World> world = build_world(w, world_seed(opt.seed, 99), 2);
  Traffic traffic = make_traffic(w, opt.seed, world->community_rules);
  Driver driver(*world, traffic);
  out.counts.add(closed_window(driver, cores, ph.warm_s / 2).counts);
  std::int64_t cpu0 = cpu_ns();
  Window win = closed_window(driver, cores, ph.lane2_s);
  out.cpu_per_wall = ratio(static_cast<double>(cpu_ns() - cpu0), static_cast<double>(win.wall_ns));
  out.gbps = goodput_gbps(win);
  out.counts.add(win.counts);
  return out;
}

/// Per-layer metrics of a traced run (README.md maps each one to the
/// end-to-end metric and workload it should move).
void layer_metrics(RunResult& r, CoreSelector& cores, const Workload& w, const Measured& m,
                   const Tracer& tracer, const std::vector<idps::SnortRule>& rules,
                   Traffic& traffic, std::uint64_t gw_rejected, std::uint64_t lane_ring_peak) {
  TickCounts traced;
  std::vector<double> trains, traced_gbps, untraced_gbps, late;
  for (const Slice& s : m.slices) {
    late.insert(late.end(), s.open.late_us.begin(), s.open.late_us.end());
    (s.closed.traced ? traced_gbps : untraced_gbps).push_back(goodput_gbps(s.closed));
    if (!s.closed.traced) continue;
    traced.add(s.closed.counts);
    trains.push_back(ratio(as_double(s.closed.counts.up_frames), as_double(s.closed.counts.ticks)));
  }
  Recording rec = record(traffic, 256);
  cores.select();
  double chain = click_chain_ns_per_pkt(w.use_case, rules, rec);
  cores.select();
  ScanCosts scan = scan_costs(rules, rec, traffic.stream());
  cores.select();
  TunnelCosts tunnel = tunnel_costs(rec, w.mtu);
  cores.select();
  double floor = crypto_floor_ns_per_kb();
  cores.select();
  double memcpy_ns = memcpy_ns_per_kb(rec);

  const auto& a = m.after.stream;
  const auto& b = m.before.stream;
  auto span_per = [&](SpanKind kind, std::uint64_t den) {
    return ratio(static_cast<double>(tracer.total_ns(kind)), as_double(den));
  };
  const TickCounts& all = m.all;
  double clicked = as_double(all.up_packets + all.ingress_packets);
  double egress = span_per(SpanKind::Egress, traced.up_packets);
  double confirmed = as_double(a.confirmed_windows - b.confirmed_windows);

  Report& out = r.metrics;
  out.add("endbox.egress.ns_per_pkt", egress, "ns");
  out.add("endbox.ingress.ns_per_pkt", span_per(SpanKind::Ingress, traced.down_packets), "ns");
  out.add("endbox.egress.unattributed_ns_per_pkt", egress - chain - tunnel.seal_ns_per_pkt, "ns");
  out.add("endbox.click_reject_ratio", ratio(as_double(all.rejected), clicked), "ratio");
  out.add("endbox.ingress_bypassed", as_double(m.after.bypassed - m.before.bypassed), "count");
  out.add("vpn.open.ns_per_frame", span_per(SpanKind::GwOpen, traced.up_frames), "ns");
  out.add("vpn.seal.ns_per_frame", span_per(SpanKind::GwSeal, traced.down_frames), "ns");
  out.add("vpn.client_seal.ns_per_pkt", tunnel.seal_ns_per_pkt, "ns");
  out.add("vpn.client_open.ns_per_pkt", tunnel.open_ns_per_pkt, "ns");
  out.add("vpn.frames_per_pkt.up", ratio(as_double(all.up_frames), as_double(all.up_sealed)), "ratio");
  out.add("vpn.frames_per_pkt.down", ratio(as_double(all.down_frames), as_double(all.down_packets)), "ratio");
  out.add("vpn.rejected_frames", as_double(gw_rejected), "count");
  out.add("vpn.lane_ring_peak", as_double(lane_ring_peak), "count");
  out.add("crypto.floor_ns_per_kb", floor, "ns");
  out.add("crypto.seal_vs_floor", ratio(tunnel.seal_ns_per_kb, floor), "ratio");
  out.add("click.chain.ns_per_pkt", chain, "ns");
  out.add("elements.ctx.flows_classified", as_double(a.flows_classified - b.flows_classified), "count");
  out.add("elements.ctx.flows_expired", as_double(a.flows_expired - b.flows_expired), "count");
  out.add("elements.ctx.flows_rejected_full", as_double(a.flows_rejected_full), "count");
  out.add("elements.ctx.segments_parked", as_double(a.segments_parked - b.segments_parked), "count");
  out.add("elements.ctx.bytes_buffered_peak", as_double(a.bytes_buffered_peak), "bytes");
  out.add("elements.stream.chunks_per_pkt", ratio(as_double(a.stream_chunks - b.stream_chunks), clicked), "ratio");
  out.add("elements.stream.evasions_caught", as_double(a.evasions_caught - b.evasions_caught), "count");
  out.add("elements.stream.flows_killed", as_double(a.flows_killed - b.flows_killed), "count");
  out.add("idps.tier1.ns_per_kb", scan.tier1_ns_per_kb, "ns");
  out.add("idps.tier1_vs_memcpy", ratio(scan.tier1_ns_per_kb, memcpy_ns), "ratio");
  out.add("idps.inspect.ns_per_kb", scan.inspect_ns_per_kb, "ns");
  out.add("idps.confirm_windows_per_kb",
          ratio(confirmed, as_double(a.prefiltered_bytes - b.prefiltered_bytes) / 1024.0), "ratio");
  out.add("idps.confirm_hit_ratio", ratio(as_double(all.rejected), confirmed), "ratio");
  out.add("idps.fallback_scans", as_double(a.fallback_scans - b.fallback_scans), "count");
  out.add("net.enclave_pool_starved", as_double(m.after.pool_starved - m.before.pool_starved), "count");
  out.add("net.gateway_pool_starved", as_double(m.gw_starved), "count");
  out.add("driver.late_p99_us", quantile(late, 0.99), "us");
  out.add("driver.train_frames_p50", median(trains), "count");
  out.add("driver.gen_ns_per_pkt", ratio(static_cast<double>(all.gen_ns), as_double(all.up_packets)), "ns");
  out.add("trace.overhead_pct",
          100.0 * (1.0 - ratio(median(traced_gbps), median(untraced_gbps))), "%");
  out.add("trace.coverage", ratio(chain + tunnel.seal_ns_per_pkt, egress), "ratio");
  out.add("host.memcpy_gbps", ratio(8.0 * 1024.0, memcpy_ns), "Gbit/s");

  r.extra.add("elements.stream.planted", as_double(all.plants), "count");
  check(r, a.evasions_caught - b.evasions_caught == all.plants &&
               a.flows_killed - b.flows_killed == all.plants,
        "stream evasions or kills differ from the planted count");
  check(r, tracer.dropped() == 0, "trace buffer overflowed");
}

RunResult run_workload(const Workload& w, const Options& opt) {
  RunResult r;
  r.workload = std::string(w.name);
  r.host = host_fingerprint();
  const Phases ph = phases_for(opt);
  std::printf("# %s host cpu=\"%s\" nproc=%u simd=%s\n", r.workload.c_str(),
              r.host.cpu_model.c_str(), r.host.nproc, r.host.simd.c_str());
  std::fflush(stdout);

  // Set-up: world construction, timed several times; the last world
  // carries the traffic.
  CoreSelector cores;
  std::vector<double> setups;
  std::unique_ptr<World> world;
  for (int rep = 0; rep < ph.setups; ++rep) {
    world.reset();
    cores.select();
    std::int64_t t0 = wall_ns();
    world = build_world(w, world_seed(opt.seed, rep), 1);
    setups.push_back(at_reference(static_cast<double>(wall_ns() - t0), cores.clock_ghz()) / 1e9);
  }
  Traffic traffic = make_traffic(w, opt.seed, world->community_rules);
  Driver driver(*world, traffic);

  TickCounts total = verification_pass(driver, traffic);
  r.extra.add("verify_pass.offered", as_double(total.offered), "count");
  r.extra.add("verify_pass.delivered", as_double(total.delivered), "count");
  r.extra.add("verify_pass.rejected", as_double(total.rejected), "count");
  total.add(closed_window(driver, cores, ph.warm_s).counts);

  std::unique_ptr<Tracer> tracer;
  if (opt.trace) tracer = std::make_unique<Tracer>(std::size_t{1} << 20);
  Measured m = measure(driver, cores, w, ph, tracer.get());
  total.add(m.all);

  if (!opt.trace) {
    end_to_end_metrics(r, setups, m);
  } else {
    layer_metrics(r, cores, w, m, *tracer, world->community_rules, traffic, total.gw_rejected,
                  driver.server().lane_ring_peak(0));
    std::string path = opt.out + "/trace_" + r.workload + ".jsonl";
    check(r, tracer->write_jsonl(path), "cannot write " + path);
  }
  check(r, total.failed == 0,
        "packets whose outcome differs from the oracle: " + std::to_string(total.failed));
  check(r, total.gw_rejected == 0, "frames the gateway rejected: " + std::to_string(total.gw_rejected));
  check(r, m.after.stream.flows_rejected_full == 0, "a CTX flow table filled up");
  if (!driver.first_error().empty()) r.problems.push_back(driver.first_error());
  r.attempted = total.offered;
  r.failed = total.failed;
  r.extra.add("fail_ratio", ratio(as_double(total.failed), as_double(total.offered)), "ratio");
  tracer.reset();

  if (opt.trace) {
    std::vector<double> one_lane;
    for (const Slice& s : m.slices)
      if (!s.closed.traced) one_lane.push_back(goodput_gbps(s.closed));
    world.reset();
    cores.release();  // the 2-lane world's worker threads must not inherit a pin
    LaneDiagnostic lanes = two_lanes(w, opt, ph, cores);
    r.metrics.add("click.lane2.speedup", ratio(lanes.gbps, median(one_lane)), "ratio");
    r.metrics.add("click.lane2.cpu_per_wall", lanes.cpu_per_wall, "ratio");
    check(r, lanes.counts.failed == 0,
          "2-lane diagnostic: outcomes differ from the oracle: " + std::to_string(lanes.counts.failed));
  }

  // Clock, floors and the parallelism probe, printed with every run.
  cores.release();
  Report& host = opt.trace ? r.metrics : r.extra;
  std::vector<double> clocks;
  for (const Slice& s : m.slices) {
    clocks.push_back(s.closed.clock_ghz);
    clocks.push_back(s.open.clock_ghz);
  }
  host.add("host.clock_ghz", median(clocks), "GHz");
  host.add("host.parallel_speedup_50ms", parallel_speedup(50), "ratio");
  host.add("host.parallel_speedup_250ms", parallel_speedup(250), "ratio");
  if (!opt.trace) {
    cores.select();
    r.extra.add("crypto.floor_ns_per_kb", crypto_floor_ns_per_kb(), "ns");
  }
  return r;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_metrics(const Report& report) {
  std::string out = "{";
  for (const Metric& m : report.metrics()) {
    if (out.size() > 1) out += ",";
    out += json_string(m.name) + ":{\"value\":" + json_number(m.value) +
           ",\"unit\":" + json_string(m.unit) + "}";
  }
  return out + "}";
}

std::string to_json(const RunResult& r, const Options& opt) {
  std::ostringstream os;
  os << "{\"workload\":" << json_string(r.workload) << ",\"seed\":" << opt.seed
     << ",\"seconds\":" << json_number(opt.seconds)
     << ",\"trace\":" << (opt.trace ? "true" : "false")
     << ",\"smoke\":" << (opt.smoke ? "true" : "false")
     << ",\"correct\":" << (r.problems.empty() ? "true" : "false")
     << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed << ",\"problems\":[";
  for (std::size_t i = 0; i < r.problems.size(); ++i)
    os << (i ? "," : "") << json_string(r.problems[i]);
  os << "],\"host\":{\"cpu_model\":" << json_string(r.host.cpu_model)
     << ",\"nproc\":" << r.host.nproc << ",\"simd\":" << json_string(r.host.simd) << "}"
     << ",\"metrics\":" << json_metrics(r.metrics) << ",\"extra\":" << json_metrics(r.extra)
     << "}";
  return os.str();
}

void print_report(const std::string& workload, const Report& report) {
  for (const Metric& m : report.metrics())
    std::printf("%s %s %.6g %s\n", workload.c_str(), m.name.c_str(), m.value, m.unit.c_str());
}

std::string result_path(const Options& opt, const std::string& workload) {
  return opt.out + "/result_" + workload + "_seed" + std::to_string(opt.seed) +
         (opt.trace ? "_trace" : "") + ".json";
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text << "\n";
  return static_cast<bool>(out);
}

int run_one(const Options& opt) {
  const Workload& w = *find_workload(opt.workload);
  RunResult r = run_workload(w, opt);
  print_report(r.workload, r.metrics);
  print_report(r.workload, r.extra);
  for (const std::string& problem : r.problems)
    std::printf("%s FAIL %s\n", r.workload.c_str(), problem.c_str());
  std::string path = !opt.json.empty() ? opt.json : result_path(opt, r.workload);
  bool written = write_file(path, to_json(r, opt));
  std::printf("%s result %s\n", r.workload.c_str(), written ? path.c_str() : "(not written)");
  std::fflush(stdout);
  return r.problems.empty() && written ? 0 : 1;
}

/// Runs every workload in a fresh child process of this binary and
/// collects their results into <out>/bench_e2e_seed<N>.json.
int run_all(const Options& opt, char* self) {
  std::string results = "[";
  int status_all = 0;
  for (const Workload& w : kWorkloads) {
    std::string json = result_path(opt, std::string(w.name));
    std::vector<std::string> args = {self, "--workload", std::string(w.name),
                                     "--seed", std::to_string(opt.seed),
                                     "--seconds", json_number(opt.seconds),
                                     "--trace", opt.trace ? "1" : "0",
                                     "--out", opt.out, "--json", json};
    if (opt.smoke) args.push_back("--smoke");
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_t pid = 0;
    int status = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(), environ) != 0 ||
        waitpid(pid, &status, 0) != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
      status_all = 1;
    std::ifstream in(json);
    std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    while (!text.empty() && (text.back() == '\n' || text.back() == ' ')) text.pop_back();
    if (text.empty()) {
      status_all = 1;
      continue;
    }
    results += (results.size() > 1 ? "," : "") + text;
  }
  std::string path = opt.out + "/bench_e2e_seed" + std::to_string(opt.seed) + ".json";
  write_file(path, "{\"seed\":" + std::to_string(opt.seed) + ",\"results\":" + results + "]}");
  std::printf("results %s\n", path.c_str());
  return status_all;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = parse_options(argc, argv);
  mkdir(opt.out.c_str(), 0755);
  try {
    return opt.workload.empty() ? run_all(opt, argv[0]) : run_one(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
