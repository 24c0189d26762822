// Configuration roll-out across a fleet (paper section III-E / Fig 5):
// the administrator publishes an update with a grace period; clients
// learn about it via in-band pings, fetch + hot-swap in the background,
// and the server blocks laggards once grace expires.
//
// Build & run:  ./build/examples/config_rollout
#include <cstdio>

#include "endbox/testbed.hpp"

using namespace endbox;

int main() {
  Testbed bed(Setup::EndBoxSgx, UseCase::Nop);
  constexpr int kFleet = 5;
  for (int i = 0; i < kFleet; ++i) bed.add_client();
  std::printf("[setup]  fleet of %d clients connected on config v2\n", kFleet);

  // Admin publishes v3 with a 10 second grace period.
  auto v3 = bed.server().publish_config(3, use_case_config(UseCase::Fw), true, 10,
                                        bed.clock().now());
  if (!v3.ok()) return 1;
  std::printf("[admin]  v3 published; grace period 10 s\n");

  auto offer_traffic = [&](int i) {
    auto sent = bed.endbox_client(static_cast<std::size_t>(i))
                    .send_packet(net::Packet::udp(net::Ipv4(10, 8, 0, 2),
                                                  net::Ipv4(10, 0, 0, 1), 1, 80,
                                                  Bytes(100, 'x')),
                                 bed.clock().now());
    if (!sent.ok() || !sent->accepted) return std::string("client rejected");
    auto handled = bed.server().handle_wire(sent->wire[0], bed.clock().now());
    return handled.ok() ? std::string("delivered") : handled.error();
  };

  // Three diligent clients update immediately (ping -> fetch -> swap);
  // two laggards ignore the announcement.
  for (int i = 0; i < 3; ++i) {
    Bytes ping = bed.server().create_ping(static_cast<std::uint32_t>(i + 1));
    auto outcome = bed.endbox_client(static_cast<std::size_t>(i))
                       .handle_server_ping(ping, &bed.server().file_server(),
                                           bed.clock().now());
    Bytes confirm;
    bed.endbox_client(static_cast<std::size_t>(i))
        .create_ping_wire(confirm, bed.clock().now());
    bed.server().handle_wire(confirm, bed.clock().now());
    std::printf("[c%d]     updated to v3 (%.2f ms incl. fetch+decrypt+swap)\n", i + 1,
                sim::to_millis(outcome->done - bed.clock().now()));
  }

  // During grace everyone still communicates.
  bed.clock().advance_to(5 * sim::kSecond);
  std::printf("[t=5s]   within grace: c1 %s, c5 %s\n", offer_traffic(0).c_str(),
              offer_traffic(4).c_str());

  // After grace the laggards are blocked.
  bed.clock().advance_to(15 * sim::kSecond);
  std::printf("[t=15s]  after grace: c1 %s; c5 %s\n", offer_traffic(0).c_str(),
              offer_traffic(4).c_str());

  // A laggard finally updates and recovers.
  Bytes ping = bed.server().create_ping(5);
  bed.endbox_client(4).handle_server_ping(ping, &bed.server().file_server(),
                                          bed.clock().now());
  Bytes confirm;
  bed.endbox_client(4).create_ping_wire(confirm, bed.clock().now());
  bed.server().handle_wire(confirm, bed.clock().now());
  std::printf("[t=15s]  c5 updates late -> %s\n", offer_traffic(4).c_str());
  return 0;
}
