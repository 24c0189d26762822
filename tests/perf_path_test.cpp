// Fast-path performance-contract tests: the zero-allocation guarantees
// of the WireBuffer seal/open path and of the pooled, batched enclave
// ingress -> Click -> egress loop, WireBuffer/PacketPool semantics
// (rejected ingress frames keep the pool whole), the
// seal_packet_wire_at frame format, and the FlowKey hash's collision
// behaviour. The allocation assertions use replaced global operator
// new/delete, so this suite owns its own binary.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <new>
#include <string>
#include <unordered_set>

#include "ca/authority.hpp"
#include "common/wire_buffer.hpp"
#include "endbox_world.hpp"
#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "sgx/enclave.hpp"
#include "sgx/platform.hpp"
#include "sgx/quote.hpp"
#include "vpn/client.hpp"
#include "vpn/server.hpp"
#include "vpn/session_crypto.hpp"

// Every operator new in this binary routes through std::malloc below,
// so new/delete pairing is globally consistent; GCC's heuristic cannot
// see that once inlining crosses the replacement boundary and reports
// false mismatched-new-delete warnings.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
// Global allocation counter; bumped by every operator new in the
// binary. Tests snapshot it around a steady-state loop.
std::uint64_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace endbox {
namespace {

vpn::SessionKeys test_keys() {
  Rng rng(77);
  return vpn::derive_vpn_keys(0xfeedface, rng.bytes(16), rng.bytes(16));
}

// ---- Zero-allocation guarantees -------------------------------------------

TEST(ZeroAlloc, SteadyStateSealOf1500BytePacketDoesNotAllocate) {
  auto keys = test_keys();
  Rng rng(5);
  Bytes payload = rng.bytes(1500);
  vpn::FragmentHeader frag{1, 1, 0, 1};
  WireBuffer out;

  // Warm-up sizes the buffer; afterwards reuse must be allocation-free.
  for (int i = 0; i < 4; ++i) {
    vpn::seal_data_body(keys, frag, payload, rng, out);
    ++frag.packet_id;
  }
  std::uint64_t before = g_allocations;
  for (int i = 0; i < 200; ++i) {
    vpn::seal_data_body(keys, frag, payload, rng, out);
    ++frag.packet_id;
  }
  EXPECT_EQ(g_allocations - before, 0u);
}

TEST(ZeroAlloc, SteadyStateOpenOf1500BytePacketDoesNotAllocate) {
  auto keys = test_keys();
  Rng rng(6);
  Bytes payload = rng.bytes(1500);
  vpn::FragmentHeader frag{9, 2, 0, 1};
  WireBuffer sealed;
  vpn::seal_data_body(keys, frag, payload, rng, sealed);
  Bytes sealed_template(sealed.view().begin(), sealed.view().end());

  // The body buffer cycles: assign from the template, move into open,
  // recover the (shrunk) payload buffer, repeat.
  Bytes body;
  int ok = 0;
  for (int i = 0; i < 4; ++i) {
    body.assign(sealed_template.begin(), sealed_template.end());
    auto opened = vpn::open_data_body(keys, std::move(body));
    ok += opened.ok();
    body = std::move(opened->payload);
  }
  std::uint64_t before = g_allocations;
  for (int i = 0; i < 200; ++i) {
    body.assign(sealed_template.begin(), sealed_template.end());
    auto opened = vpn::open_data_body(keys, std::move(body));
    ok += opened.ok();
    body = std::move(opened->payload);
  }
  EXPECT_EQ(g_allocations - before, 0u);
  EXPECT_EQ(ok, 204);
  EXPECT_EQ(body, payload);
}

TEST(ZeroAlloc, SteadyStateIntegrityOnlySealDoesNotAllocate) {
  auto keys = test_keys();
  Rng rng(7);
  Bytes payload = rng.bytes(1500);
  vpn::FragmentHeader frag{1, 1, 0, 1};
  WireBuffer out;
  for (int i = 0; i < 4; ++i) {
    vpn::seal_integrity_body(keys, frag, payload, out);
    ++frag.packet_id;
  }
  std::uint64_t before = g_allocations;
  for (int i = 0; i < 200; ++i) {
    vpn::seal_integrity_body(keys, frag, payload, out);
    ++frag.packet_id;
  }
  EXPECT_EQ(g_allocations - before, 0u);
}

// ---- WireBuffer semantics ---------------------------------------------------

TEST(WireBufferTest, AppendPrependViewTake) {
  WireBuffer buf(8);
  buf.append(to_bytes("payload"));
  buf.prepend(to_bytes("hdr:"));
  EXPECT_EQ(buf.size(), 11u);
  EXPECT_EQ(buf.take(), to_bytes("hdr:payload"));
}

TEST(WireBufferTest, PrependBeyondHeadroomThrows) {
  WireBuffer buf(4);
  EXPECT_THROW(buf.prepend(5), std::logic_error);
}

TEST(WireBufferTest, ResetRetainsCapacityAcrossReuse) {
  WireBuffer buf(16);
  buf.reset(16);
  buf.append(512);
  const std::uint8_t* stable = buf.data();
  for (int i = 0; i < 10; ++i) {
    buf.reset(16);
    buf.append(512);
    EXPECT_EQ(buf.data(), stable) << "reuse reallocated on iteration " << i;
  }
}

TEST(WireBufferTest, AppendReturnsWritableRegionAtTail) {
  WireBuffer buf(2);
  std::uint8_t* a = buf.append(3);
  a[0] = 'a'; a[1] = 'b'; a[2] = 'c';
  buf.append_u8('d');
  EXPECT_EQ(buf.view().size(), 4u);
  EXPECT_EQ(buf.view()[3], 'd');
}

// ---- FlowKey hash collision spread ------------------------------------------

TEST(FlowKeyHash, SpreadsAdversarialPortGrid) {
  // 64x64 grid of (src_port, dst_port): the old h*31 combine compressed
  // this into ~2k consecutive values, guaranteeing mass collisions in
  // any power-of-two table. The splitmix64 combine should fill buckets
  // like a random function (~63% distinct at load factor 1).
  std::hash<net::FlowKey> h;
  std::unordered_set<std::size_t> buckets;
  net::FlowKey key;
  key.src = net::Ipv4(10, 8, 0, 2);
  key.dst = net::Ipv4(10, 0, 0, 1);
  key.proto = net::IpProto::Udp;
  for (std::uint16_t s = 0; s < 64; ++s) {
    for (std::uint16_t d = 0; d < 64; ++d) {
      key.src_port = static_cast<std::uint16_t>(40000 + s);
      key.dst_port = static_cast<std::uint16_t>(5000 + d);
      buckets.insert(h(key) & 4095);
    }
  }
  EXPECT_GT(buckets.size(), 2300u);  // random expectation ~2589 of 4096
}

TEST(FlowKeyHash, EqualKeysHashEqualDistinctKeysMostlyDiffer) {
  std::hash<net::FlowKey> h;
  net::Packet p = net::Packet::udp(net::Ipv4(1, 2, 3, 4), net::Ipv4(5, 6, 7, 8),
                                   1234, 80, {});
  EXPECT_EQ(h(net::FlowKey::of(p)), h(net::FlowKey::of(p)));
  // Flipping one bit of one field must change the hash (with
  // overwhelming probability for a 64-bit mix; fixed inputs here, so
  // deterministic).
  net::FlowKey a = net::FlowKey::of(p);
  net::FlowKey b = a;
  b.dst_port ^= 1;
  EXPECT_NE(h(a), h(b));
}

// ---- seal_packet_wire_at frame format ---------------------------------------

struct WireFixture : ::testing::Test {
  Rng rng{31};
  sim::Clock clock;
  sgx::AttestationService ias{rng};
  ca::CertificateAuthority authority{rng, ias};
  sgx::SgxPlatform platform{"client-1", rng, clock};
  sgx::Enclave enclave{platform, "endbox-v1", sgx::SgxMode::Hardware};
  crypto::RsaKeyPair enclave_key = crypto::rsa_generate(rng);
  bool registrations_done = [this] {
    ias.register_platform("client-1", platform.attestation_key().pub);
    authority.allow_measurement(enclave.measurement());
    return true;
  }();
  vpn::VpnServer server{rng, authority.public_key(), vpn::VpnServerConfig{}};
  ca::Certificate certificate;

  WireFixture() {
    sgx::QuotingEnclave qe(platform);
    auto quote = qe.quote(enclave.create_report(
        sgx::bind_report_data(enclave_key.pub.serialize())));
    auto response = authority.provision(quote->serialize(), enclave_key.pub);
    certificate = response->certificate;
  }

  vpn::VpnClientSession connect(vpn::VpnClientConfig config = {}) {
    vpn::VpnClientSession client(rng, certificate, enclave_key,
                                 server.public_key(), config);
    auto init = client.create_handshake_init();
    auto event = server.handle(init.serialize(), clock.now());
    EXPECT_TRUE(event.ok()) << event.error();
    auto& done = std::get<vpn::VpnServer::HandshakeDone>(*event);
    auto reply = vpn::WireMessage::parse(done.reply_wire);
    EXPECT_TRUE(reply.ok());
    auto status = client.process_handshake_reply(*reply);
    EXPECT_TRUE(status.ok()) << status.error();
    return client;
  }
};

TEST_F(WireFixture, ClientSealPacketWireFramesReachTheServer) {
  auto client = connect();
  Rng payload_rng(9);
  Bytes ip_packet = payload_rng.bytes(1400);
  std::vector<Bytes> frames;
  client.seal_packet_wire_at(ip_packet, frames, 0);
  ASSERT_EQ(frames.size(), 1u);

  auto event = server.handle(frames[0], clock.now());
  ASSERT_TRUE(event.ok()) << event.error();
  auto* in = std::get_if<vpn::VpnServer::PacketIn>(&*event);
  ASSERT_NE(in, nullptr);
  EXPECT_EQ(in->ip_packet, ip_packet);
  EXPECT_TRUE(in->was_encrypted);
}

TEST_F(WireFixture, HandleOfAWarmDataFrameAllocatesOnlyThePacketInCopy) {
  // handle() checks the 5-byte header in place and opens the wire
  // through the lane body, whose pooled body buffer is warm; the one
  // allocation left per frame is the PacketIn copy of the opened packet
  // (the lane slot keeps its buffer for the next frame).
  auto client = connect();
  Rng payload_rng(13);
  Bytes ip_packet = payload_rng.bytes(1024);
  std::vector<Bytes> frames;
  for (int i = 0; i < 60; ++i) {
    client.seal_packet_wire_at(ip_packet, frames, 0);
    ASSERT_EQ(frames.size(), 1u);
    std::uint64_t before = g_allocations;
    auto event = server.handle(frames[0], clock.now());
    std::uint64_t allocations = g_allocations - before;
    ASSERT_TRUE(event.ok()) << event.error();
    auto* in = std::get_if<vpn::VpnServer::PacketIn>(&*event);
    ASSERT_NE(in, nullptr);
    EXPECT_EQ(in->ip_packet, ip_packet);
    if (i >= 10) {  // past the warm-up
      EXPECT_EQ(allocations, 1u) << "frame " << i;
    }
  }
}

TEST_F(WireFixture, SealPacketWireFragmentsAtTheMtuAndReassembles) {
  vpn::VpnClientConfig config;
  config.mtu = 1000;
  auto client = connect(config);
  Rng payload_rng(10);
  Bytes ip_packet = payload_rng.bytes(2500);
  std::vector<Bytes> frames;
  client.seal_packet_wire_at(ip_packet, frames, 0);
  ASSERT_EQ(frames.size(), 3u);

  Bytes delivered;
  for (const auto& frame : frames) {
    auto event = server.handle(frame, clock.now());
    ASSERT_TRUE(event.ok()) << event.error();
    if (auto* in = std::get_if<vpn::VpnServer::PacketIn>(&*event))
      delivered = in->ip_packet;
  }
  EXPECT_EQ(delivered, ip_packet);
}

TEST_F(WireFixture, DegenerateZeroMtuStillDeliversEveryByte) {
  vpn::VpnClientConfig config;
  config.mtu = 0;  // clamped to 1 byte per fragment, as fragment_payload does
  auto client = connect(config);
  Bytes ip_packet = to_bytes("abc");
  std::vector<Bytes> frames;
  client.seal_packet_wire_at(ip_packet, frames, 0);
  ASSERT_EQ(frames.size(), 3u);
  Bytes delivered;
  for (const auto& frame : frames) {
    auto event = server.handle(frame, clock.now());
    ASSERT_TRUE(event.ok()) << event.error();
    if (auto* in = std::get_if<vpn::VpnServer::PacketIn>(&*event))
      delivered = in->ip_packet;
  }
  EXPECT_EQ(delivered, ip_packet);
}

TEST_F(WireFixture, SealPacketWireFrameParsesAsAWireMessage) {
  auto client = connect();
  Bytes ip_packet = to_bytes("ip-bytes");
  std::vector<Bytes> frames;
  client.seal_packet_wire_at(ip_packet, frames, 0);
  ASSERT_EQ(frames.size(), 1u);
  auto msg = vpn::WireMessage::parse(frames[0]);
  ASSERT_TRUE(msg.ok()) << msg.error();
  EXPECT_EQ(msg->type, vpn::MsgType::Data);
  EXPECT_EQ(msg->session_id, client.session_id());
}

TEST_F(WireFixture, SealPacketWireReusesFrameCapacityAcrossCalls) {
  auto client = connect();
  Rng payload_rng(11);
  Bytes ip_packet = payload_rng.bytes(1500);
  std::vector<Bytes> frames;
  for (int i = 0; i < 4; ++i) client.seal_packet_wire_at(ip_packet, frames, 0);
  std::uint64_t before = g_allocations;
  for (int i = 0; i < 100; ++i) client.seal_packet_wire_at(ip_packet, frames, 0);
  EXPECT_EQ(g_allocations - before, 0u);
}

TEST_F(WireFixture, ServerSealPacketWireOpensAtTheClient) {
  auto client = connect();
  Rng payload_rng(12);
  Bytes ip_packet = payload_rng.bytes(800);
  std::vector<Bytes> frames;
  server.seal_packet_wire_at(client.session_id(), ip_packet, frames, 0);
  ASSERT_EQ(frames.size(), 1u);
  auto opened = client.open_data_frame(frames[0], {});
  ASSERT_TRUE(opened.ok()) << opened.error();
  ASSERT_TRUE(opened->has_value());
  EXPECT_EQ(**opened, ip_packet);
}

TEST_F(WireFixture, IntegrityOnlySealPacketWireUsesTheIntegrityType) {
  vpn::VpnClientConfig config;
  config.encrypt_data = false;
  auto client = connect(config);
  Bytes ip_packet = to_bytes("plaintext-ip");
  std::vector<Bytes> frames;
  client.seal_packet_wire_at(ip_packet, frames, 0);
  ASSERT_EQ(frames.size(), 1u);
  auto msg = vpn::WireMessage::parse(frames[0]);
  ASSERT_TRUE(msg.ok()) << msg.error();
  EXPECT_EQ(msg->type, vpn::MsgType::DataIntegrityOnly);
}

// ---- PacketPool -------------------------------------------------------------

TEST(PacketPoolTest, RecyclesPayloadCapacity) {
  net::PacketPool pool(8);
  net::Packet p = pool.acquire();
  EXPECT_EQ(pool.misses(), 1u);  // cold pool
  p.payload.assign(1400, 'x');
  const std::uint8_t* buffer = p.payload.data();
  pool.release(std::move(p));
  ASSERT_EQ(pool.pooled(), 1u);

  net::Packet q = pool.acquire();
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_TRUE(q.payload.empty());
  EXPECT_GE(q.payload.capacity(), 1400u);
  q.payload.assign(1400, 'y');
  EXPECT_EQ(q.payload.data(), buffer) << "capacity was not recycled";
}

TEST(PacketPoolTest, BoundsTheFreeList) {
  net::PacketPool pool(2);
  for (int i = 0; i < 5; ++i) {
    Bytes b(64, 'x');
    pool.release_bytes(std::move(b));
  }
  EXPECT_EQ(pool.pooled(), 2u);
  // Empty buffers are not worth pooling.
  pool.acquire_bytes();
  pool.acquire_bytes();
  pool.release_bytes(Bytes{});
  EXPECT_EQ(pool.pooled(), 0u);
}

TEST(PacketPoolTest, ParseIntoReusesPooledBuffer) {
  net::PacketPool pool;
  Rng rng(21);
  net::Packet original = net::Packet::udp(net::Ipv4(1, 2, 3, 4), net::Ipv4(5, 6, 7, 8),
                                          1234, 80, rng.bytes(900));
  original.ip_id = 7;
  Bytes wire = original.serialize();

  net::Packet scratch = pool.acquire();
  scratch.payload.reserve(1000);
  scratch.dropped = true;  // stale metadata must be reset
  scratch.flow_hint = 99;
  scratch.decrypted_payload = to_bytes("stale");
  const std::uint8_t* buffer = scratch.payload.data();

  ASSERT_TRUE(net::Packet::parse_into(wire, scratch).ok());
  EXPECT_EQ(scratch.payload, original.payload);
  EXPECT_EQ(scratch.payload.data(), buffer);
  EXPECT_EQ(scratch.ip_id, 7);
  EXPECT_FALSE(scratch.dropped);
  EXPECT_EQ(scratch.flow_hint, 0u);
  EXPECT_TRUE(scratch.decrypted_payload.empty());
  EXPECT_EQ(scratch.serialize(), wire);
}

// ---- Zero-allocation enclave loop (ingress -> Click -> egress) -------------

// The representative middlebox chain of the acceptance criteria:
// CheckIPHeader -> IPFilter -> IDSMatcher -> ToDevice, with reject
// ports wired so every packet reaches a verdict.
constexpr const char* kChainConfig =
    "from_device :: FromDevice;"
    "check :: CheckIPHeader;"
    "fw :: IPFilter(allow src 10.8.0.0/16, drop all);"
    "ids :: IDSMatcher(RULESET community);"
    "to_device :: ToDevice;"
    "from_device -> check -> fw -> ids -> to_device;"
    "check[1] -> [1]to_device; fw[1] -> [1]to_device; ids[1] -> [1]to_device;";

struct EnclaveLoopFixture : ::testing::Test {
  testing::World world;
  EndBoxClient* client = nullptr;

  EnclaveLoopFixture() {
    auto bundle = world.server.publish_config(2, kChainConfig, true, 0, 0);
    if (!bundle.ok()) throw std::runtime_error(bundle.error());
    client = &world.add_client(*bundle);
  }

  /// Fills `batch` with `n` benign packets drawn from the enclave pool.
  void fill_batch(click::PacketBatch& batch, std::size_t n, std::size_t payload) {
    net::PacketPool& pool = client->enclave().packet_pool();
    for (std::size_t k = 0; k < n; ++k) {
      net::Packet packet = pool.acquire();
      packet.src = net::Ipv4(10, 8, 0, 2);
      packet.dst = net::Ipv4(10, 0, 0, 1);
      packet.proto = net::IpProto::Udp;
      packet.src_port = 40000;
      packet.dst_port = 5001;
      packet.ttl = 64;
      packet.payload.assign(payload, 'x');
      batch.push_back(std::move(packet));
    }
  }
};

TEST_F(EnclaveLoopFixture, SteadyStateEgressBatchLoopDoesNotAllocate) {
  auto& enclave = client->enclave();
  click::PacketBatch batch;
  EgressBatch out;

  constexpr std::size_t kBurst = 32;
  for (int warm = 0; warm < 6; ++warm) {
    fill_batch(batch, kBurst, 1400);
    ASSERT_TRUE(enclave.ecall_process_egress_batch(std::move(batch), out).ok());
    batch.clear();
    ASSERT_EQ(out.accepted, kBurst);
  }

  std::uint64_t before = g_allocations;
  for (int iter = 0; iter < 50; ++iter) {
    fill_batch(batch, kBurst, 1400);
    ASSERT_TRUE(enclave.ecall_process_egress_batch(std::move(batch), out).ok());
    batch.clear();
    ASSERT_EQ(out.accepted, kBurst);
    ASSERT_EQ(out.frame_count, kBurst);  // 1428B packets fit one frame
  }
  EXPECT_EQ(g_allocations - before, 0u)
      << "the pooled egress burst (acquire -> Click chain -> seal) allocated";
}

TEST_F(EnclaveLoopFixture, SteadyStateIngressBatchLoopDoesNotAllocate) {
  auto& enclave = client->enclave();
  std::uint32_t session = enclave.session()->session_id();
  Rng payload_rng(77);
  Bytes ip_packet =
      net::Packet::udp(net::Ipv4(10, 8, 0, 9), net::Ipv4(10, 0, 0, 1), 4000, 5001,
                       payload_rng.bytes(1400))
          .serialize();

  constexpr std::size_t kBurst = 32;
  std::vector<Bytes> wires;
  IngressBatch in;
  auto run_burst = [&] {
    // Fresh frames each round (replay protection forbids resending),
    // written through the server session's scratch into reused slots.
    std::size_t n = 0;
    for (std::size_t k = 0; k < kBurst; ++k)
      n = world.server.vpn().seal_packet_wire_at(session, ip_packet, wires, n);
    ASSERT_EQ(n, kBurst);
    ASSERT_TRUE(enclave
                    .ecall_process_ingress_batch(
                        std::span<const Bytes>(wires.data(), n), in)
                    .ok());
    ASSERT_EQ(in.accepted, kBurst);
    // Hand the delivered packets back to the pool, closing the loop.
    for (net::Packet& packet : in.packets)
      enclave.packet_pool().release(std::move(packet));
    in.packets.clear();
  };

  for (int warm = 0; warm < 6; ++warm) run_burst();
  std::uint64_t before = g_allocations;
  for (int iter = 0; iter < 50; ++iter) run_burst();
  EXPECT_EQ(g_allocations - before, 0u)
      << "the pooled ingress burst (open -> parse -> Click chain) allocated";
}

struct FragmentedLoopFixture : ::testing::Test {
  // MTU 512 on both tunnel directions: a 1400-byte payload fragments
  // into 3 wire frames each way, exercising the Reassembler (pooled
  // part buffers, node cache, intrusive FIFO) on every packet.
  testing::World world = [] {
    testing::WorldOptions opts;
    opts.vpn_config.mtu = 512;
    opts.client_options.mtu = 512;
    return testing::World(opts);
  }();
  EndBoxClient* client = nullptr;

  FragmentedLoopFixture() {
    auto bundle = world.server.publish_config(2, kChainConfig, true, 0, 0);
    if (!bundle.ok()) throw std::runtime_error(bundle.error());
    EndBoxClientOptions options;
    options.mtu = 512;
    client = &world.add_client(*bundle, options);
  }
};

TEST_F(FragmentedLoopFixture, SteadyStateFragmentedEgressBurstDoesNotAllocate) {
  auto& enclave = client->enclave();
  click::PacketBatch batch;
  EgressBatch out;
  constexpr std::size_t kBurst = 10;

  auto fill = [&] {
    net::PacketPool& pool = enclave.packet_pool();
    for (std::size_t k = 0; k < kBurst; ++k) {
      net::Packet packet = pool.acquire();
      packet.src = net::Ipv4(10, 8, 0, 2);
      packet.dst = net::Ipv4(10, 0, 0, 1);
      packet.proto = net::IpProto::Udp;
      packet.src_port = 40000;
      packet.dst_port = 5001;
      packet.payload.assign(1400, 'x');
      batch.push_back(std::move(packet));
    }
  };
  for (int warm = 0; warm < 6; ++warm) {
    fill();
    ASSERT_TRUE(enclave.ecall_process_egress_batch(std::move(batch), out).ok());
    batch.clear();
    ASSERT_EQ(out.accepted, kBurst);
    ASSERT_EQ(out.frame_count, kBurst * 3);  // 1428B packets, MTU 512
  }
  std::uint64_t before = g_allocations;
  for (int iter = 0; iter < 50; ++iter) {
    fill();
    ASSERT_TRUE(enclave.ecall_process_egress_batch(std::move(batch), out).ok());
    batch.clear();
    ASSERT_EQ(out.frame_count, kBurst * 3);
  }
  EXPECT_EQ(g_allocations - before, 0u)
      << "the fragmented egress burst (Click -> 3-frame seal) allocated";
}

TEST_F(FragmentedLoopFixture, SteadyStateFragmentedIngressRoundTripDoesNotAllocate) {
  auto& enclave = client->enclave();
  std::uint32_t session = enclave.session()->session_id();
  Rng payload_rng(78);
  Bytes ip_packet =
      net::Packet::udp(net::Ipv4(10, 8, 0, 9), net::Ipv4(10, 0, 0, 1), 4000, 5001,
                       payload_rng.bytes(1400))
          .serialize();

  constexpr std::size_t kPackets = 10;
  std::vector<Bytes> wires;
  IngressBatch in;
  auto run_burst = [&] {
    std::size_t n = 0;
    for (std::size_t k = 0; k < kPackets; ++k)
      n = world.server.vpn().seal_packet_wire_at(session, ip_packet, wires, n);
    ASSERT_EQ(n, kPackets * 3);  // server MTU 512 -> 3 frames per packet
    ASSERT_TRUE(enclave
                    .ecall_process_ingress_batch(
                        std::span<const Bytes>(wires.data(), n), in)
                    .ok());
    ASSERT_EQ(in.complete, kPackets);
    ASSERT_EQ(in.accepted, kPackets);
    for (net::Packet& packet : in.packets)
      enclave.packet_pool().release(std::move(packet));
    in.packets.clear();
  };

  for (int warm = 0; warm < 6; ++warm) run_burst();
  std::uint64_t before = g_allocations;
  for (int iter = 0; iter < 50; ++iter) run_burst();
  EXPECT_EQ(g_allocations - before, 0u)
      << "the fragmented ingress burst (open x3 -> reassemble -> Click) allocated";
}

TEST_F(EnclaveLoopFixture, RejectedIngressFramesReturnTheirPooledBuffers) {
  // Every frame the enclave refuses is dropped alone and hands back the
  // buffers it drew: the pool keeps its size and no reject falls back
  // to the heap.
  auto& enclave = client->enclave();
  net::PacketPool& pool = enclave.packet_pool();
  std::uint32_t session = enclave.session()->session_id();
  Bytes ip_packet = world.benign_packet(200).serialize();
  std::vector<Bytes> frames;
  auto seal = [&](ByteView payload) {
    world.server.vpn().seal_packet_wire_at(session, payload, frames, 0);
    return frames[0];
  };
  IngressBatch in;
  auto deliver = [&](const Bytes& wire) {
    auto status =
        enclave.ecall_process_ingress_batch(std::span<const Bytes>(&wire, 1), in);
    for (net::Packet& packet : in.packets) pool.release(std::move(packet));
    in.packets.clear();
    return status;
  };
  for (int warm = 0; warm < 4; ++warm) ASSERT_TRUE(deliver(seal(ip_packet)).ok());
  const Bytes replayed = seal(ip_packet);
  ASSERT_TRUE(deliver(replayed).ok());

  std::map<std::string, std::vector<Bytes>> rejects;  // five frames per kind
  for (int i = 0; i < 5; ++i) {
    rejects["replayed"].push_back(replayed);
    Bytes tampered = seal(ip_packet);
    tampered[tampered.size() / 2] ^= 0x01;
    rejects["MAC failure"].push_back(std::move(tampered));
    rejects["unparsable payload"].push_back(seal(to_bytes("not an ip packet")));
    rejects["truncated header"].push_back(
        Bytes{static_cast<std::uint8_t>(vpn::MsgType::Data), 0});
  }
  ASSERT_GT(pool.pooled(), 0u);
  for (const auto& [kind, wires] : rejects) {
    std::size_t pooled = pool.pooled();
    std::uint64_t starved = pool.starved();
    for (const Bytes& wire : wires) {
      EXPECT_TRUE(deliver(wire).ok()) << kind;
      EXPECT_EQ(in.dropped, 1u) << kind;
      EXPECT_EQ(in.accepted, 0u) << kind;
    }
    EXPECT_EQ(pool.pooled(), pooled) << kind;
    EXPECT_EQ(pool.starved(), starved) << kind;
  }
}

TEST_F(EnclaveLoopFixture, OneBadFrameDropsOnlyItselfFromAnIngressBurst) {
  // A tampered frame in mid-burst costs only itself: the frames before
  // it keep the replay slots they spent, the frames after it still
  // open, and every buffer the bad frame drew returns to the pool.
  auto& enclave = client->enclave();
  net::PacketPool& pool = enclave.packet_pool();
  std::uint32_t session = enclave.session()->session_id();
  Bytes ip_packet = world.benign_packet(200).serialize();
  std::vector<Bytes> wires;
  IngressBatch in;
  auto deliver = [&](std::size_t frames) {
    auto status = enclave.ecall_process_ingress_batch(
        std::span<const Bytes>(wires.data(), frames), in);
    for (net::Packet& packet : in.packets) pool.release(std::move(packet));
    in.packets.clear();
    return status;
  };
  for (int warm = 0; warm < 4; ++warm) {
    std::size_t n = 0;
    for (int k = 0; k < 4; ++k)
      n = world.server.vpn().seal_packet_wire_at(session, ip_packet, wires, n);
    ASSERT_TRUE(deliver(n).ok());
    ASSERT_EQ(in.accepted, 4u);
  }

  std::size_t n = 0;
  for (int k = 0; k < 4; ++k)
    n = world.server.vpn().seal_packet_wire_at(session, ip_packet, wires, n);
  ASSERT_EQ(n, 4u);
  wires[2][wires[2].size() / 2] ^= 0x01;
  std::size_t pooled = pool.pooled();
  std::uint64_t starved = pool.starved();
  ASSERT_TRUE(deliver(n).ok());
  EXPECT_EQ(in.complete, 3u);
  EXPECT_EQ(in.accepted, 3u);
  EXPECT_EQ(in.dropped, 1u);
  EXPECT_EQ(pool.pooled(), pooled);
  EXPECT_EQ(pool.starved(), starved);
}

TEST_F(EnclaveLoopFixture, SteadyStatePingPathDoesNotAllocate) {
  auto& enclave = client->enclave();
  Bytes frame;
  for (int warm = 0; warm < 4; ++warm)
    ASSERT_TRUE(enclave.ecall_create_ping_wire(frame).ok());
  std::uint64_t before = g_allocations;
  for (int iter = 0; iter < 100; ++iter)
    ASSERT_TRUE(enclave.ecall_create_ping_wire(frame).ok());
  EXPECT_EQ(g_allocations - before, 0u) << "the control path allocated";
  // The scratch-built frame is a well-formed authenticated ping.
  auto msg = vpn::WireMessage::parse(frame);
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg->type, vpn::MsgType::Ping);
  auto handled = world.server.handle_wire(frame, world.clock.now());
  ASSERT_TRUE(handled.ok()) << handled.error();
  EXPECT_TRUE(std::holds_alternative<vpn::VpnServer::PingIn>(handled->event));
}

TEST_F(EnclaveLoopFixture, BatchVerdictsMatchPerPacketPath) {
  // Same traffic mix through the egress ecall as bursts of one and as
  // one burst: identical accept/reject counts and sealed frame count.
  auto& enclave = client->enclave();
  auto make_packet = [&](std::size_t k) {
    net::Packet packet = world.benign_packet(64 + 16 * k);
    if (k % 3 == 1) packet.src = net::Ipv4(203, 0, 113, 7);  // outside 10.8/16
    return packet;
  };
  std::uint32_t single_accepted = 0, single_rejected = 0;
  std::size_t single_frames = 0;
  for (std::size_t k = 0; k < 30; ++k) {
    click::PacketBatch one;
    one.push_back(make_packet(k));
    EgressBatch egress;
    auto status = enclave.ecall_process_egress_batch(std::move(one), egress);
    ASSERT_TRUE(status.ok()) << status.error();
    single_accepted += egress.accepted;
    single_rejected += egress.rejected;
    single_frames += egress.frame_count;
  }

  click::PacketBatch batch;
  for (std::size_t k = 0; k < 30; ++k) batch.push_back(make_packet(k));
  EgressBatch out;
  ASSERT_TRUE(enclave.ecall_process_egress_batch(std::move(batch), out).ok());
  EXPECT_EQ(out.accepted, single_accepted);
  EXPECT_EQ(out.rejected, single_rejected);
  EXPECT_EQ(out.frame_count, single_frames);
  EXPECT_GT(out.rejected, 0u);
}

// ---- Packet::serialize_into -------------------------------------------------

TEST(SerializeInto, MatchesSerializeAndReusesCapacity) {
  Rng rng(13);
  net::Packet udp = net::Packet::udp(net::Ipv4(1, 2, 3, 4), net::Ipv4(5, 6, 7, 8),
                                     1234, 80, rng.bytes(512));
  net::Packet tcp = net::Packet::tcp(net::Ipv4(9, 9, 9, 9), net::Ipv4(8, 8, 8, 8),
                                     4321, 443, 7, 9, 0x12, rng.bytes(77));
  net::Packet icmp =
      net::Packet::icmp_echo_request(net::Ipv4(1, 1, 1, 1), net::Ipv4(2, 2, 2, 2),
                                     5, 6, rng.bytes(32));
  Bytes scratch;
  for (const auto* p : {&udp, &tcp, &icmp}) {
    p->serialize_into(scratch);
    EXPECT_EQ(scratch, p->serialize());
    EXPECT_EQ(scratch.size(), p->wire_size());
    auto parsed = net::Packet::parse(scratch);
    ASSERT_TRUE(parsed.ok()) << parsed.error();
    EXPECT_EQ(parsed->payload, p->payload);
  }

  // Steady-state reuse at a fixed size never reallocates.
  for (int i = 0; i < 2; ++i) udp.serialize_into(scratch);
  std::uint64_t before = g_allocations;
  for (int i = 0; i < 100; ++i) udp.serialize_into(scratch);
  EXPECT_EQ(g_allocations - before, 0u);
}

}  // namespace
}  // namespace endbox
