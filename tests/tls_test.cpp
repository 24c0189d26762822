// Tests for the miniature TLS: handshake, record layer, key export
// hook, downgrade protection, key store.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "tls/keystore.hpp"
#include "tls/session.hpp"

namespace endbox::tls {
namespace {

struct Handshake {
  Rng rng{1};
  TlsClient client{rng};
  TlsServer server{rng};
  Bytes pre_master = to_bytes("pre-master-secret");

  Status run() {
    auto ch = client.start_handshake();
    auto sh = server.accept(ch, pre_master);
    if (!sh.ok()) return err(sh.error());
    return client.finish_handshake(*sh, pre_master);
  }
};

TEST(Tls, HandshakeEstablishesMatchingKeys) {
  Handshake hs;
  ASSERT_TRUE(hs.run().ok());
  EXPECT_TRUE(hs.client.established());
  EXPECT_TRUE(hs.server.established());
  EXPECT_EQ(hs.client.keys(), hs.server.keys());
  EXPECT_EQ(hs.client.negotiated_version(), TlsVersion::Tls13);
}

TEST(Tls, ApplicationDataRoundTrip) {
  Handshake hs;
  ASSERT_TRUE(hs.run().ok());
  auto record = hs.client.send(to_bytes("GET / HTTP/1.1"));
  auto plain = hs.server.receive(record);
  ASSERT_TRUE(plain.ok()) << plain.error();
  EXPECT_EQ(to_string(*plain), "GET / HTTP/1.1");

  auto reply = hs.server.send(to_bytes("200 OK"));
  auto got = hs.client.receive(reply);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(to_string(*got), "200 OK");
}

TEST(Tls, RecordsDifferAcrossSends) {
  Handshake hs;
  ASSERT_TRUE(hs.run().ok());
  auto a = hs.client.send(to_bytes("same"));
  auto b = hs.client.send(to_bytes("same"));
  EXPECT_NE(a.ciphertext, b.ciphertext);  // distinct sequence nonces
  EXPECT_NE(a.sequence, b.sequence);
}

TEST(Tls, TamperedRecordRejected) {
  Handshake hs;
  ASSERT_TRUE(hs.run().ok());
  auto record = hs.client.send(to_bytes("payload"));
  record.ciphertext[0] ^= 1;
  EXPECT_FALSE(hs.server.receive(record).ok());
  auto record2 = hs.client.send(to_bytes("payload"));
  record2.mac[0] ^= 1;
  EXPECT_FALSE(hs.server.receive(record2).ok());
}

TEST(Tls, WrongKeysRejected) {
  Handshake a, b;
  ASSERT_TRUE(a.run().ok());
  b.pre_master = to_bytes("different");
  ASSERT_TRUE(b.run().ok());
  auto record = a.client.send(to_bytes("secret"));
  EXPECT_FALSE(b.server.receive(record).ok());
}

TEST(Tls, RecordSerializationRoundTrip) {
  Handshake hs;
  ASSERT_TRUE(hs.run().ok());
  auto record = hs.client.send(to_bytes("hello world"));
  auto back = TlsRecord::parse(record.serialize());
  ASSERT_TRUE(back.ok()) << back.error();
  EXPECT_EQ(back->sequence, record.sequence);
  EXPECT_EQ(back->ciphertext, record.ciphertext);
  auto plain = hs.server.receive(*back);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(to_string(*plain), "hello world");
}

TEST(Tls, ParseRejectsTruncatedAndTrailing) {
  EXPECT_FALSE(TlsRecord::parse(Bytes{1, 2, 3}).ok());
  Handshake hs;
  ASSERT_TRUE(hs.run().ok());
  Bytes wire = hs.client.send(to_bytes("x")).serialize();
  wire.push_back(0);
  EXPECT_FALSE(TlsRecord::parse(wire).ok());
}

TEST(Tls, KeyExportHookFires) {
  Handshake hs;
  std::optional<SessionKeys> exported;
  hs.client.set_key_export_hook([&](const SessionKeys& k) { exported = k; });
  ASSERT_TRUE(hs.run().ok());
  ASSERT_TRUE(exported.has_value());
  EXPECT_EQ(*exported, hs.client.keys());
}

TEST(Tls, ServerEnforcesMinimumVersion) {
  // Downgrade attack (section V-A): client claims only TLS 1.0.
  Rng rng(2);
  TlsClient old_client(rng, TlsVersion::Tls10);
  TlsServer server(rng);
  auto sh = server.accept(old_client.start_handshake(), to_bytes("pm"));
  EXPECT_FALSE(sh.ok());
}

TEST(Tls, ClientRejectsVersionAboveOffer) {
  // A MITM "upgrading" the version is also rejected client-side.
  Rng rng(3);
  TlsClient client(rng, TlsVersion::Tls12);
  client.start_handshake();
  ServerHello forged;
  forged.server_random = rng.bytes(32);
  forged.chosen_version = TlsVersion::Tls13;
  EXPECT_FALSE(client.finish_handshake(forged, to_bytes("pm")).ok());
}

TEST(Tls, NegotiatesClientMaxWhenAllowed) {
  Rng rng(4);
  TlsClient client(rng, TlsVersion::Tls12);
  TlsServer server(rng);
  auto sh = server.accept(client.start_handshake(), to_bytes("pm"));
  ASSERT_TRUE(sh.ok()) << sh.error();
  ASSERT_TRUE(client.finish_handshake(*sh, to_bytes("pm")).ok());
  EXPECT_EQ(client.negotiated_version(), TlsVersion::Tls12);
}

TEST(Tls, SendBeforeHandshakeThrows) {
  Rng rng(5);
  TlsClient client(rng);
  EXPECT_THROW(client.send(to_bytes("x")), std::logic_error);
}

TEST(KeyStore, PutGetErase) {
  SessionKeyStore store;
  SessionKeys keys{Bytes(16, 1), Bytes(32, 2), 42};
  store.put(keys);
  EXPECT_EQ(store.size(), 1u);
  auto got = store.get(42);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, keys);
  EXPECT_FALSE(store.get(43).has_value());
  EXPECT_EQ(store.misses(), 1u);
  EXPECT_EQ(store.lookups(), 2u);
  EXPECT_TRUE(store.erase(42));
  EXPECT_FALSE(store.erase(42));
  EXPECT_FALSE(store.get(42).has_value());
}

TEST(KeyStore, OverwriteSameSession) {
  SessionKeyStore store;
  store.put({Bytes(16, 1), Bytes(32, 1), 7});
  store.put({Bytes(16, 9), Bytes(32, 9), 7});
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.get(7)->enc_key, Bytes(16, 9));
}

TEST(KeyStore, CapacityBoundRejectsNewSessions) {
  // The bound holds by eviction: a new session at capacity displaces
  // the idle-longest key instead of being refused.
  SessionKeyStore::Options options;
  options.capacity = 2;
  SessionKeyStore store(options);
  EXPECT_TRUE(store.put({Bytes(16, 1), Bytes(32, 1), 1}));
  EXPECT_TRUE(store.put({Bytes(16, 2), Bytes(32, 2), 2}));
  EXPECT_TRUE(store.put({Bytes(16, 3), Bytes(32, 3), 3}));
  EXPECT_EQ(store.rejected_full(), 0u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_FALSE(store.get(1).has_value());
  // Refreshing a live session's keys is not a new admission.
  EXPECT_TRUE(store.put({Bytes(16, 9), Bytes(32, 9), 2}));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.get(3).has_value());
  // Teardown makes room again: nothing is evicted.
  EXPECT_TRUE(store.erase(2));
  EXPECT_TRUE(store.put({Bytes(16, 4), Bytes(32, 4), 4}));
  EXPECT_TRUE(store.get(3).has_value());
  EXPECT_TRUE(store.get(4).has_value());
}

TEST(KeyStore, FullStoreEvictsTheIdleLongestKey) {
  // Nothing in the enclave prunes keys or reads the time, so a full
  // store must admit new keys by evicting, ordered by the store's own
  // clock: every put and get is one tick.
  SessionKeyStore::Options options;
  options.capacity = 4;
  SessionKeyStore store(options);
  for (std::uint64_t id = 1; id <= 4; ++id)
    ASSERT_TRUE(store.put({Bytes(16, 1), Bytes(32, 1), id}));
  ASSERT_TRUE(store.get(1).has_value());  // key 1 is now the freshest
  EXPECT_TRUE(store.put({Bytes(16, 5), Bytes(32, 5), 5}));
  EXPECT_EQ(store.size(), 4u);
  EXPECT_EQ(store.rejected_full(), 0u);
  EXPECT_TRUE(store.get(1).has_value());
  EXPECT_FALSE(store.get(2).has_value());  // idle longest
  EXPECT_TRUE(store.get(5).has_value());
}

TEST(KeyStore, IdleKeysExpireAndCountHonestMisses) {
  // Each put and get stamps one 1 ns tick past the store's clock, so
  // a deadline lands a few ns past a whole millisecond and fires on the
  // first expiry pass one wheel tick (1 ms) later.
  constexpr sim::Time kMs = sim::kMillisecond;
  SessionKeyStore::Options options;
  options.idle_timeout = 100 * kMs;
  SessionKeyStore store(options);
  store.note_time(0);
  store.put({Bytes(16, 1), Bytes(32, 1), 1});
  store.put({Bytes(16, 2), Bytes(32, 2), 2});  // stamped 2 ns
  // Key 1 is used at t=80ms (activity stamp refreshed); key 2 idles.
  store.note_time(80 * kMs);
  ASSERT_TRUE(store.get(1).has_value());
  EXPECT_EQ(store.expire_idle(100 * kMs), 0u);  // key 2 due at 100ms + 2 ns
  EXPECT_EQ(store.expire_idle(101 * kMs), 1u);  // key 2, idle since 2 ns
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.expired(), 1u);
  ASSERT_TRUE(store.get(1).has_value());
  // The pruned key is an honest miss, not a phantom hit.
  std::uint64_t misses = store.misses();
  EXPECT_FALSE(store.get(2).has_value());
  EXPECT_EQ(store.misses(), misses + 1);
  // Key 1 was last used at t=101ms + 1 ns (the hit above, after
  // expire_idle moved the store's clock): it is due at 201ms + 1 ns.
  EXPECT_EQ(store.expire_idle(201 * kMs), 0u);
  EXPECT_EQ(store.expire_idle(202 * kMs), 1u);
  EXPECT_EQ(store.size(), 0u);
}

TEST(KeyStore, ConcurrentLookupsAreRaceFreeAndCounted) {
  // Shard workers call get() concurrently during a burst while the
  // stamp refresh is a relaxed store: must be clean under TSan and the
  // counters must still add up exactly.
  SessionKeyStore::Options options;
  options.idle_timeout = 100 * sim::kMillisecond;
  SessionKeyStore store(options);
  for (std::uint64_t id = 0; id < 64; ++id)
    ASSERT_TRUE(store.put(
        {Bytes(16, static_cast<std::uint8_t>(id)), Bytes(32, 2), id}));
  constexpr int kThreads = 4;
  constexpr int kLookups = 128 * 150;  // full cycles of the id range
  std::atomic<std::uint64_t> hits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&store, &hits, t] {
      std::uint64_t local = 0;
      for (int i = 0; i < kLookups; ++i) {
        std::uint64_t id = static_cast<std::uint64_t>((i + t) % 128);
        if (store.get(id).has_value()) ++local;  // ids 64..127 miss
      }
      hits += local;
    });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(store.lookups(), static_cast<std::uint64_t>(kThreads) * kLookups);
  EXPECT_EQ(store.misses(), store.lookups() - hits.load());
  EXPECT_EQ(hits.load(), store.lookups() / 2);
}

}  // namespace
}  // namespace endbox::tls
