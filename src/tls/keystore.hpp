// In-enclave session-key store.
//
// The client's instrumented TLS library forwards negotiated keys via
// the VPN management interface; the enclave keeps them here so the
// TLSDecrypt Click element can decrypt application records flowing
// through the tunnel. Keys are indexed by session id (carried in each
// record's sequence space by our miniature TLS; real EndBox indexes by
// connection 5-tuple).
//
// The store is bounded lifecycle state (common/lifecycle_table.hpp):
// keys go on session teardown (erase), after the idle timeout
// (expire_idle), or when a new key at capacity evicts the idle-longest
// one. Stamps come from the store's own clock, one tick per put() and
// get() (no ocall for the time). Each successful get() restamps with
// relaxed atomics — safe under the shard model where writes
// (put/erase/expire) happen via ecalls between bursts and shards only
// read during one.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>

#include "common/lifecycle_table.hpp"
#include "tls/session.hpp"

namespace endbox::tls {

class SessionKeyStore {
 public:
  struct Options {
    std::size_t capacity = std::size_t{1} << 20;
    sim::Time idle_timeout = 0;  ///< 0: prune on teardown only
  };

  SessionKeyStore() : SessionKeyStore(Options{}) {}
  explicit SessionKeyStore(Options options)
      : keys_(KeyTable::Options{options.capacity, options.idle_timeout, {},
                                EvictionPolicy::EvictIdleLongest}) {}

  /// Inserts or refreshes a key; a new key at capacity evicts the
  /// idle-longest one. Returns false only when nothing can be evicted.
  bool put(const SessionKeys& keys);
  std::optional<SessionKeys> get(std::uint64_t session_id) const;
  bool erase(std::uint64_t session_id);

  /// Moves the store's clock forward to virtual time `now`. Call
  /// between bursts (single-threaded), like put/erase.
  void note_time(sim::Time now) {
    if (clock_.load(std::memory_order_relaxed) < now)
      clock_.store(now, std::memory_order_relaxed);
  }
  /// Prunes keys idle past the timeout (no-op with idle_timeout 0).
  /// A pruned key looked up later counts as an honest miss.
  std::size_t expire_idle(sim::Time now);

  std::size_t size() const { return keys_.size(); }
  std::uint64_t lookups() const { return lookups_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  std::uint64_t expired() const { return keys_.stats().expired_idle; }
  std::uint64_t rejected_full() const { return keys_.stats().rejected_full; }

 private:
  using KeyTable = LifecycleTable<std::uint64_t, SessionKeys>;

  /// The stamp of a put or get: one tick of the store's clock.
  sim::Time tick() const { return clock_.fetch_add(1, std::memory_order_relaxed) + 1; }

  KeyTable keys_;
  mutable std::atomic<sim::Time> clock_{0};
  // The store is shared by every element-graph shard (keys arrive via
  // ecalls between bursts; shards only read the map during one), so the
  // lookup statistics must tolerate concurrent get() calls.
  mutable std::atomic<std::uint64_t> lookups_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
};

}  // namespace endbox::tls
