#include "tls/keystore.hpp"

namespace endbox::tls {

bool SessionKeyStore::put(const SessionKeys& keys) {
  SessionKeys copy = keys;
  return keys_.insert(keys.session_id, std::move(copy), tick()) != nullptr;
}

std::optional<SessionKeys> SessionKeyStore::get(std::uint64_t session_id) const {
  ++lookups_;
  const KeyTable::Entry* entry = keys_.find(session_id);
  if (!entry) {
    ++misses_;
    return std::nullopt;
  }
  // Activity stamp only — a relaxed store, safe from concurrent shard
  // readers; the wheel is re-armed lazily by the next expire_idle.
  keys_.touch(*entry, tick());
  return entry->value;
}

bool SessionKeyStore::erase(std::uint64_t session_id) {
  return keys_.erase(session_id);
}

std::size_t SessionKeyStore::expire_idle(sim::Time now) {
  note_time(now);
  return keys_.expire_idle(now, [](std::uint64_t, SessionKeys&&) {});
}

}  // namespace endbox::tls
