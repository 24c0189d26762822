// Shared context injected into EndBox's custom Click elements.
//
// Elements are created by registry factories during (hot-)config
// installation, so they cannot receive constructor arguments from the
// host directly. The context carries the enclave-resident services
// they need: IDPS rule sets, the TLS session-key store, trusted and
// untrusted time sources, and the ToDevice delivery callback. Each lane
// has its own context; the compiled rule sets and the key store are
// the enclave's, one of each for all lanes.
#pragma once

#include <cstdint>
#include <functional>

#include "click/registry.hpp"
#include "idps/engine.hpp"
#include "net/packet.hpp"
#include "sim/clock.hpp"
#include "tls/keystore.hpp"

namespace endbox::elements {

struct ElementContext {
  /// Named IDPS rule sets referenced by IDSMatcher(RULESET <name>);
  /// every lane context holds a copy of the enclave's handle.
  idps::RuleSets rulesets;

  /// In-enclave TLS session keys for TLSDecrypt.
  tls::SessionKeyStore* key_store = nullptr;

  /// SGX trusted time (an ocall; expensive — see TrustedSplitter).
  std::function<sim::Time()> trusted_time;
  /// Untrusted system time (a plain syscall; UntrustedSplitter).
  std::function<sim::Time()> untrusted_time;

  /// ToDevice delivery: receives the packet and whether the graph
  /// accepted it (the paper's modification (i): ToDevice signals
  /// OpenVPN when a packet was accepted or rejected).
  std::function<void(net::Packet&&, bool accepted)> to_device;

  // ---- Statistics used by the perf model and tests -------------------
  std::uint64_t trusted_time_calls = 0;
  std::uint64_t untrusted_time_calls = 0;
};

/// Registers FromDevice, ToDevice, IDSMatcher, TrustedSplitter,
/// UntrustedSplitter and TLSDecrypt, all bound to `context` (which must
/// outlive the registry and every router built from it).
void register_endbox_elements(click::ElementRegistry& registry,
                              ElementContext& context);

/// Registry with both the standard Click elements and the EndBox ones.
click::ElementRegistry make_endbox_registry(ElementContext& context);

}  // namespace endbox::elements
