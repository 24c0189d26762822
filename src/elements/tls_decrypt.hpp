// TLSDecrypt: the paper's "special Click element" (section III-D) that
// decrypts application-level TLS traffic inside the enclave using
// session keys forwarded by the client's instrumented TLS library.
//
// The element parses the packet payload as a TLS record, looks the
// session up in the enclave key store and, on success, attaches the
// plaintext to the packet's `decrypted_payload` annotation so that
// downstream elements (IDSMatcher) inspect cleartext. The wire payload
// is left untouched: end-to-end encryption is preserved — EndBox
// inspects, it does not re-encrypt or MITM.
#pragma once

#include "click/element.hpp"
#include "elements/context.hpp"

namespace endbox::elements {

class TLSDecrypt : public click::Element {
 public:
  explicit TLSDecrypt(ElementContext& context) : context_(context) {}

  std::string_view class_name() const override { return "TLSDecrypt"; }
  Status configure(const std::vector<std::string>& args) override;
  void push_batch(int port, click::PacketBatch&& batch) override;

  std::uint64_t decrypted() const { return counter(kDecrypted); }
  /// Not TLS, or non-app-data records.
  std::uint64_t passthrough() const { return counter(kPassthrough); }
  /// TLS but no session key forwarded.
  std::uint64_t key_misses() const { return counter(kKeyMisses); }

 private:
  enum Slot { kDecrypted, kPassthrough, kKeyMisses };

  /// The record-parse / key-lookup / decrypt step for one packet.
  void process(net::Packet& packet);

  ElementContext& context_;
};

}  // namespace endbox::elements
