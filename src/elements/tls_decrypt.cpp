#include "elements/tls_decrypt.hpp"

#include "tls/session.hpp"

namespace endbox::elements {

Status TLSDecrypt::configure(const std::vector<std::string>& args) {
  if (!args.empty()) return err("TLSDecrypt takes no arguments");
  if (!context_.key_store) return err("TLSDecrypt: no session key store available");
  return {};
}

void TLSDecrypt::process(net::Packet& packet) {
  auto record = tls::TlsRecord::parse(packet.payload);
  if (!record.ok() || record->content_type != 23) {
    count(kPassthrough);  // not TLS application data; forward untouched
    return;
  }
  // Sessions are resolved through the flow_hint annotation, which the
  // tunnel entry point sets to the TLS session id of the connection
  // (real EndBox resolves by 5-tuple; our miniature TLS keys the store
  // by session id).
  auto keys = context_.key_store->get(packet.flow_hint);
  if (!keys) {
    count(kKeyMisses);  // keys not forwarded (vanilla client): cannot inspect
    return;
  }
  auto plaintext = tls::open_record(*keys, *record);
  if (!plaintext.ok()) {
    count(kKeyMisses);
    return;
  }
  packet.decrypted_payload = std::move(*plaintext);
  count(kDecrypted);
}

void TLSDecrypt::push_batch(int /*port*/, click::PacketBatch&& batch) {
  // Every outcome exits output 0, so the burst stays intact.
  for (net::Packet& packet : batch) process(packet);
  output_batch(0, std::move(batch));
}

}  // namespace endbox::elements
