#include "tls/session.hpp"

#include "crypto/aes.hpp"
#include "crypto/hmac.hpp"

namespace endbox::tls {

namespace {

Bytes record_nonce(std::uint64_t seq) {
  Bytes nonce(16, 0);
  for (int i = 0; i < 8; ++i)
    nonce[15 - i] = static_cast<std::uint8_t>(seq >> (8 * i));
  return nonce;
}

Bytes mac_input(const TlsRecord& record) {
  Bytes data;
  data.push_back(record.content_type);
  put_u16(data, static_cast<std::uint16_t>(record.version));
  put_u64(data, record.sequence);
  append(data, record.ciphertext);
  return data;
}

}  // namespace

std::string version_name(TlsVersion v) {
  switch (v) {
    case TlsVersion::Tls10: return "TLS 1.0";
    case TlsVersion::Tls11: return "TLS 1.1";
    case TlsVersion::Tls12: return "TLS 1.2";
    case TlsVersion::Tls13: return "TLS 1.3";
  }
  return "TLS ?";
}

SessionKeys derive_session_keys(ByteView pre_master, const ClientHello& ch,
                                const ServerHello& sh, std::uint64_t session_id) {
  Bytes seed(pre_master.begin(), pre_master.end());
  append(seed, ch.client_random);
  append(seed, sh.server_random);
  SessionKeys keys;
  keys.enc_key = crypto::derive_key(seed, "tls-enc", 16);
  keys.mac_key = crypto::derive_key(seed, "tls-mac", 32);
  keys.session_id = session_id;
  return keys;
}

Bytes TlsRecord::serialize() const {
  Bytes out;
  out.push_back(content_type);
  put_u16(out, static_cast<std::uint16_t>(version));
  put_u64(out, sequence);
  put_u16(out, static_cast<std::uint16_t>(ciphertext.size()));
  append(out, ciphertext);
  append(out, mac);
  return out;
}

Result<TlsRecord> TlsRecord::parse(ByteView wire) {
  try {
    ByteReader r(wire);
    TlsRecord record;
    record.content_type = r.u8();
    record.version = static_cast<TlsVersion>(r.u16());
    record.sequence = r.u64();
    record.ciphertext = r.take(r.u16());
    record.mac = r.take(16);
    if (!r.empty()) return err("TlsRecord: trailing bytes");
    return record;
  } catch (const std::out_of_range&) {
    return err("TlsRecord: truncated");
  }
}

TlsRecord seal_record(const SessionKeys& keys, std::uint64_t seq,
                      ByteView plaintext, TlsVersion version) {
  TlsRecord record;
  record.version = version;
  record.sequence = seq;
  record.ciphertext = crypto::aes128_ctr(crypto::make_aes_key(keys.enc_key),
                                         record_nonce(seq), plaintext);
  Bytes full_mac = crypto::hmac_sha256(keys.mac_key, mac_input(record));
  record.mac.assign(full_mac.begin(), full_mac.begin() + 16);
  return record;
}

Result<Bytes> open_record(const SessionKeys& keys, const TlsRecord& record) {
  Bytes full_mac = crypto::hmac_sha256(keys.mac_key, mac_input(record));
  Bytes expected(full_mac.begin(), full_mac.begin() + 16);
  if (!ct_equal(expected, record.mac)) return err("TLS record MAC mismatch");
  return crypto::aes128_ctr(crypto::make_aes_key(keys.enc_key),
                            record_nonce(record.sequence), record.ciphertext);
}

ClientHello TlsClient::start_handshake() {
  hello_ = ClientHello{rng_.bytes(32), max_version_};
  return *hello_;
}

Status TlsClient::finish_handshake(const ServerHello& server_hello,
                                   ByteView pre_master) {
  if (!hello_) return err("TlsClient: handshake not started");
  if (server_hello.chosen_version > hello_->max_version)
    return err("TlsClient: server chose unsupported version");
  negotiated_version_ = server_hello.chosen_version;
  keys_ = derive_session_keys(pre_master, *hello_, server_hello,
                              server_hello.session_id);
  // The paper's one-line OpenSSL change: forward negotiated keys.
  if (key_export_) key_export_(*keys_);
  return {};
}

TlsRecord TlsClient::send(ByteView plaintext) {
  if (!keys_) throw std::logic_error("TlsClient: not established");
  return seal_record(*keys_, send_seq_++, plaintext, negotiated_version_);
}

Result<Bytes> TlsClient::receive(const TlsRecord& record) {
  if (!keys_) return err("TlsClient: not established");
  return open_record(*keys_, record);
}

Result<ServerHello> TlsServer::accept(const ClientHello& client_hello,
                                      ByteView pre_master) {
  if (client_hello.max_version < TlsVersion::Tls12)
    return err("TlsServer: client version below server minimum (" +
               version_name(client_hello.max_version) + " < " +
               version_name(TlsVersion::Tls12) + ")");
  if (client_hello.client_random.size() != 32)
    return err("TlsServer: bad client random");

  ServerHello hello;
  hello.server_random = rng_.bytes(32);
  hello.chosen_version = client_hello.max_version;  // highest mutual
  hello.session_id = next_session_id_++;
  negotiated_version_ = hello.chosen_version;
  keys_ = derive_session_keys(pre_master, client_hello, hello, hello.session_id);
  return hello;
}

TlsRecord TlsServer::send(ByteView plaintext) {
  if (!keys_) throw std::logic_error("TlsServer: not established");
  return seal_record(*keys_, send_seq_++, plaintext, negotiated_version_);
}

Result<Bytes> TlsServer::receive(const TlsRecord& record) {
  if (!keys_) return err("TlsServer: not established");
  return open_record(*keys_, record);
}

}  // namespace endbox::tls
