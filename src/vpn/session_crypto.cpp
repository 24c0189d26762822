#include "vpn/session_crypto.hpp"

namespace endbox::vpn {

namespace {

inline ByteView label_view(std::string_view label) {
  return ByteView(reinterpret_cast<const std::uint8_t*>(label.data()),
                  label.size());
}

// MAC over `label || data` from the session's precomputed HMAC state;
// everything stays on the stack.
crypto::Sha256Digest mac_over(const SessionKeys& keys, std::string_view label,
                              ByteView data) {
  auto mac = keys.hmac().begin();
  mac.update(label_view(label));
  mac.update(data);
  return mac.finish();
}

void write_frag(std::uint8_t* p, const FragmentHeader& frag) {
  put_u64(p, frag.packet_id);
  put_u32(p + 8, frag.frag_id);
  put_u16(p + 12, frag.index);
  put_u16(p + 14, frag.count);
}

FragmentHeader read_frag(const std::uint8_t* p) {
  FragmentHeader frag;
  frag.packet_id = get_u64(p);
  frag.frag_id = get_u32(p + 8);
  frag.index = get_u16(p + 12);
  frag.count = get_u16(p + 14);
  return frag;
}

void append_mac(const SessionKeys& keys, std::string_view label, WireBuffer& out) {
  crypto::Sha256Digest mac = mac_over(keys, label, out.view());
  std::memcpy(out.append(kMacSize), mac.data(), kMacSize);
}

bool check_mac(const SessionKeys& keys, std::string_view label, ByteView body) {
  std::size_t authed_len = body.size() - kMacSize;
  crypto::Sha256Digest mac =
      mac_over(keys, label, body.subspan(0, authed_len));
  return ct_equal(ByteView(mac.data(), mac.size()), body.subspan(authed_len));
}

// Shrinks `body` to its payload: moves `len` bytes starting at `offset`
// to the front and resizes, reusing the buffer's allocation.
Bytes move_out_payload(Bytes&& body, std::size_t offset, std::size_t len) {
  if (len > 0 && offset > 0) std::memmove(body.data(), body.data() + offset, len);
  body.resize(len);
  return std::move(body);
}

}  // namespace

const crypto::Aes128& SessionKeys::aes() const {
  if (!aes_cache) aes_cache.emplace(crypto::make_aes_key(enc_key));
  return *aes_cache;
}

const crypto::HmacKey& SessionKeys::hmac() const {
  if (!hmac_cache) hmac_cache.emplace(mac_key);
  return *hmac_cache;
}

SessionKeys derive_vpn_keys(std::uint64_t seed, ByteView client_nonce,
                            ByteView server_nonce) {
  Bytes material;
  material.reserve(8 + client_nonce.size() + server_nonce.size());
  put_u64(material, seed);
  append(material, client_nonce);
  append(material, server_nonce);
  SessionKeys keys;
  keys.enc_key = crypto::derive_key(material, "vpn-enc", 16);
  keys.mac_key = crypto::derive_key(material, "vpn-mac", 32);
  keys.aes();   // expand the key schedule once, at session setup
  keys.hmac();  // precompute the ipad/opad block states once
  return keys;
}

void seal_data_body(const SessionKeys& keys, const FragmentHeader& frag,
                    ByteView payload, Rng& rng, WireBuffer& out) {
  out.reset(kSealHeadroom);
  // Ciphertext first (payload padded and encrypted in place at the
  // buffer's data offset), then IV and fragment header prepended into
  // headroom, then the MAC appended — no intermediate buffers.
  std::size_t padded = crypto::cbc_padded_size(payload.size());
  out.reserve_tail(padded + kMacSize);
  std::uint8_t* ct = out.append(padded);
  if (!payload.empty()) std::memcpy(ct, payload.data(), payload.size());
  std::uint8_t* iv = out.prepend(16);
  rng.fill({iv, 16});
  crypto::aes128_cbc_encrypt_inplace(keys.aes(), iv, {ct, padded}, payload.size());
  write_frag(out.prepend(kFragHeaderSize), frag);
  append_mac(keys, "data", out);
}

void seal_integrity_body(const SessionKeys& keys, const FragmentHeader& frag,
                         ByteView payload, WireBuffer& out) {
  out.reset(kSealHeadroom);
  out.reserve_tail(payload.size() + kMacSize);
  out.append(payload);
  write_frag(out.prepend(kFragHeaderSize), frag);
  append_mac(keys, "integ", out);
}

Result<OpenedBody> open_data_body(const SessionKeys& keys, Bytes&& body) {
  if (body.size() < kFragHeaderSize + 16 + kMacSize)
    return err("data body: too short");
  if (!check_mac(keys, "data", body))
    return err("data body: MAC verification failed");

  OpenedBody opened;
  opened.frag = read_frag(body.data());
  const std::uint8_t* iv = body.data() + kFragHeaderSize;
  std::size_t ct_off = kFragHeaderSize + 16;
  std::size_t ct_len = body.size() - kMacSize - ct_off;
  auto plaintext_len = crypto::aes128_cbc_decrypt_inplace(
      keys.aes(), iv, {body.data() + ct_off, ct_len});
  if (!plaintext_len.ok()) return err("data body: " + plaintext_len.error());
  opened.payload = move_out_payload(std::move(body), ct_off, *plaintext_len);
  return opened;
}

Result<OpenedBody> open_integrity_body(const SessionKeys& keys, Bytes&& body) {
  if (body.size() < kFragHeaderSize + kMacSize)
    return err("integrity body: too short");
  if (!check_mac(keys, "integ", body))
    return err("integrity body: MAC verification failed");
  OpenedBody opened;
  opened.frag = read_frag(body.data());
  std::size_t payload_len = body.size() - kMacSize - kFragHeaderSize;
  opened.payload =
      move_out_payload(std::move(body), kFragHeaderSize, payload_len);
  return opened;
}

void seal_ping_body(const SessionKeys& keys, const PingInfo& info,
                    WireBuffer& out) {
  out.reset(kSealHeadroom);
  out.reserve_tail(16 + kMacSize);
  std::uint8_t* p = out.append(16);
  put_u64(p, info.seq);
  put_u32(p + 8, info.config_version);
  put_u32(p + 12, info.grace_period_secs);
  append_mac(keys, "ping", out);
}

Result<PingInfo> open_ping_body(const SessionKeys& keys, ByteView body) {
  if (body.size() != 16 + kMacSize) return err("ping body: bad size");
  if (!check_mac(keys, "ping", body))
    return err("ping body: MAC verification failed");
  PingInfo info;
  info.seq = get_u64(body.data());
  info.config_version = get_u32(body.data() + 8);
  info.grace_period_secs = get_u32(body.data() + 12);
  return info;
}

}  // namespace endbox::vpn
