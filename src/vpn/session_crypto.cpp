#include "vpn/session_crypto.hpp"

#include <algorithm>
#include <string_view>

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

void SealRun::add(const FragmentHeader& frag, ByteView payload, Bytes& frame) {
  write_frag(items_[count_].head.data(), frag);
  push(payload, frame);
}

void SealRun::add(const PingInfo& info, Bytes& frame) {
  std::uint8_t* head = items_[count_].head.data();
  put_u64(head, info.seq);
  put_u32(head + 8, info.config_version);
  put_u32(head + 12, info.grace_period_secs);
  push({}, frame);
}

void SealRun::push(ByteView payload, Bytes& frame) {
  items_[count_].payload = payload;
  items_[count_].frame = &frame;
  if (++count_ == kGroup) flush();
}

void SealRun::flush() {
  // Frame: [type][session_id][head:16][iv:16, Data only][payload + pad][mac:32].
  // The MAC covers label || head || iv || ciphertext; the label is
  // written over the end of the wire header, hashed in place, and
  // overwritten by the header once the MAC is done.
  const bool encrypt = type_ == MsgType::Data;
  const std::string_view label = encrypt                     ? "data"
                                 : type_ == MsgType::Ping    ? "ping"
                                                             : "integ";
  const std::size_t label_at = kWireHeaderSize - label.size();
  const std::size_t body_at = kWireHeaderSize + kFragHeaderSize + (encrypt ? 16 : 0);
  std::array<crypto::CbcChain, kGroup> chains;
  std::array<std::size_t, kGroup> authed_len;
  for (std::size_t i = 0; i < count_; ++i) {
    const Item& item = items_[i];
    std::size_t len =
        encrypt ? crypto::cbc_padded_size(item.payload.size()) : item.payload.size();
    item.frame->resize(body_at + len + kMacSize);
    std::uint8_t* p = item.frame->data();
    std::memcpy(p + label_at, label.data(), label.size());
    std::memcpy(p + kWireHeaderSize, item.head.data(), kFragHeaderSize);
    std::copy(item.payload.begin(), item.payload.end(), p + body_at);
    if (encrypt) {
      rng_.fill({p + body_at - 16, 16});
      chains[i] = {p + body_at - 16, {p + body_at, len}, item.payload.size()};
    }
    authed_len[i] = body_at - label_at + len;
  }
  if (encrypt) crypto::aes128_cbc_encrypt_chains(keys_.aes(), {chains.data(), count_});

  const crypto::HmacKey& hmac = keys_.hmac();
  auto authed = [&](std::size_t i) {
    return ByteView(items_[i].frame->data() + label_at, authed_len[i]);
  };
  auto put_mac = [&](std::size_t i, const crypto::Sha256Digest& mac) {
    std::memcpy(items_[i].frame->data() + label_at + authed_len[i], mac.data(), kMacSize);
  };
  std::size_t i = 0;
  for (; i + 1 < count_; i += 2) {
    auto macs = hmac.mac_pair(authed(i), authed(i + 1));
    put_mac(i, macs[0]);
    put_mac(i + 1, macs[1]);
  }
  if (i < count_) put_mac(i, hmac.mac(authed(i)));
  for (i = 0; i < count_; ++i) {
    std::uint8_t* p = items_[i].frame->data();
    p[0] = static_cast<std::uint8_t>(type_);
    put_u32(p + 1, session_id_);
  }
  count_ = 0;
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
