#include "crypto/hmac.hpp"

namespace endbox::crypto {

namespace {
constexpr std::size_t kBlock = 64;
}  // namespace

HmacKey::HmacKey(ByteView key, Sha256::Kernel kernel)
    : inner_(kernel), outer_(kernel) {
  std::uint8_t k[kBlock] = {};
  if (key.size() > kBlock) {
    Sha256 long_key(kernel);
    long_key.update(key);
    Sha256Digest d = long_key.finish();
    std::memcpy(k, d.data(), d.size());
  } else if (!key.empty()) {
    std::memcpy(k, key.data(), key.size());
  }
  std::uint8_t pad[kBlock];
  for (std::size_t i = 0; i < kBlock; ++i) pad[i] = k[i] ^ 0x36;
  inner_.update(ByteView(pad, kBlock));
  for (std::size_t i = 0; i < kBlock; ++i) pad[i] = k[i] ^ 0x5c;
  outer_.update(ByteView(pad, kBlock));
}

Sha256Digest HmacKey::Mac::finish() {
  Sha256Digest inner_digest = inner_.finish();
  outer_.update(ByteView(inner_digest.data(), inner_digest.size()));
  return outer_.finish();
}

Sha256Digest HmacKey::mac(ByteView data) const {
  Mac m = begin();
  m.update(data);
  return m.finish();
}

bool HmacKey::verify(ByteView data, ByteView mac) const {
  Sha256Digest d = this->mac(data);
  return ct_equal(ByteView(d.data(), d.size()), mac);
}

Bytes hmac_sha256(ByteView key, ByteView data) {
  Sha256Digest d = HmacKey(key).mac(data);
  return Bytes(d.begin(), d.end());
}

bool hmac_verify(ByteView key, ByteView data, ByteView mac) {
  return HmacKey(key).verify(data, mac);
}

Bytes derive_key(ByteView key, std::string_view label, std::size_t length) {
  Bytes out;
  out.reserve(((length + kSha256DigestSize - 1) / kSha256DigestSize) *
              kSha256DigestSize);
  HmacKey hkey(key);
  std::uint8_t counter = 1;
  while (out.size() < length) {
    auto mac = hkey.begin();
    mac.update(ByteView(reinterpret_cast<const std::uint8_t*>(label.data()),
                        label.size()));
    mac.update(ByteView(&counter, 1));
    ++counter;
    Sha256Digest d = mac.finish();
    append(out, ByteView(d.data(), d.size()));
  }
  out.resize(length);
  return out;
}

}  // namespace endbox::crypto
