#include "vpn/client.hpp"

#include <array>
#include <cstring>
#include <stdexcept>

#include "crypto/hmac.hpp"

namespace endbox::vpn {

VpnClientSession::VpnClientSession(Rng& rng, ca::Certificate certificate,
                                   crypto::RsaKeyPair enclave_key,
                                   crypto::RsaPublicKey server_key,
                                   VpnClientConfig config)
    : rng_(rng),
      certificate_(std::move(certificate)),
      enclave_key_(enclave_key),
      server_key_(server_key),
      config_(config) {}

WireMessage VpnClientSession::create_handshake_init(std::uint16_t proposed_version) {
  proposed_version_ = proposed_version;
  client_nonce_ = rng_.bytes(16);
  // Starting (or restarting) a handshake invalidates the previous
  // session: keys go (so a stale duplicate of an old reply can no
  // longer complete anything), and the replay window and pending
  // fragments reset — the new session's packet ids restart from 1 and
  // old fragments must never mix into new packets.
  keys_.reset();
  session_id_ = 0;
  negotiated_version_ = 0;
  replay_ = ReplayWindow{};
  reassembler_.clear();

  WireMessage msg;
  msg.type = MsgType::HandshakeInit;
  msg.session_id = 0;  // not yet assigned
  Bytes cert = certificate_.serialize();
  msg.body.reserve(2 + 4 + 16 + 2 + cert.size());
  put_u16(msg.body, proposed_version);
  put_u32(msg.body, config_.config_version);
  append(msg.body, *client_nonce_);
  put_u16(msg.body, static_cast<std::uint16_t>(cert.size()));
  append(msg.body, cert);
  return msg;
}

Status VpnClientSession::process_handshake_reply(const WireMessage& reply) {
  if (reply.type != MsgType::HandshakeReply) return err("not a handshake reply");
  if (!client_nonce_) return err("handshake not started");
  // Idempotent completion: a duplicated delivery of the reply we
  // already accepted must not re-derive keys or reset the replay
  // window (the network duplicates frames; the reliability layer
  // retransmits). Success with no state change.
  if (keys_ && reply.session_id == session_id_) return {};
  try {
    ByteReader r(reply.body);
    std::uint16_t chosen_version = r.u16();
    Bytes server_nonce = r.take(16);
    Bytes encrypted_seed = r.take(8);
    Bytes signature = r.take(8);

    // Server authentication: signature over the transcript with the
    // pinned server key (prevents MITM replies). The transcript layout
    // is fixed-size ([version:2][session_id:4][client_nonce:16]
    // [server_nonce:16][encrypted_seed:8]), so it assembles on the
    // stack. The session id is covered, so a flipped wire header
    // cannot bind us to a different session.
    std::array<std::uint8_t, 2 + 4 + 16 + 16 + 8> transcript;
    put_u16(transcript.data(), chosen_version);
    put_u32(transcript.data() + 2, reply.session_id);
    std::memcpy(transcript.data() + 6, client_nonce_->data(), 16);
    std::memcpy(transcript.data() + 22, server_nonce.data(), 16);
    std::memcpy(transcript.data() + 38, encrypted_seed.data(), 8);
    if (!crypto::rsa_verify(server_key_, transcript, signature))
      return err("handshake reply signature invalid");

    // The paper's client-side downgrade check runs inside the enclave:
    // a malicious host cannot strip it.
    if (chosen_version < kVersionTls12)
      return err("server negotiated version below enclave minimum");
    if (chosen_version > proposed_version_)
      return err("server chose version above our proposal");

    std::uint64_t seed = crypto::rsa_decrypt(enclave_key_, encrypted_seed);
    keys_ = derive_vpn_keys(seed, *client_nonce_, server_nonce);
    session_id_ = reply.session_id;
    negotiated_version_ = chosen_version;
    return {};
  } catch (const std::out_of_range&) {
    return err("handshake reply truncated");
  }
}

template <typename Packets>
std::size_t VpnClientSession::seal_run(const Packets& packets,
                                       std::vector<Bytes>& frames, std::size_t at) {
  if (!keys_) throw std::logic_error("VpnClientSession: not established");
  std::size_t end = at;
  for (ByteView packet : packets) end += fragment_count(packet.size(), config_.mtu);
  if (frames.size() < end) frames.resize(end);
  SealRun run(*keys_, config_.encrypt_data ? MsgType::Data : MsgType::DataIntegrityOnly,
              session_id_, rng_);
  for (ByteView packet : packets) {
    const std::size_t base = at;
    at += for_each_fragment(packet, config_.mtu, next_packet_id_, next_frag_id_++,
                            [&](const FragmentHeader& frag, ByteView slice) {
                              run.add(frag, slice, frames[base + frag.index]);
                            });
    ++packets_sealed_;
  }
  run.flush();
  return at;
}

std::size_t VpnClientSession::seal_packets_wire_at(std::span<const Bytes> ip_packets,
                                                   std::vector<Bytes>& frames,
                                                   std::size_t at) {
  return seal_run(ip_packets, frames, at);
}

std::size_t VpnClientSession::seal_packet_wire_at(ByteView ip_packet,
                                                  std::vector<Bytes>& frames,
                                                  std::size_t at) {
  return seal_run(std::span<const ByteView>(&ip_packet, 1), frames, at);
}

Result<std::optional<Bytes>> VpnClientSession::open_data_frame(
    ByteView frame, Bytes&& body_scratch) {
  // Every reject hands the caller's buffer back to the pool: a frame
  // the enclave refuses must not cost it a pooled buffer.
  auto reject = [this](Bytes&& buffer, const std::string& error) -> Error {
    recycle(std::move(buffer));
    return err(error);
  };
  if (frame.size() < kWireHeaderSize)
    return reject(std::move(body_scratch), "data frame: truncated header");
  auto type = static_cast<MsgType>(frame[0]);
  if (type != MsgType::Data && type != MsgType::DataIntegrityOnly)
    return reject(std::move(body_scratch), "data frame: not a data message");
  if (!keys_) return reject(std::move(body_scratch), "not established");
  body_scratch.assign(frame.begin() + kWireHeaderSize, frame.end());
  // Failed opens never consume the body (the move happens only on
  // success), so it is still the caller's buffer here.
  Result<OpenedBody> opened =
      type == MsgType::Data ? open_data_body(*keys_, std::move(body_scratch))
                            : open_integrity_body(*keys_, std::move(body_scratch));
  if (!opened.ok()) {
    ++auth_failures_;
    return reject(std::move(body_scratch), opened.error());
  }
  if (!replay_.accept(opened->frag.packet_id))
    return reject(std::move(opened->payload), "replayed packet");
  auto whole = reassembler_.add(opened->frag, std::move(opened->payload));
  if (!whole) return std::optional<Bytes>{};
  ++packets_opened_;
  return std::optional<Bytes>{std::move(*whole)};
}

void VpnClientSession::create_ping_wire(Bytes& frame) {
  if (!keys_) throw std::logic_error("VpnClientSession: not established");
  SealRun run(*keys_, MsgType::Ping, session_id_, rng_);
  run.add(PingInfo{next_ping_seq_++, config_.config_version, 0}, frame);
  run.flush();
}

Result<PingInfo> VpnClientSession::process_ping(const WireMessage& msg) {
  if (!keys_) return err("not established");
  auto info = open_ping_body(*keys_, msg.body);
  if (!info.ok()) {
    ++auth_failures_;  // crafted ping from outside the enclave
    return err(info.error());
  }
  return info;
}

}  // namespace endbox::vpn
