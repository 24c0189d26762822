#include "vpn/wire.hpp"

namespace endbox::vpn {

Bytes WireMessage::serialize() const {
  Bytes out;
  serialize_into(out);
  return out;
}

void WireMessage::serialize_into(Bytes& out) const {
  out.clear();
  out.reserve(kWireHeaderSize + body.size());
  out.push_back(static_cast<std::uint8_t>(type));
  put_u32(out, session_id);
  append(out, body);
}

Result<MsgType> parse_wire_type(ByteView wire) {
  if (wire.size() < kWireHeaderSize) return err("VPN message: truncated header");
  std::uint8_t type = wire[0];
  if (type < 1 || type > 5) return err("VPN message: unknown type");
  return static_cast<MsgType>(type);
}

Result<WireMessage> WireMessage::parse(ByteView wire) {
  auto type = parse_wire_type(wire);
  if (!type.ok()) return err(type.error());
  WireMessage msg;
  msg.type = *type;
  msg.session_id = get_u32(wire.data() + 1);
  msg.body.assign(wire.begin() + kWireHeaderSize, wire.end());
  return msg;
}

}  // namespace endbox::vpn
