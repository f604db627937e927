#include "core/value.hpp"

#include <cstring>
#include <utility>

#include "base/error.hpp"

namespace pia {

const char* to_string(Logic logic) {
  switch (logic) {
    case Logic::kLow: return "0";
    case Logic::kHigh: return "1";
    case Logic::kUnknown: return "X";
    case Logic::kHighZ: return "Z";
  }
  return "?";
}

void Value::set_payload(BytesView bytes) {
  if (bytes.size() <= kInlineCapacity) {
    small_ = static_cast<std::uint8_t>(bytes.size());
    if (!bytes.empty())
      std::memcpy(store_.inline_bytes, bytes.data(), bytes.size());
  } else {
    small_ = kSpilled;
    store_.heap = new Bytes(bytes.begin(), bytes.end());
  }
}

void Value::adopt_payload(Bytes&& bytes) {
  if (bytes.size() <= kInlineCapacity) {
    set_payload(bytes);
  } else {
    small_ = kSpilled;
    store_.heap = new Bytes(std::move(bytes));
  }
}

Value::Value(Bytes packet) : kind_(Kind::kPacket) {
  adopt_payload(std::move(packet));
}

Value Value::token(std::string_view name) {
  Value v;
  v.kind_ = Kind::kToken;
  v.set_payload(BytesView{reinterpret_cast<const std::byte*>(name.data()),
                          name.size()});
  return v;
}

Value Value::packet(BytesView bytes) {
  Value v;
  v.kind_ = Kind::kPacket;
  v.set_payload(bytes);
  return v;
}

Value::Value(const Value& other) : kind_(other.kind_), small_(other.small_) {
  if (has_payload() && spilled())
    store_.heap = new Bytes(*other.store_.heap);
  else
    store_ = other.store_;
}

Value::Value(Value&& other) noexcept
    : kind_(other.kind_), small_(other.small_), store_(other.store_) {
  other.kind_ = Kind::kVoid;
  other.small_ = 0;
}

Value& Value::operator=(const Value& other) {
  if (this == &other) return *this;
  release();
  kind_ = other.kind_;
  small_ = other.small_;
  if (has_payload() && spilled())
    store_.heap = new Bytes(*other.store_.heap);
  else
    store_ = other.store_;
  return *this;
}

Value& Value::operator=(Value&& other) noexcept {
  if (this == &other) return *this;
  release();
  kind_ = other.kind_;
  small_ = other.small_;
  store_ = other.store_;
  other.kind_ = Kind::kVoid;
  other.small_ = 0;
  return *this;
}

Logic Value::as_logic() const {
  if (kind_ == Kind::kLogic) return store_.logic;
  raise(ErrorKind::kState, "Value is not Logic: " + str());
}

std::uint64_t Value::as_word() const {
  if (kind_ == Kind::kWord) return store_.word;
  raise(ErrorKind::kState, "Value is not Word: " + str());
}

BytesView Value::as_packet() const {
  if (kind_ == Kind::kPacket) return payload();
  raise(ErrorKind::kState, "Value is not Packet: " + str());
}

std::string_view Value::as_token() const {
  if (kind_ != Kind::kToken)
    raise(ErrorKind::kState, "Value is not Token: " + str());
  const BytesView p = payload();
  return {reinterpret_cast<const char*>(p.data()), p.size()};
}

bool Value::operator==(const Value& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kVoid: return true;
    case Kind::kLogic: return store_.logic == other.store_.logic;
    case Kind::kWord: return store_.word == other.store_.word;
    case Kind::kPacket:
    case Kind::kToken: {
      const BytesView a = payload();
      const BytesView b = other.payload();
      return a.size() == b.size() &&
             (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
    }
  }
  return false;
}

std::string Value::str() const {
  switch (kind_) {
    case Kind::kVoid: return "void";
    case Kind::kLogic: return std::string("logic:") + to_string(as_logic());
    case Kind::kWord: return "word:" + std::to_string(as_word());
    case Kind::kPacket:
      return "packet[" + std::to_string(payload().size()) + "]";
    case Kind::kToken: return "token:" + std::string(as_token());
  }
  return "?";
}

void Value::save(serial::OutArchive& ar) const {
  ar.put_varint(static_cast<std::uint64_t>(kind_));
  switch (kind_) {
    case Kind::kVoid: break;
    case Kind::kLogic: ar.put_u8(static_cast<std::uint8_t>(as_logic())); break;
    case Kind::kWord: ar.put_varint(as_word()); break;
    case Kind::kPacket: ar.put_bytes(payload()); break;
    case Kind::kToken: ar.put_string(as_token()); break;
  }
}

Value Value::load(serial::InArchive& ar) {
  const auto kind = static_cast<Kind>(ar.get_varint());
  switch (kind) {
    case Kind::kVoid: return Value{};
    case Kind::kLogic: return Value{static_cast<Logic>(ar.get_u8())};
    case Kind::kWord: return Value{ar.get_varint()};
    case Kind::kPacket: return Value::packet(ar.get_view(ar.get_varint()));
    case Kind::kToken: {
      const BytesView name = ar.get_view(ar.get_varint());
      return Value::token(
          {reinterpret_cast<const char*>(name.data()), name.size()});
    }
  }
  raise(ErrorKind::kSerialization, "unknown Value kind");
}

}  // namespace pia
