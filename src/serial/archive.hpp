// Binary archives: the one serialization format used for both checkpoint
// images (paper §2.1.2) and channel wire messages (paper §2.2.1).
//
// Encoding rules:
//   * unsigned integers: LEB128 varint (checkpoints are dominated by small
//     counters; varint keeps images compact, which matters for the
//     incremental-checkpoint extension)
//   * signed integers: zigzag + varint
//   * bool: one byte
//   * double: 8 bytes little-endian IEEE bits
//   * string / Bytes: varint length + raw bytes
//   * containers: varint size + elements
//
// The format is explicitly little-endian on the wire so that heterogeneous
// Pia nodes interoperate.  Reads validate bounds and throw
// Error{kSerialization} on underflow — a truncated checkpoint must never be
// silently restored.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/bytes.hpp"
#include "base/error.hpp"
#include "base/ids.hpp"
#include "base/time.hpp"

namespace pia::serial {

/// Encode v as LEB128 into out[0..9]; returns the byte count (1–10).
inline std::size_t encode_varint(std::byte* out, std::uint64_t v) {
  std::size_t n = 0;
  while (v >= 0x80) {
    out[n++] = std::byte{static_cast<std::uint8_t>(v | 0x80)};
    v >>= 7;
  }
  out[n++] = std::byte{static_cast<std::uint8_t>(v)};
  return n;
}

/// Encode v as EXACTLY `width` LEB128 bytes by padding with redundant
/// continuation groups (high bits zero).  The decoder accepts redundant
/// encodings, so this lets a length prefix be reserved at a fixed width and
/// back-patched in place once the payload length is known — the heart of the
/// arena's single-pass batch encoding.  v must fit in 7*width bits.
inline void encode_padded_varint(std::byte* out, std::size_t width,
                                 std::uint64_t v) {
  for (std::size_t i = 0; i + 1 < width; ++i) {
    out[i] = std::byte{static_cast<std::uint8_t>((v & 0x7F) | 0x80)};
    v >>= 7;
  }
  out[width - 1] = std::byte{static_cast<std::uint8_t>(v & 0x7F)};
}

class OutArchive {
 public:
  OutArchive() = default;

  /// Arena-backed mode: append into an external buffer (e.g. a
  /// FrameArena's storage) instead of the archive's own.  The caller
  /// guarantees `external` outlives the archive.
  explicit OutArchive(Bytes& external) : buffer_(&external) {}

  OutArchive(const OutArchive&) = delete;
  OutArchive& operator=(const OutArchive&) = delete;
  OutArchive(OutArchive&& other) noexcept
      : own_(std::move(other.own_)),
        buffer_(other.buffer_ == &other.own_ ? &own_ : other.buffer_) {}
  OutArchive& operator=(OutArchive&& other) noexcept {
    if (this == &other) return *this;
    own_ = std::move(other.own_);
    buffer_ = other.buffer_ == &other.own_ ? &own_ : other.buffer_;
    return *this;
  }

  /// Take the encoded bytes out of the archive.
  [[nodiscard]] Bytes take() && { return std::move(*buffer_); }
  [[nodiscard]] const Bytes& bytes() const { return *buffer_; }
  [[nodiscard]] std::size_t size() const { return buffer_->size(); }

  /// Reset for reuse, keeping the allocation (scratch-archive pattern on
  /// the channel send path).
  void clear() { buffer_->clear(); }
  void reserve(std::size_t n) { buffer_->reserve(n); }

  void put_u8(std::uint8_t v) { buffer_->push_back(std::byte{v}); }

  void put_varint(std::uint64_t v) {
    while (v >= 0x80) {
      put_u8(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    put_u8(static_cast<std::uint8_t>(v));
  }

  void put_i64(std::int64_t v) {
    // zigzag
    put_varint((static_cast<std::uint64_t>(v) << 1) ^
               static_cast<std::uint64_t>(v >> 63));
  }

  void put_bool(bool v) { put_u8(v ? 1 : 0); }

  void put_double(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) put_u8(static_cast<std::uint8_t>(bits >> (8 * i)));
  }

  void put_raw(BytesView raw) {
    buffer_->insert(buffer_->end(), raw.begin(), raw.end());
  }

  void put_bytes(BytesView raw) {
    put_varint(raw.size());
    put_raw(raw);
  }

  void put_string(std::string_view s) {
    put_varint(s.size());
    const auto* p = reinterpret_cast<const std::byte*>(s.data());
    buffer_->insert(buffer_->end(), p, p + s.size());
  }

 private:
  Bytes own_;
  Bytes* buffer_ = &own_;
};

// InArchive is a borrowed-buffer reader: it never copies the backing bytes,
// so a receiver can decode a frame in place — straight out of a loopback
// queue slot — as long as the buffer outlives every view
// handed out (get_view, and any Value payloads still aliasing it).  Decoded
// messages copy payloads OUT of the frame (Value::load), so once decoding
// finishes the borrowed frame may be released.
class InArchive {
 public:
  explicit InArchive(BytesView data) : data_(data) {}

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool at_end() const { return remaining() == 0; }

  std::uint8_t get_u8() {
    if (pos_ >= data_.size())
      raise(ErrorKind::kSerialization, "archive underflow");
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  std::uint64_t get_varint() {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      if (shift > 63) raise(ErrorKind::kSerialization, "varint too long");
      const std::uint8_t b = get_u8();
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if (!(b & 0x80)) return v;
      shift += 7;
    }
  }

  std::int64_t get_i64() {
    const std::uint64_t z = get_varint();
    return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }

  bool get_bool() { return get_u8() != 0; }

  double get_double() {
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i)
      bits |= static_cast<std::uint64_t>(get_u8()) << (8 * i);
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  Bytes get_bytes() {
    const std::uint64_t n = get_varint();
    if (n > remaining())
      raise(ErrorKind::kSerialization, "bytes length exceeds archive");
    Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
              data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }

  std::string get_string() {
    const std::uint64_t n = get_varint();
    if (n > remaining())
      raise(ErrorKind::kSerialization, "string length exceeds archive");
    std::string out(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return out;
  }

  /// Zero-copy view of the next n bytes (valid while the backing buffer
  /// lives).  Batch decoding and Value::load use this to avoid temporaries.
  BytesView get_view(std::uint64_t n) {
    if (n > remaining())
      raise(ErrorKind::kSerialization, "view length exceeds archive");
    const BytesView out = data_.subspan(pos_, static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return out;
  }

 private:
  BytesView data_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Generic write/read overload set.  Component authors serialize state with
//   serial::write(ar, member);  member = serial::read<T>(ar);
// ---------------------------------------------------------------------------

inline void write(OutArchive& ar, bool v) { ar.put_bool(v); }
inline void write(OutArchive& ar, double v) { ar.put_double(v); }
inline void write(OutArchive& ar, const std::string& v) { ar.put_string(v); }
inline void write(OutArchive& ar, const Bytes& v) { ar.put_bytes(v); }
inline void write(OutArchive& ar, VirtualTime v) { ar.put_i64(v.ticks()); }

template <typename T>
  requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
void write(OutArchive& ar, T v) {
  if constexpr (std::is_signed_v<T>) ar.put_i64(static_cast<std::int64_t>(v));
  else ar.put_varint(static_cast<std::uint64_t>(v));
}

template <typename T>
  requires std::is_enum_v<T>
void write(OutArchive& ar, T v) {
  ar.put_varint(static_cast<std::uint64_t>(v));
}

template <typename Tag>
void write(OutArchive& ar, Id<Tag> id) {
  ar.put_varint(id.value());
}

template <typename T>
void write(OutArchive& ar, const std::vector<T>& v) {
  ar.put_varint(v.size());
  for (const auto& x : v) write(ar, x);
}

template <typename T>
void write(OutArchive& ar, const std::optional<T>& v) {
  ar.put_bool(v.has_value());
  if (v) write(ar, *v);
}

template <typename K, typename V>
void write(OutArchive& ar, const std::map<K, V>& m) {
  ar.put_varint(m.size());
  for (const auto& [k, v] : m) {
    write(ar, k);
    write(ar, v);
  }
}

template <typename A, typename B>
void write(OutArchive& ar, const std::pair<A, B>& p) {
  write(ar, p.first);
  write(ar, p.second);
}

template <typename T>
T read(InArchive& ar);

template <> inline bool read<bool>(InArchive& ar) { return ar.get_bool(); }
template <> inline double read<double>(InArchive& ar) { return ar.get_double(); }
template <> inline std::string read<std::string>(InArchive& ar) { return ar.get_string(); }
template <> inline Bytes read<Bytes>(InArchive& ar) { return ar.get_bytes(); }
template <> inline VirtualTime read<VirtualTime>(InArchive& ar) {
  return VirtualTime{ar.get_i64()};
}

template <typename T>
  requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
T read_integral(InArchive& ar) {
  if constexpr (std::is_signed_v<T>) return static_cast<T>(ar.get_i64());
  else return static_cast<T>(ar.get_varint());
}

template <> inline std::uint8_t read<std::uint8_t>(InArchive& ar) { return read_integral<std::uint8_t>(ar); }
template <> inline std::uint16_t read<std::uint16_t>(InArchive& ar) { return read_integral<std::uint16_t>(ar); }
template <> inline std::uint32_t read<std::uint32_t>(InArchive& ar) { return read_integral<std::uint32_t>(ar); }
template <> inline std::uint64_t read<std::uint64_t>(InArchive& ar) { return read_integral<std::uint64_t>(ar); }
template <> inline std::int8_t read<std::int8_t>(InArchive& ar) { return read_integral<std::int8_t>(ar); }
template <> inline std::int16_t read<std::int16_t>(InArchive& ar) { return read_integral<std::int16_t>(ar); }
template <> inline std::int32_t read<std::int32_t>(InArchive& ar) { return read_integral<std::int32_t>(ar); }
template <> inline std::int64_t read<std::int64_t>(InArchive& ar) { return read_integral<std::int64_t>(ar); }

template <typename T>
  requires std::is_enum_v<T>
T read_enum(InArchive& ar) {
  return static_cast<T>(ar.get_varint());
}

template <typename Tag>
Id<Tag> read_id(InArchive& ar) {
  return Id<Tag>{static_cast<typename Id<Tag>::underlying_type>(ar.get_varint())};
}

template <typename T>
std::vector<T> read_vector(InArchive& ar) {
  const std::uint64_t n = ar.get_varint();
  std::vector<T> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(read<T>(ar));
  return out;
}

template <typename T>
std::optional<T> read_optional(InArchive& ar) {
  if (!ar.get_bool()) return std::nullopt;
  return read<T>(ar);
}

template <typename K, typename V>
std::map<K, V> read_map(InArchive& ar) {
  const std::uint64_t n = ar.get_varint();
  std::map<K, V> out;
  for (std::uint64_t i = 0; i < n; ++i) {
    K k = read<K>(ar);
    V v = read<V>(ar);
    out.emplace(std::move(k), std::move(v));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Versioned section headers.  Checkpoint images carry a schema version per
// component so an old image is rejected loudly instead of misparsed.
// ---------------------------------------------------------------------------

void begin_section(OutArchive& ar, std::string_view name, std::uint32_t version);

/// Returns the stored version; throws if the name does not match.
std::uint32_t expect_section(InArchive& ar, std::string_view name);

}  // namespace pia::serial
