// Signal values carried by nets.
//
// Pia renders the same logical communication at several detail levels
// (paper §2.1.3): a transfer can appear as individual bus wires toggling
// (Logic), as a word placed on a bus (Word), as a 1 KB packet (Packet) or as
// a whole high-level transaction (Token).  The Value type is the union of
// those representations; which one a component emits depends on its current
// runlevel.
//
// Values sit inside every queued Event, so their footprint and allocation
// behavior are on the scheduler's hot path.  Storage is a 24-byte tagged
// union with a small-buffer path: Logic and Word are always inline, and
// Packet/Token payloads up to kInlineCapacity bytes live in the object
// itself — only larger payloads touch the heap.  Word-level channel traffic
// (a wrapped word is ~a dozen bytes) therefore never allocates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "base/bytes.hpp"
#include "serial/archive.hpp"

namespace pia {

/// Four-state logic for wire-level detail.
enum class Logic : std::uint8_t {
  kLow = 0,
  kHigh = 1,
  kUnknown = 2,   // X
  kHighZ = 3,     // Z
};

[[nodiscard]] const char* to_string(Logic logic);

class Value {
 public:
  enum class Kind : std::uint8_t { kVoid, kLogic, kWord, kPacket, kToken };

  /// Packet/Token payloads at most this long are stored inline.
  static constexpr std::size_t kInlineCapacity = 14;

  Value() = default;
  /* implicit */ Value(Logic logic) : kind_(Kind::kLogic) {
    store_.logic = logic;
  }
  /* implicit */ Value(std::uint64_t word) : kind_(Kind::kWord) {
    store_.word = word;
  }
  /* implicit */ Value(Bytes packet);
  /// Named high-level transaction (e.g. "DMA_COMPLETE").
  static Value token(std::string_view name);
  /// Packet built from a view — inline when small, one copy either way.
  static Value packet(BytesView bytes);

  Value(const Value& other);
  Value(Value&& other) noexcept;
  Value& operator=(const Value& other);
  Value& operator=(Value&& other) noexcept;
  ~Value() { release(); }

  [[nodiscard]] Kind kind() const { return kind_; }

  [[nodiscard]] bool is_void() const { return kind_ == Kind::kVoid; }

  [[nodiscard]] Logic as_logic() const;
  [[nodiscard]] std::uint64_t as_word() const;
  /// Views into the value — valid while this Value is alive and unmodified.
  [[nodiscard]] BytesView as_packet() const;
  [[nodiscard]] std::string_view as_token() const;

  [[nodiscard]] std::string str() const;

  bool operator==(const Value& other) const;

  void save(serial::OutArchive& ar) const;
  static Value load(serial::InArchive& ar);

 private:
  // small_ holds the inline payload length for kPacket/kToken, or kSpilled
  // when the payload lives in *store_.heap.  Unused for other kinds.
  static constexpr std::uint8_t kSpilled = 0xFF;

  [[nodiscard]] bool has_payload() const {
    return kind_ == Kind::kPacket || kind_ == Kind::kToken;
  }
  [[nodiscard]] bool spilled() const { return small_ == kSpilled; }
  [[nodiscard]] BytesView payload() const {
    return spilled() ? BytesView{*store_.heap}
                     : BytesView{store_.inline_bytes, small_};
  }
  void set_payload(BytesView bytes);
  void adopt_payload(Bytes&& bytes);
  void release() {
    if (has_payload() && spilled()) delete store_.heap;
  }

  Kind kind_ = Kind::kVoid;
  std::uint8_t small_ = 0;
  union Store {
    Logic logic;
    std::uint64_t word;
    std::byte inline_bytes[kInlineCapacity];
    Bytes* heap;
  } store_{};
};

static_assert(sizeof(Value) == 24, "Value small-buffer layout regressed");

}  // namespace pia
