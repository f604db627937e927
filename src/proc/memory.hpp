// Processor memory that a DMA engine bursts into (paper §4, Fig. 6).
//
// WubbleU's NicDma lands each reassembled HTTP response in the handheld
// CPU's memory as one burst at a fixed buffer base, then raises a
// completion interrupt; the CPU's handler copies the bytes back out.  The
// burst is atomic at the engine's local time, and the interrupt is what
// orders it against the CPU, so the memory itself keeps no timing.
#pragma once

#include <cstdint>
#include <vector>

#include "base/bytes.hpp"
#include "serial/archive.hpp"

namespace pia::proc {

class Memory {
 public:
  explicit Memory(std::size_t size_bytes);

  /// Bulk access; a range past the end raises Error.
  void dma_write(std::uint32_t addr, BytesView data);
  [[nodiscard]] Bytes dma_read(std::uint32_t addr, std::size_t len) const;

  void save(serial::OutArchive& ar) const;
  /// Raises kSerialization on an image of another section version.
  void restore(serial::InArchive& ar);

 private:
  std::vector<std::uint8_t> data_;
};

}  // namespace pia::proc
