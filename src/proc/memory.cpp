#include "proc/memory.hpp"

#include "base/error.hpp"

namespace pia::proc {
namespace {

// Version 1 images carried synchronous-address marks and read times after
// the bytes; restoring one would misread them as the next section.
constexpr std::uint32_t kImageVersion = 2;

}  // namespace

Memory::Memory(std::size_t size_bytes) : data_(size_bytes, 0) {
  PIA_REQUIRE(size_bytes > 0, "zero-size memory");
}

void Memory::dma_write(std::uint32_t addr, BytesView bytes) {
  PIA_REQUIRE(addr + bytes.size() <= data_.size(), "DMA burst out of range");
  for (std::size_t i = 0; i < bytes.size(); ++i)
    data_[addr + i] = static_cast<std::uint8_t>(bytes[i]);
}

Bytes Memory::dma_read(std::uint32_t addr, std::size_t len) const {
  PIA_REQUIRE(addr + len <= data_.size(), "DMA read out of range");
  Bytes out(len);
  for (std::size_t i = 0; i < len; ++i)
    out[i] = static_cast<std::byte>(data_[addr + i]);
  return out;
}

void Memory::save(serial::OutArchive& ar) const {
  serial::begin_section(ar, "pia.memory", kImageVersion);
  ar.put_bytes(BytesView{reinterpret_cast<const std::byte*>(data_.data()),
                         data_.size()});
}

void Memory::restore(serial::InArchive& ar) {
  const std::uint32_t version = serial::expect_section(ar, "pia.memory");
  if (version != kImageVersion)
    raise(ErrorKind::kSerialization,
          "unsupported memory image version " + std::to_string(version));
  const Bytes bytes = ar.get_bytes();
  PIA_REQUIRE(bytes.size() == data_.size(), "memory image size mismatch");
  for (std::size_t i = 0; i < bytes.size(); ++i)
    data_[i] = static_cast<std::uint8_t>(bytes[i]);
}

}  // namespace pia::proc
