// The cellular communication chip and its host-side DMA receiver (paper §4,
// Fig. 6).
//
// "The cellular connection is controlled by an ASIC which transfers packets
// to the system through DMA.  This chip is our candidate for remote
// operation."
//
// CellularAsic sits between the handheld CPU and the base station:
//   * uplink: HTTP request packets from the CPU ("host_tx") go out over the
//     air ("radio_tx") after MAC framing and airtime;
//   * downlink: responses from the base station ("radio_rx") are rendered
//     onto the host data net ("host_data") at the ASIC's CURRENT RUNLEVEL —
//     word passage (4-byte words) or packet passage (1 KB packets).  This
//     net is the one that gets split across subsystems when the chip runs
//     remotely, so the runlevel directly controls Internet bandwidth —
//     Table 1's experiment.
//
// NicDma is the handheld side of the DMA path: it reassembles whatever
// detail level the ASIC used, lands the bytes in CPU memory as a DMA burst
// and raises a completion interrupt.
#pragma once

#include "core/component.hpp"
#include "core/protocols.hpp"
#include "proc/memory.hpp"
#include "proc/timing.hpp"

namespace pia::wubbleu {

class CellularAsic final : public Component {
 public:
  CellularAsic(std::string name, TimingProfile downlink_timing,
               VirtualTime airtime_per_byte = ticks(500),
               RunLevel initial_level = runlevels::kPacket);

  void on_receive(PortIndex port, const Value& value) override;
  [[nodiscard]] bool at_safe_point() const override;

  /// Output horizons: host data only after radio input, the uplink only
  /// after a host request.
  [[nodiscard]] VirtualTime quiet_until(PortIndex out) const override;
  [[nodiscard]] VirtualTime min_latency(PortIndex in,
                                        PortIndex out) const override;

  void save_state(serial::OutArchive& ar) const override;
  void restore_state(serial::InArchive& ar) override;

  [[nodiscard]] std::uint64_t frames_up() const { return frames_up_; }
  [[nodiscard]] std::uint64_t bytes_down() const { return bytes_down_; }
  [[nodiscard]] std::uint64_t host_emissions() const {
    return host_emissions_;
  }

 private:
  TransferEncoder encoder_;
  TransferDecoder radio_decoder_;
  VirtualTime airtime_per_byte_;

  PortIndex host_tx_;    // CPU -> chip (requests)
  PortIndex radio_tx_;   // chip -> base station
  PortIndex radio_rx_;   // base station -> chip
  PortIndex host_data_;  // chip -> NicDma (THE split candidate)

  std::uint64_t frames_up_ = 0;
  std::uint64_t bytes_down_ = 0;
  std::uint64_t host_emissions_ = 0;
};

class NicDma final : public Component {
 public:
  /// `memory` is the handheld CPU's memory; bursts land at `buffer_base`.
  NicDma(std::string name, proc::Memory& memory, std::uint32_t buffer_base,
         std::uint64_t bytes_per_cycle = 4);

  void on_receive(PortIndex port, const Value& value) override;
  [[nodiscard]] bool at_safe_point() const override;

  void save_state(serial::OutArchive& ar) const override;
  void restore_state(serial::InArchive& ar) override;

  struct Completion {
    std::uint32_t address;
    std::uint32_t length;
  };
  [[nodiscard]] static Completion decode_completion(const Value& irq);

  [[nodiscard]] std::uint64_t transfers() const { return transfers_; }
  [[nodiscard]] std::uint64_t net_events() const { return net_events_; }

 private:
  proc::Memory& memory_;
  std::uint32_t buffer_base_;
  std::uint64_t bytes_per_cycle_;
  TransferDecoder decoder_;

  PortIndex net_;  // from the ASIC's host_data (possibly via a channel)
  PortIndex irq_;  // completion interrupt to the CPU

  std::uint64_t transfers_ = 0;
  std::uint64_t net_events_ = 0;
};

}  // namespace pia::wubbleu
