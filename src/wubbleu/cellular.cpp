#include "wubbleu/cellular.hpp"

#include "base/error.hpp"

namespace pia::wubbleu {

CellularAsic::CellularAsic(std::string name, TimingProfile downlink_timing,
                           VirtualTime airtime_per_byte,
                           RunLevel initial_level)
    : Component(std::move(name)),
      encoder_(downlink_timing),
      airtime_per_byte_(airtime_per_byte) {
  host_tx_ = add_input("host_tx");
  radio_tx_ = add_output("radio_tx");
  radio_rx_ = add_input("radio_rx");
  host_data_ = add_output("host_data");
  set_initial_runlevel(initial_level);
  declare_horizons();
}

VirtualTime CellularAsic::quiet_until(PortIndex) const {
  return VirtualTime::infinity();  // no timers: only input makes output
}

VirtualTime CellularAsic::min_latency(PortIndex in, PortIndex out) const {
  const bool causes = (in == radio_rx_ && out == host_data_) ||
                      (in == host_tx_ && out == radio_tx_);
  return causes ? VirtualTime::zero() : VirtualTime::infinity();
}

void CellularAsic::on_receive(PortIndex port, const Value& value) {
  if (port == host_tx_) {
    // Uplink: MAC-frame the request and put it on the air.  Requests are
    // small; they always travel as one framed packet.
    const BytesView payload = value.as_packet();
    advance(VirtualTime{airtime_per_byte_.ticks() *
                        static_cast<VirtualTime::rep>(payload.size())});
    send(radio_tx_, Value{framing::make_packet(0, true, payload)});
    ++frames_up_;
    return;
  }

  if (port == radio_rx_) {
    // Downlink: reassemble the radio frame stream; each completed payload
    // is rendered onto the host net at the current runlevel.
    auto complete = radio_decoder_.feed(value);
    if (!complete) return;
    bytes_down_ += complete->size();
    for (const auto& emission : encoder_.encode(*complete, runlevel())) {
      advance(emission.delay);
      send(host_data_, emission.value);
      ++host_emissions_;
    }
    return;
  }
  raise(ErrorKind::kState, "value on unexpected CellularAsic port");
}

bool CellularAsic::at_safe_point() const {
  return !radio_decoder_.mid_transfer();
}

void CellularAsic::save_state(serial::OutArchive& ar) const {
  radio_decoder_.save(ar);
  ar.put_varint(frames_up_);
  ar.put_varint(bytes_down_);
  ar.put_varint(host_emissions_);
}

void CellularAsic::restore_state(serial::InArchive& ar) {
  radio_decoder_.restore(ar);
  frames_up_ = ar.get_varint();
  bytes_down_ = ar.get_varint();
  host_emissions_ = ar.get_varint();
}

// ---------------------------------------------------------------------------

NicDma::NicDma(std::string name, proc::Memory& memory,
               std::uint32_t buffer_base, std::uint64_t bytes_per_cycle)
    : Component(std::move(name)),
      memory_(memory),
      buffer_base_(buffer_base),
      bytes_per_cycle_(bytes_per_cycle) {
  net_ = add_input("net");
  irq_ = add_output("irq");
}

NicDma::Completion NicDma::decode_completion(const Value& irq) {
  const std::uint64_t word = irq.as_word();
  return Completion{.address = static_cast<std::uint32_t>(word >> 24),
                    .length = static_cast<std::uint32_t>(word & 0xFFFFFF)};
}

void NicDma::on_receive(PortIndex port, const Value& value) {
  PIA_REQUIRE(port == net_, "value on unexpected NicDma port");
  ++net_events_;
  auto complete = decoder_.feed(value);
  if (!complete) return;

  // Burst the reassembled payload into host memory, charge bus occupancy
  // and raise the completion interrupt.
  const std::uint64_t cycles =
      (complete->size() + bytes_per_cycle_ - 1) / bytes_per_cycle_;
  advance(VirtualTime{static_cast<VirtualTime::rep>(cycles) * 10});
  memory_.dma_write(buffer_base_, *complete);
  ++transfers_;
  send(irq_, Value{(static_cast<std::uint64_t>(buffer_base_) << 24) |
                   static_cast<std::uint64_t>(complete->size())});
}

bool NicDma::at_safe_point() const { return !decoder_.mid_transfer(); }

void NicDma::save_state(serial::OutArchive& ar) const {
  decoder_.save(ar);
  ar.put_varint(transfers_);
  ar.put_varint(net_events_);
}

void NicDma::restore_state(serial::InArchive& ar) {
  decoder_.restore(ar);
  transfers_ = ar.get_varint();
  net_events_ = ar.get_varint();
}

}  // namespace pia::wubbleu
