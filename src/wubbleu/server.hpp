// The server side of WubbleU: the base station terminating the cellular
// link and the web gateway that connects to the "Internet" (paper §4:
// "a simple cellular connection to a server which connects to the
// Internet").
#pragma once

#include "core/component.hpp"
#include "core/protocols.hpp"
#include "proc/software.hpp"
#include "wubbleu/page.hpp"

namespace pia::wubbleu {

/// Terminates the radio link: MAC frames from the handheld become requests
/// to the gateway; gateway responses are framed back onto the air.
class BaseStation final : public Component {
 public:
  BaseStation(std::string name, VirtualTime airtime_per_byte = ticks(500));

  void on_receive(PortIndex port, const Value& value) override;
  [[nodiscard]] bool at_safe_point() const override;

  void save_state(serial::OutArchive& ar) const override;
  void restore_state(serial::InArchive& ar) override;

  [[nodiscard]] std::uint64_t frames_relayed() const { return frames_; }

 private:
  VirtualTime airtime_per_byte_;
  TransferDecoder radio_decoder_;

  PortIndex radio_rx_;  // from the handheld's chip
  PortIndex radio_tx_;  // back to the chip
  PortIndex gw_tx_;     // to the gateway
  PortIndex gw_rx_;     // from the gateway

  std::uint64_t frames_ = 0;
};

/// The web gateway: a server-class processor looking pages up in its
/// PageStore (our stand-in for the Internet) and streaming them back.
class WebGateway final : public proc::SoftwareComponent {
 public:
  WebGateway(std::string name, PageStore store,
             proc::ProcessorProfile profile =
                 proc::ProcessorProfile::pentium_pro_200());

  void on_data(PortIndex port, const Value& value) override;

  void save_state(serial::OutArchive& ar) const override;
  void restore_state(serial::InArchive& ar) override;

  [[nodiscard]] std::uint64_t requests_served() const { return served_; }
  [[nodiscard]] const PageStore& store() const { return store_; }

 private:
  PageStore store_;
  std::uint64_t served_ = 0;
  PortIndex rx_;
  PortIndex tx_;
};

}  // namespace pia::wubbleu
