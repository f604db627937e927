#include "wubbleu/server.hpp"

#include "base/error.hpp"

namespace pia::wubbleu {

BaseStation::BaseStation(std::string name, VirtualTime airtime_per_byte)
    : Component(std::move(name)), airtime_per_byte_(airtime_per_byte) {
  radio_rx_ = add_input("radio_rx");
  radio_tx_ = add_output("radio_tx");
  gw_tx_ = add_output("gw_tx");
  gw_rx_ = add_input("gw_rx");
}

void BaseStation::on_receive(PortIndex port, const Value& value) {
  if (port == radio_rx_) {
    // Uplink frame from the handheld: reassemble and hand to the gateway.
    auto complete = radio_decoder_.feed(value);
    if (!complete) return;
    ++frames_;
    advance(ticks(2000));  // demodulation + backhaul handoff
    send(gw_tx_, Value{*std::move(complete)});
    return;
  }
  if (port == gw_rx_) {
    // Response from the gateway: frame it and model the downlink airtime.
    const BytesView payload = value.as_packet();
    advance(VirtualTime{airtime_per_byte_.ticks() *
                        static_cast<VirtualTime::rep>(payload.size())});
    ++frames_;
    send(radio_tx_, Value{framing::make_packet(0, true, payload)});
    return;
  }
  raise(ErrorKind::kState, "value on unexpected BaseStation port");
}

bool BaseStation::at_safe_point() const {
  return !radio_decoder_.mid_transfer();
}

void BaseStation::save_state(serial::OutArchive& ar) const {
  radio_decoder_.save(ar);
  ar.put_varint(frames_);
}

void BaseStation::restore_state(serial::InArchive& ar) {
  radio_decoder_.restore(ar);
  frames_ = ar.get_varint();
}

// ---------------------------------------------------------------------------

WebGateway::WebGateway(std::string name, PageStore store,
                       proc::ProcessorProfile profile)
    : SoftwareComponent(std::move(name), std::move(profile)),
      store_(std::move(store)) {
  rx_ = add_input("rx");
  tx_ = add_output("tx");
}

void WebGateway::on_data(PortIndex port, const Value& value) {
  PIA_REQUIRE(port == rx_, "value on unexpected WebGateway port");
  const HttpRequest request = decode_request(value.as_packet());
  const HttpResponse& page = store_.get(request.url);
  // Request parsing + page lookup + response assembly on the server CPU.
  exec(/*alu=*/2000, /*loads=*/800, /*stores=*/400, /*branches=*/300);
  exec_cycles(page.body.size() / 16);  // streaming the body out of cache
  ++served_;
  send(tx_, Value{encode_response(page)});
}

void WebGateway::save_state(serial::OutArchive& ar) const {
  ar.put_varint(served_);
}

void WebGateway::restore_state(serial::InArchive& ar) {
  served_ = ar.get_varint();
}

}  // namespace pia::wubbleu
