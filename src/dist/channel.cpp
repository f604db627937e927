#include "dist/channel.hpp"

#include <cstring>

#include "base/error.hpp"
#include "serial/archive.hpp"

namespace pia::dist {
namespace {

// Arena batch layout.  The header gap is sized for the worst case batch
// header (1 tag byte + a 5-byte u32 count varint); flush() right-aligns the
// real header into it.  Each message is preceded by a fixed-width 2-byte
// padded varint length, back-patched in place once the message is encoded —
// lengths ≥ 2^14 (rare giants) grow the prefix by shifting the message tail.
constexpr std::size_t kBatchHeadroom = 6;
constexpr std::size_t kLenPrefixBytes = 2;
constexpr std::size_t kPaddedLenMax = std::size_t{1} << (7 * kLenPrefixBytes);

}  // namespace

ChannelComponent::ChannelComponent(std::string name)
    : Component(std::move(name)) {
  // Remote events are accepted at whatever local time the proxy has reached;
  // their real timestamps travel inside the payload and are re-applied with
  // send_at, so the port is asynchronous.
  rx_ = add_input("rx", PortSync::kAsynchronous);
}

PortIndex ChannelComponent::add_split_net() {
  const auto index = static_cast<std::uint32_t>(hidden_ports_.size());
  const PortIndex port =
      add_inout("hidden" + std::to_string(index), PortSync::kAsynchronous);
  mutable_port(port).hidden = true;  // invisible to the designer (Fig. 2)
  hidden_ports_.push_back(port);
  return port;
}

PortIndex ChannelComponent::hidden_port(std::uint32_t net_index) const {
  PIA_REQUIRE(net_index < hidden_ports_.size(),
              "split net index out of range on " + name());
  return hidden_ports_[net_index];
}

Value ChannelComponent::encode_remote(std::uint32_t net_index,
                                      const Value& value) {
  // One scratch archive per subsystem thread: wrapping a remote event (a
  // per-delivery operation at word level) stays allocation-free — small
  // wrapped payloads land in Value's inline buffer.
  thread_local serial::OutArchive scratch;
  scratch.clear();
  scratch.put_varint(net_index);
  value.save(scratch);
  return Value::packet(scratch.bytes());
}

void ChannelComponent::on_receive(PortIndex port, const Value& value) {
  if (port == rx_) {
    // Remote traffic: decode and re-drive onto the local net piece at the
    // original timestamp (== this delivery's event time == local_time()).
    serial::InArchive ar(value.as_packet());
    const auto net_index = static_cast<std::uint32_t>(ar.get_varint());
    const Value payload = Value::load(ar);
    send_at(hidden_port(net_index), payload, local_time());
    return;
  }
  // Local traffic heard on a hidden port: forward across the channel.
  for (std::uint32_t i = 0; i < hidden_ports_.size(); ++i) {
    if (hidden_ports_[i] == port) {
      PIA_CHECK(outbound_ != nullptr,
                "channel component '" + name() + "' has no outbound hook");
      outbound_(i, value, local_time());
      return;
    }
  }
  raise(ErrorKind::kState,
        "value on unexpected port of channel component " + name());
}

// ---------------------------------------------------------------------------

ChannelEndpoint::ChannelEndpoint(std::string name, ChannelMode mode,
                                 transport::LinkPtr link,
                                 std::uint32_t origin_id)
    : name_(std::move(name)),
      mode_(mode),
      link_(std::move(link)),
      origin_id_(origin_id) {
  PIA_REQUIRE(link_ != nullptr, "channel endpoint without a link");
}

SendId ChannelEndpoint::send_event(std::uint32_t net_index,
                                   const Value& value, VirtualTime time) {
  const SendId id{.origin = origin_id_, .counter = next_send_counter_++};
  ++event_msgs_sent;
  // The peer will hold this event at `time` before it can declare anything
  // that accounts for it.
  peer_need = min(peer_need, time);
  send_message(EventMsg{
      .id = id, .net_index = net_index, .time = time, .value = value});
  output_log.push_back(OutputRecord{
      .id = id, .net_index = net_index, .time = time, .value = value});
  return id;
}

void ChannelEndpoint::send_message(const ChannelMessage& message) {
  if (peer_closed) return;  // nobody is listening any more
  Bytes& buf = arena_.storage();
  if (batch_count_ == 0) buf.assign(kBatchHeadroom, std::byte{0});
  const std::size_t prefix_at = buf.size();
  buf.resize(prefix_at + kLenPrefixBytes);
  encode_message_into(enc_, message);  // appends in place after the prefix
  const std::size_t len = buf.size() - prefix_at - kLenPrefixBytes;
  std::size_t prefix_bytes = kLenPrefixBytes;
  if (len < kPaddedLenMax) {
    serial::encode_padded_varint(buf.data() + prefix_at, kLenPrefixBytes,
                                 len);
  } else {
    std::byte enc[10];
    const std::size_t n = serial::encode_varint(enc, len);
    buf.insert(buf.begin() + static_cast<std::ptrdiff_t>(prefix_at +
                                                         kLenPrefixBytes),
               enc + kLenPrefixBytes, enc + n);
    std::memcpy(buf.data() + prefix_at, enc, kLenPrefixBytes);
    prefix_bytes = n;
  }
  if (batch_count_ == 0) first_payload_offset_ = prefix_at + prefix_bytes;
  ++batch_count_;
  // Counted at enqueue: a flush that fails mid-batch closes the channel, so
  // the counters stop mattering on the same path they could diverge on.
  if (!is_control_message(message)) ++msgs_sent;
  FlushGroup& hold = group();
  if (hold.depth == 0 || batch_count_ >= batch_limit_) {
    flush();
  } else if (!listed_) {
    listed_ = true;
    hold.dirty.push_back(this);
  }
}

void FlushGroup::release() {
  if (depth == 0 || --depth > 0) return;
  for (ChannelEndpoint* endpoint : dirty) {
    endpoint->listed_ = false;
    endpoint->flush();
  }
  dirty.clear();
}

void ChannelEndpoint::flush() {
  if (batch_count_ == 0) return;
  const std::uint32_t count = batch_count_;
  batch_count_ = 0;
  if (peer_closed) {
    arena_.reset();
    return;
  }
  Bytes& buf = arena_.storage();
  BytesView payload;
  if (count == 1) {
    // A lone message travels in the bare wire format: skip the header gap
    // and the length prefix.
    payload = BytesView{buf}.subspan(first_payload_offset_);
  } else {
    std::byte hdr[kBatchHeadroom];
    hdr[0] = std::byte{kBatchFrameTag};
    const std::size_t h = 1 + serial::encode_varint(hdr + 1, count);
    std::memcpy(buf.data() + (kBatchHeadroom - h), hdr, h);
    payload = BytesView{buf}.subspan(kBatchHeadroom - h);
  }
  try {
    link_->send(payload, count);
  } catch (const Error& e) {
    arena_.reset();
    if (e.kind() != ErrorKind::kTransport) throw;
    peer_closed = true;
    return;
  }
  arena_.end_epoch();
}

ChannelMessage ChannelEndpoint::take_inbound() {
  ChannelMessage message = std::move(inbound_.front());
  inbound_.pop_front();
  if (!is_control_message(message)) ++msgs_received;
  return message;
}

bool ChannelEndpoint::pull_frame() {
  if (link_->supports_recv_view()) {
    // Zero-copy receive: decode straight out of link-owned storage (a ring
    // segment or queue slot).  decode_frame copies message payloads out of
    // the frame, so the borrow can be released as soon as it returns.
    const auto view = link_->try_recv_view();
    if (!view) return false;
    note_arrival();
    decode_frame(*view, inbound_);
    link_->release_recv_view();
    return true;
  }
  auto raw = link_->try_recv();
  if (!raw) return false;
  note_arrival();
  decode_frame(*raw, inbound_);
  return true;
}

std::optional<ChannelMessage> ChannelEndpoint::poll() {
  if (inbound_.empty()) {
    if (!pull_frame()) {
      if (link_->closed()) peer_closed = true;
      return std::nullopt;
    }
  }
  return take_inbound();
}

std::optional<ChannelMessage> ChannelEndpoint::recv_for(
    std::chrono::milliseconds timeout) {
  if (inbound_.empty()) {
    auto raw = link_->recv_for(timeout);
    if (!raw) return std::nullopt;
    note_arrival();
    decode_frame(*raw, inbound_);
  }
  return take_inbound();
}

void ChannelEndpoint::prime_inbound() {
  if (peer_closed) return;
  if (!pull_frame() && link_->closed()) peer_closed = true;
}

void ChannelEndpoint::discard_pending() {
  batch_count_ = 0;
  arena_.reset();
  inbound_.clear();
}

void ChannelEndpoint::reset_grants() {
  granted_in = VirtualTime::zero();
  granted_in_seen = 0;
  granted_in_lookahead = VirtualTime::zero();
  granted_out = VirtualTime::zero();
  granted_out_seen = 0;
  request_outstanding = false;
  last_request_next = VirtualTime::infinity();
  last_request_grant = VirtualTime::infinity();
  peer_need = VirtualTime::zero();
}

void ChannelEndpoint::replace_link(transport::LinkPtr link) {
  PIA_REQUIRE(link != nullptr, "replace_link with a null link");
  link_ = std::move(link);
  // Buffered traffic belongs to the dead link's world: an un-flushed batch
  // or an undelivered decode must not leak onto the fresh connection.
  discard_pending();
  peer_closed = false;
  peer_down = false;
  liveness_armed = false;
  rejoin_verified = false;
  rejoin_token.reset();
}

}  // namespace pia::dist
