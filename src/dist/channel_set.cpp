#include "dist/channel_set.hpp"

#include <poll.h>

#include <algorithm>

#include "base/error.hpp"

namespace pia::dist {

using Clock = std::chrono::steady_clock;

ChannelSet::ChannelSet()
    : signal_(std::make_shared<transport::ReadySignal>()) {}

void ChannelSet::add(std::unique_ptr<ChannelEndpoint> endpoint) {
  endpoint->link().set_ready_signal(signal_);
  channels_.push_back(std::move(endpoint));
}

ChannelEndpoint& ChannelSet::at(ChannelId id) {
  PIA_REQUIRE(id.valid() && id.value() < channels_.size(), "bad channel id");
  return *channels_[id.value()];
}

const ChannelEndpoint& ChannelSet::at(ChannelId id) const {
  PIA_REQUIRE(id.valid() && id.value() < channels_.size(), "bad channel id");
  return *channels_[id.value()];
}

void ChannelSet::replace_link(ChannelId id, transport::LinkPtr link) {
  ChannelEndpoint& endpoint = at(id);
  endpoint.replace_link(std::move(link));
  endpoint.link().set_ready_signal(signal_);
}

std::chrono::nanoseconds ChannelSet::prepare_wait(
    std::vector<pollfd>& fds, std::chrono::nanoseconds timeout) {
  // Frames parked inside the fault decorator mature silently: clamp
  // the wait to the earliest reported release so they are picked up on
  // time regardless of how long the caller was willing to sleep.
  const Clock::time_point now = Clock::now();
  auto wait = std::max(timeout, std::chrono::nanoseconds::zero());
  for (const auto& c : channels_) {
    if (const auto due = c->link().next_ready_time())
      wait = std::min(wait, std::max(std::chrono::nanoseconds(*due - now),
                                     std::chrono::nanoseconds::zero()));
  }

  // Drain stale pulses BEFORE building the poll set: a pulse racing in
  // after this point simply leaves the signal fd readable and the poll
  // returns immediately — a spurious wake, never a lost one.
  //
  // A pulse consumed HERE is also a wake, not noise: it may belong to a
  // frame that landed after the caller's last queue inspection, and eating
  // it silently would stall that frame for the full idle timeout.  Clamp
  // the wait to zero so the caller re-inspects at once; at worst the frame
  // was already consumed and the caller pays one empty re-slice.
  if (signal_->drain()) wait = std::chrono::nanoseconds::zero();

  fds.push_back(pollfd{.fd = signal_->fd(), .events = POLLIN, .revents = 0});
  for (const auto& c : channels_) {
    const int fd = c->link().readable_fd();
    if (fd >= 0)
      fds.push_back(pollfd{.fd = fd, .events = POLLIN, .revents = 0});
  }
  return wait;
}

bool ChannelSet::wait_any(std::chrono::nanoseconds timeout) {
  // Allocating the poll set per call is fine: this is the idle path.
  std::vector<pollfd> fds;
  fds.reserve(channels_.size() + 1);
  const auto wait = prepare_wait(fds, timeout);
  // A clamped timeout that expires is a wake too: the matured frame is now
  // receivable even though no fd fired.
  return transport::poll_until(fds, Clock::now() + wait) > 0 ||
         wait < timeout;
}

}  // namespace pia::dist
