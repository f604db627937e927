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
  kernel_fd_ |= endpoint->link().readable_fd() >= 0;
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
  kernel_fd_ = std::any_of(
      channels_.begin(), channels_.end(),
      [](const auto& c) { return c->link().readable_fd() >= 0; });
}

std::optional<Clock::time_point> ChannelSet::next_release() const {
  std::optional<Clock::time_point> earliest;
  for (const auto& c : channels_) {
    const auto due = c->link().next_ready_time();
    if (due && (!earliest || *due < *earliest)) earliest = due;
  }
  return earliest;
}

std::chrono::nanoseconds ChannelSet::prepare_wait(
    std::vector<pollfd>& fds, std::chrono::nanoseconds timeout) {
  // Frames held inside the fault decorator mature silently: clamp
  // the wait to the earliest reported release so they are picked up on
  // time regardless of how long the caller was willing to sleep.
  auto wait = std::max(timeout, std::chrono::nanoseconds::zero());
  if (const auto due = next_release()) {
    const std::chrono::nanoseconds until = *due - Clock::now();
    wait = std::min(wait, std::max(until, std::chrono::nanoseconds::zero()));
  }

  // Arm BEFORE the caller polls: a notify from here on rings the signal
  // fd.  A pulse already pending may belong to a frame that landed after
  // the caller's last queue inspection, so it is a wake, not noise: clamp
  // the wait to zero and leave the mark for the caller's next take().
  if (signal_->arm()) wait = std::chrono::nanoseconds::zero();

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
  const bool ready = transport::poll_until(fds, Clock::now() + wait) > 0;
  finish_wait();
  // Consume the mark here, before the caller's next drain inspects the
  // queues, so that drain's frames do not wake the following wait again.
  // A clamped timeout that expires is a wake too: the matured frame is now
  // receivable even though no fd fired.
  return take_signal() || ready || wait < timeout;
}

}  // namespace pia::dist
