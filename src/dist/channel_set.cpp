#include "dist/channel_set.hpp"

#include <poll.h>

#include <algorithm>

#include "base/error.hpp"

namespace pia::dist {

using Clock = std::chrono::steady_clock;

ChannelSet::ChannelSet()
    : signal_(std::make_shared<transport::ReadySignal>()) {}

namespace {

bool has_kernel_fd(const transport::Link& link) {
  std::vector<pollfd> fds;
  link.poll_fds(fds);
  return !fds.empty();
}

}  // namespace

void ChannelSet::add(std::unique_ptr<ChannelEndpoint> endpoint) {
  endpoint->join_flush_group(flush_);
  channels_.push_back(std::move(endpoint));
  attach(static_cast<std::uint32_t>(channels_.size() - 1));
}

void ChannelSet::attach(std::uint32_t i) {
  transport::Link& link = channels_[i]->link();
  auto member = std::make_shared<transport::ReadySignal>(signal_, i);
  link.set_ready_signal(member);
  const bool fd = has_kernel_fd(link);
  kernel_fd_ |= fd;
  // A link that kept no copy of its signal can never notify it.
  const bool polled = fd || member.use_count() == 1;
  const auto at = std::lower_bound(polled_.begin(), polled_.end(), i);
  const bool listed = at != polled_.end() && *at == i;
  if (polled && !listed) polled_.insert(at, i);
  if (!polled && listed) polled_.erase(at);
  // Frames the link queued before it had the signal marked nothing.  The
  // mark sends the next drain there without waking anyone: a fresh set's
  // first wait still sleeps.
  if (!polled) signal_->mark(i);
}

void ChannelSet::release_flush() {
  const transport::DeferredRings rings;
  flush_.release();
}

ChannelEndpoint& ChannelSet::at(ChannelId id) {
  PIA_REQUIRE(id.valid() && id.value() < channels_.size(), "bad channel id");
  return *channels_[id.value()];
}

void ChannelSet::replace_link(ChannelId id, transport::LinkPtr link) {
  ChannelEndpoint& endpoint = at(id);
  endpoint.replace_link(std::move(link));
  attach(id.value());
  kernel_fd_ = std::any_of(
      channels_.begin(), channels_.end(),
      [](const auto& c) { return has_kernel_fd(c->link()); });
}

std::optional<Clock::time_point> ChannelSet::next_release() const {
  std::optional<Clock::time_point> earliest;
  for (const auto& c : channels_) {
    const auto due = c->link().next_ready_time();
    if (due && (!earliest || *due < *earliest)) earliest = due;
  }
  return earliest;
}

bool ChannelSet::prepare_wait(transport::Doorbell& bell,
                              std::vector<pollfd>& fds) {
  // Route first (the caller armed the bell already): from here on a notify
  // rings `bell`, so one the mark read below misses wakes the poll.
  signal_->route_to(bell);
  for (const auto& c : channels_) c->link().poll_fds(fds);
  // A pulse already pending may belong to a frame that landed after the
  // caller's last queue inspection, so it is a wake, not noise: the caller
  // must not sleep, and the mark stays for its next take().
  return signal_->pending();
}

std::chrono::nanoseconds ChannelSet::wait_budget(
    std::chrono::nanoseconds timeout) const {
  auto wait = std::max(timeout, std::chrono::nanoseconds::zero());
  if (const auto due = next_release()) {
    const std::chrono::nanoseconds until = *due - Clock::now();
    wait = std::min(wait, std::max(until, std::chrono::nanoseconds::zero()));
  }
  return wait;
}

bool ChannelSet::wait_any(std::chrono::nanoseconds timeout) {
  // Frames held inside the fault decorator mature silently: clamp the wait
  // to the earliest reported release so they are picked up on time
  // regardless of how long the caller was willing to sleep.
  auto wait = wait_budget(timeout);
  transport::Doorbell& bell = signal_->bell();
  // Allocating the poll set per call is fine: this is the idle path.
  std::vector<pollfd> fds;
  fds.reserve(channels_.size() + 1);
  fds.push_back(pollfd{.fd = bell.fd(), .events = POLLIN, .revents = 0});
  bell.arm();
  if (prepare_wait(bell, fds)) wait = std::chrono::nanoseconds::zero();
  const bool ready = transport::poll_until(fds, Clock::now() + wait) > 0;
  bell.disarm();
  // Consume the mark here, before the caller's next drain inspects the
  // queues, so that drain's frames do not wake the following wait again.
  // A clamped timeout that expires is a wake too: the matured frame is now
  // receivable even though no fd fired.
  return take_signal() || ready || wait < timeout;
}

}  // namespace pia::dist
