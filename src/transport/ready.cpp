#include "transport/ready.hpp"

#include <fcntl.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/eventfd.h>
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <limits>
#include <mutex>
#include <vector>

#include "base/error.hpp"

namespace pia::transport {

int poll_until(std::span<pollfd> fds,
               std::chrono::steady_clock::time_point deadline) {
  using Clock = std::chrono::steady_clock;
  for (;;) {
    const Clock::time_point now = Clock::now();
    int pr = 0;
    if (deadline <= now) {
      // No time left: one non-blocking check.  This is the hot case (every
      // try_recv on a socket, every zero budget after a drained pulse), and
      // a plain poll costs less than ppoll for it.
      pr = ::poll(fds.data(), fds.size(), 0);
    } else {
      const std::chrono::nanoseconds remaining = deadline - now;
#ifdef __linux__
      // Linux ends every timed sleep up to the thread's timer slack late
      // (50 µs by default: half of a 100 µs release stamp).  Ask for 1 ns,
      // once per thread; the thread keeps it from then on.
      [[maybe_unused]] thread_local const int precise_timer =
          ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      const auto secs =
          std::chrono::duration_cast<std::chrono::seconds>(remaining);
      const timespec ts{.tv_sec = static_cast<time_t>(secs.count()),
                        .tv_nsec = static_cast<long>((remaining - secs).count())};
      pr = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
#else
      const auto ms = std::chrono::ceil<std::chrono::milliseconds>(remaining);
      pr = ::poll(fds.data(), fds.size(),
                  static_cast<int>(std::min<std::int64_t>(
                      ms.count(), std::numeric_limits<int>::max())));
#endif
    }
    if (pr > 0) return pr;
    // A signal is neither a wake nor a timeout: sleep out what remains.
    if (pr < 0 && errno != EINTR)
      raise(ErrorKind::kTransport, std::string("poll: ") + std::strerror(errno));
    // Re-reading the clock makes "0 means the deadline passed" hold whatever
    // the kernel's timer rounding.
    if (deadline <= now || Clock::now() >= deadline) return 0;
  }
}

ReadySignal::ReadySignal()
    : own_(std::make_unique<Doorbell>()), route_(own_.get()) {}

ReadySignal::ReadySignal(ReadySignalPtr parent, std::uint32_t index)
    : parent_(std::move(parent)), bit_(std::uint64_t{1} << (index % 64)) {
  auto& words = parent_->marks_;
  while (words.size() <= index / 64)
    words.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
  mark_ = words[index / 64].get();
}

namespace {

/// The calling thread's DeferredRings state: the scope depth and the
/// distinct bells owed a ring.
struct RingDeferral {
  int depth = 0;
  std::vector<Doorbell*> bells;
};

thread_local RingDeferral deferral;

}  // namespace

DeferredRings::DeferredRings() { ++deferral.depth; }

DeferredRings::~DeferredRings() {
  if (--deferral.depth > 0) return;
  // Outside every scope ring() rings at once and leaves the list alone.
  for (Doorbell* bell : deferral.bells) bell->ring();
  deferral.bells.clear();
}

bool Doorbell::defer_ring(Doorbell& bell) {
  if (deferral.depth == 0) return false;
  if (std::find(deferral.bells.begin(), deferral.bells.end(), &bell) ==
      deferral.bells.end())
    deferral.bells.push_back(&bell);
  return true;
}

void Doorbell::disarm() {
  // The arm was claimed: its notifier has rung the fd or is about to.
  if (!armed_.exchange(false)) ++owed_;
  if (owed_ > 0) owed_ -= std::min(owed_, consume());
}

namespace {

/// Bells returned by ended leases.  Heap-allocated and never destroyed, like
/// the bells it holds: a notifier may ring one during static destruction.
struct BellShelf {
  std::mutex mutex;
  std::vector<Doorbell*> free;
};

BellShelf& shelf() {
  static auto* const instance = new BellShelf;
  return *instance;
}

}  // namespace

DoorbellLease::DoorbellLease() {
  BellShelf& s = shelf();
  {
    const std::lock_guard<std::mutex> lock(s.mutex);
    if (!s.free.empty()) {
      bell_ = s.free.back();
      s.free.pop_back();
      return;
    }
  }
  bell_ = new Doorbell;
}

DoorbellLease::~DoorbellLease() {
  BellShelf& s = shelf();
  const std::lock_guard<std::mutex> lock(s.mutex);
  s.free.push_back(bell_);
}

#ifdef __linux__

Doorbell::Doorbell() {
  fds_[0] = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (fds_[0] < 0)
    raise(ErrorKind::kTransport,
          std::string("doorbell eventfd: ") + std::strerror(errno));
}

Doorbell::~Doorbell() {
  if (fds_[0] >= 0) ::close(fds_[0]);
  fds_[0] = -1;
}

void Doorbell::write_fd() {
  const std::uint64_t pulse = 1;
  // Only a notifier that claimed an arm rings, so the counter stays tiny;
  // any error means the signal is mid-destruction.
  [[maybe_unused]] const ssize_t n = ::write(fds_[0], &pulse, sizeof(pulse));
}

std::uint64_t Doorbell::consume() {
  std::uint64_t count = 0;
  for (;;) {
    const ssize_t n = ::read(fds_[0], &count, sizeof(count));
    if (n == sizeof(count)) return count;  // counter read resets it to zero
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return 0;
    if (n < 0 && errno == EINTR) continue;
    // Anything else (EBADF after a double close, EIO) means the wake
    // mechanism is broken — waiting on it would hang forever, so fail loud.
    raise(ErrorKind::kTransport,
          std::string("doorbell read: ") + std::strerror(errno));
  }
}

#else  // self-pipe fallback for non-Linux hosts

Doorbell::Doorbell() {
  if (::pipe(fds_) < 0)
    raise(ErrorKind::kTransport,
          std::string("doorbell pipe: ") + std::strerror(errno));
  // A silently-blocking pipe end would turn notify() into a deadlock and
  // a doorbell read into a hang, so flag-setting failures must not pass
  // unnoticed.
  for (const int fd : fds_) {
    const int fl = ::fcntl(fd, F_GETFL);
    if (fl < 0 || ::fcntl(fd, F_SETFL, fl | O_NONBLOCK) < 0 ||
        ::fcntl(fd, F_SETFD, FD_CLOEXEC) < 0) {
      const int saved = errno;
      for (int& open_fd : fds_) {
        if (open_fd >= 0) ::close(open_fd);
        open_fd = -1;
      }
      raise(ErrorKind::kTransport,
            std::string("doorbell fcntl: ") + std::strerror(saved));
    }
  }
}

Doorbell::~Doorbell() {
  for (int& fd : fds_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

void Doorbell::write_fd() {
  const char pulse = 1;
  // Only a notifier that claimed an arm rings, so the pipe never fills;
  // any error means the signal is mid-destruction.
  [[maybe_unused]] const ssize_t n = ::write(fds_[1], &pulse, 1);
}

std::uint64_t Doorbell::consume() {
  char sink[256];
  std::uint64_t count = 0;
  for (;;) {
    const ssize_t n = ::read(fds_[0], sink, sizeof(sink));
    if (n > 0) {
      count += static_cast<std::uint64_t>(n);  // one byte per ring
      continue;
    }
    if (n == 0) return count;  // write end closed mid-destruction
    if (errno == EAGAIN || errno == EWOULDBLOCK) return count;  // empty
    if (errno == EINTR) continue;
    // Anything else (EBADF after a double close, EIO) means the wake
    // mechanism is broken — waiting on it would hang forever, so fail loud.
    raise(ErrorKind::kTransport,
          std::string("doorbell read: ") + std::strerror(errno));
  }
}

#endif

}  // namespace pia::transport
