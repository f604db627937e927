#include "transport/tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <future>

#include "base/error.hpp"
#include "base/log.hpp"
#include "base/rng.hpp"
#include "transport/frame.hpp"

namespace pia::transport {
namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void raise_errno(const std::string& what) {
  raise(ErrorKind::kTransport, what + ": " + std::strerror(errno));
}

class TcpLink final : public Link {
 public:
  explicit TcpLink(int fd) : fd_(fd) {
    const int one = 1;
    // Word-level co-simulation sends thousands of tiny messages; Nagle
    // would serialize them behind ACKs and distort every timing number.
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  ~TcpLink() override { close(); }

  void send(BytesView frame, std::uint32_t message_count = 1) override {
    if (fd_ < 0) raise(ErrorKind::kTransport, "send on closed tcp link");
    encode_frame_into(frame_scratch_, frame);
    std::size_t off = 0;
    while (off < frame_scratch_.size()) {
      const ssize_t n = ::send(fd_, frame_scratch_.data() + off,
                               frame_scratch_.size() - off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        raise_errno("tcp send");
      }
      off += static_cast<std::size_t>(n);
    }
    stats_.count_send(message_count, frame.size());
  }

  // A deadline already passed makes recv_impl a single non-blocking pass.
  std::optional<Bytes> try_recv() override {
    return recv_impl(Clock::time_point::min());
  }

  std::optional<Bytes> recv_for(std::chrono::milliseconds timeout) override {
    return recv_impl(Clock::now() + timeout);
  }

  void close() override {
    if (fd_ >= 0) {
      ::shutdown(fd_, SHUT_RDWR);
      ::close(fd_);
      fd_ = -1;
    }
  }

  // A dead fd alone is not "closed": complete frames may still sit in the
  // decoder and must be drained first.  A *partial* frame left behind by a
  // peer that died mid-send can never complete, though — counting it as
  // open would make pollers spin on the residue forever.
  bool closed() const override {
    return fd_ < 0 && !decoder_.has_complete_frame();
  }

  LinkStats stats() const override { return stats_.snapshot(); }

  std::string describe() const override { return "tcp"; }

  // The socket fd doubles as the readiness source: data and EOF both make
  // it readable.  Complete frames never linger in the decoder across an
  // idle period (every drain pass pops until empty), so fd readiness alone
  // is a complete wake condition.
  int readable_fd() const override { return fd_; }

 private:
  std::optional<Bytes> recv_impl(Clock::time_point deadline) {
    if (auto msg = pop()) return msg;
    for (;;) {
      if (fd_ < 0) return std::nullopt;
      pollfd pfd{.fd = fd_, .events = POLLIN, .revents = 0};
      if (poll_until({&pfd, 1}, deadline) == 0) return std::nullopt;

      std::byte chunk[16384];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN) continue;
        raise_errno("tcp recv");
      }
      if (n == 0) {  // peer closed
        ::close(fd_);
        fd_ = -1;
        if (const std::size_t residue = decoder_.truncated_residue())
          PIA_WARN("tcp link closed mid-frame: " << residue
                   << " trailing bytes form no complete frame (truncated)");
        return pop();
      }
      decoder_.feed(BytesView{chunk, static_cast<std::size_t>(n)});
      if (auto msg = pop()) return msg;
      if (Clock::now() >= deadline) return std::nullopt;
    }
  }

  std::optional<Bytes> pop() {
    auto msg = decoder_.next();
    if (msg) stats_.count_recv(msg->size());
    return msg;
  }

  int fd_;
  FrameDecoder decoder_;
  Bytes frame_scratch_;  // reused PIAF frame assembly buffer
  // A sender and a receiver thread may share this endpoint, and stats() is
  // read without any lock (metrics collection): counters are atomic.
  AtomicLinkStats stats_;
};

}  // namespace

TcpListener::TcpListener(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) raise_errno("socket");
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0)
    raise_errno("bind");
  if (::listen(fd_, 16) < 0) raise_errno("listen");

  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0)
    raise_errno("getsockname");
  port_ = ntohs(addr.sin_port);
}

TcpListener::~TcpListener() { close(); }

LinkPtr TcpListener::accept() {
  if (fd_ < 0) raise(ErrorKind::kTransport, "accept on closed listener");
  const int conn = ::accept(fd_, nullptr, nullptr);
  if (conn < 0) raise_errno("accept");
  return std::make_unique<TcpLink>(conn);
}

void TcpListener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

LinkPtr tcp_connect(std::uint16_t port, std::chrono::milliseconds deadline) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);

  // The listener may still be racing to bind — or be a whole node mid
  // restart.  Retry with jittered exponential backoff until the deadline.
  const auto give_up_at = std::chrono::steady_clock::now() + deadline;
  Rng jitter(static_cast<std::uint64_t>(
                 std::chrono::steady_clock::now().time_since_epoch().count()) ^
             (static_cast<std::uint64_t>(port) << 48));
  std::chrono::microseconds backoff(1000);
  constexpr std::chrono::microseconds kBackoffCap(128000);
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) raise_errno("socket");
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0)
      return std::make_unique<TcpLink>(fd);
    // Capture the connect failure before close() gets a chance to clobber
    // errno with its own (successful or not) result.
    const int connect_errno = errno;
    ::close(fd);
    if (std::chrono::steady_clock::now() >= give_up_at) {
      errno = connect_errno;
      raise_errno("connect");
    }
    // Sleep a uniform draw from [backoff/2, backoff]: desynchronizes
    // reconnect storms without stretching the expected wait much.
    const auto half = backoff.count() / 2;
    const std::chrono::microseconds pause(
        half + static_cast<std::int64_t>(
                   jitter.below(static_cast<std::uint64_t>(half) + 1)));
    poll_until({}, std::chrono::steady_clock::now() + pause);
    backoff = std::min(backoff * 2, kBackoffCap);
  }
}

LinkPair connect_tcp_pair(TcpListener& listener) {
  auto client = std::async(std::launch::async,
                           [&] { return tcp_connect(listener.port()); });
  LinkPair pair;
  try {
    pair.a = listener.accept();
  } catch (...) {
    // Join the client attempt before unwinding: left to the future's
    // destructor, a failed accept would silently block for the client's
    // full connect backoff.  Closing the listener makes the pending
    // connect fail fast instead of retrying against a live port.
    listener.close();
    try {
      client.get();
    } catch (...) {
    }
    throw;
  }
  pair.b = client.get();
  return pair;
}

}  // namespace pia::transport
