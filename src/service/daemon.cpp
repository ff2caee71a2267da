#include "service/daemon.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <list>
#include <mutex>
#include <thread>
#include <vector>

#include "net/error.h"
#include "net/frame.h"

namespace tft::service {

using net::NetError;
using net::NetErrorKind;

namespace {

[[noreturn]] void throw_errno(NetErrorKind kind, const char* what) {
  throw NetError(kind, std::string(what) + ": " + std::strerror(errno));
}

void write_all(int fd, const std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno(NetErrorKind::kClosed, "service write");
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

void read_exact(int fd, std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::read(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno(NetErrorKind::kClosed, "service read");
    }
    if (n == 0) {
      throw NetError(NetErrorKind::kClosed, "peer closed mid-blob");
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

/// Blob framing, the frame wire discipline applied to one byte string:
/// [u32 LE len] [bytes] [u32 LE crc32(bytes)].
void write_blob(int fd, const std::vector<std::uint8_t>& bytes) {
  std::vector<std::uint8_t> out;
  out.reserve(bytes.size() + 8);
  const auto len = static_cast<std::uint32_t>(bytes.size());
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
  out.insert(out.end(), bytes.begin(), bytes.end());
  const std::uint32_t crc = net::crc32(bytes);
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  write_all(fd, out.data(), out.size());
}

std::vector<std::uint8_t> read_blob(int fd) {
  std::uint8_t prefix[4];
  read_exact(fd, prefix, 4);
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len |= static_cast<std::uint32_t>(prefix[i]) << (8 * i);
  if (len > net::kMaxBodyBytes) {
    throw NetError(NetErrorKind::kCorrupt, "service blob length exceeds the frame body cap");
  }
  std::vector<std::uint8_t> bytes(len);
  if (len > 0) read_exact(fd, bytes.data(), len);
  std::uint8_t trailer[4];
  read_exact(fd, trailer, 4);
  std::uint32_t crc = 0;
  for (int i = 0; i < 4; ++i) crc |= static_cast<std::uint32_t>(trailer[i]) << (8 * i);
  if (crc != net::crc32(bytes)) {
    throw NetError(NetErrorKind::kCorrupt, "service blob failed its CRC");
  }
  return bytes;
}

}  // namespace

ServiceDaemon::ServiceDaemon(const ServiceConfig& cfg, std::uint16_t port)
    : coordinator_(std::make_unique<ServiceCoordinator>(cfg)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno(NetErrorKind::kSetup, "socket");
  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    throw_errno(NetErrorKind::kSetup, "bind 127.0.0.1");
  }
  if (::listen(listen_fd_, 64) < 0) throw_errno(NetErrorKind::kSetup, "listen");

  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len) < 0) {
    throw_errno(NetErrorKind::kSetup, "getsockname");
  }
  port_ = ntohs(addr.sin_port);

  acceptor_ = std::thread([this] { accept_loop(); });
}

ServiceDaemon::~ServiceDaemon() { shutdown(); }

void ServiceDaemon::shutdown() {
  if (stopped_) return;
  stopped_ = true;
  {
    // Wake every handler still blocked in read_blob for its spec: its read
    // fails at once with a typed kClosed. A client that connects and sends
    // nothing would otherwise hold the drain (the acceptor joins every
    // handler) forever. Connections accepted from here on are woken as they
    // are recorded.
    const std::lock_guard lock(awaiting_mu_);
    draining_ = true;
    for (const int fd : awaiting_spec_) (void)::shutdown(fd, SHUT_RD);
  }
  // Waking the acceptor: shutdown() fails accept(2) with EINVAL on Linux,
  // and the loop's stop check does the rest.
  (void)::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  (void)::close(listen_fd_);
  listen_fd_ = -1;
  coordinator_->drain();
}

void ServiceDaemon::accept_loop() {
  // One thread per connection: a session can run for seconds, and the soak
  // test's whole point is concurrent clients making concurrent sessions.
  // Finished handlers are joined as new connections arrive, so a long-lived
  // daemon holds only the stacks of connections still being served.
  struct Handler {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::list<Handler> handlers;  // stable addresses: each thread flags its own
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // shutdown() closed the listener out from under us
    }
    for (auto it = handlers.begin(); it != handlers.end();) {
      if (it->done.load(std::memory_order_acquire)) {
        it->thread.join();
        it = handlers.erase(it);
      } else {
        ++it;
      }
    }
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    {
      const std::lock_guard lock(awaiting_mu_);
      awaiting_spec_.push_back(fd);
      if (draining_) (void)::shutdown(fd, SHUT_RD);
    }
    Handler& h = handlers.emplace_back();
    h.thread = std::thread([this, fd, &h] {
      serve_connection(fd);
      spec_received(fd);  // before close: shutdown() must never see a reused fd
      (void)::close(fd);
      h.done.store(true, std::memory_order_release);
    });
  }
  for (auto& h : handlers) h.thread.join();
}

void ServiceDaemon::serve_connection(int fd) {
  ServiceReply reply;
  try {
    const std::vector<std::uint8_t> blob = read_blob(fd);
    spec_received(fd);
    const SessionSpec spec = decode_spec(blob);
    std::future<SessionOutcome> future;
    try {
      future = coordinator_->submit(spec);
    } catch (const NetError& e) {
      // Admission refusal is an answer, not a dropped connection. Two typed
      // refusals, distinguished so clients back off correctly: kServiceBusy
      // (capacity — retry later) travels as kBusy, while kClosed (the
      // service is draining for shutdown) travels as kError — retrying a
      // draining daemon is pointless.
      reply.status =
          e.kind() == NetErrorKind::kServiceBusy ? ReplyStatus::kBusy : ReplyStatus::kError;
      reply.error = e.what();
      write_blob(fd, encode_reply(reply));
      return;
    }
    reply = future.get().reply();
    write_blob(fd, encode_reply(reply));
  } catch (const std::exception& e) {
    // Best effort: if the failure left the stream writable, say what broke.
    reply = ServiceReply{};
    reply.status = ReplyStatus::kError;
    reply.error = e.what();
    try {
      write_blob(fd, encode_reply(reply));
    } catch (...) {
    }
  }
}

void ServiceDaemon::spec_received(int fd) {
  const std::lock_guard lock(awaiting_mu_);
  std::erase(awaiting_spec_, fd);
}

ServiceReply request(std::uint16_t port, const SessionSpec& spec) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno(NetErrorKind::kSetup, "socket");
  struct Closer {
    int fd;
    ~Closer() { (void)::close(fd); }
  } closer{fd};

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    throw_errno(NetErrorKind::kSetup, "connect 127.0.0.1");
  }
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  write_blob(fd, encode_spec(spec));
  return decode_reply(read_blob(fd));
}

ServiceReply request_with_retry(std::uint16_t port, const SessionSpec& spec,
                                std::size_t retries, std::uint64_t backoff_ms) {
  ServiceReply reply = request(port, spec);
  std::uint64_t delay = backoff_ms;
  for (std::size_t attempt = 0; attempt < retries && reply.status == ReplyStatus::kBusy;
       ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    // Bounded exponential: doubling capped at 32x the base, so a long retry
    // budget degrades to steady polling instead of hour-long sleeps.
    delay = std::min<std::uint64_t>(delay * 2, backoff_ms * 32);
    reply = request(port, spec);
  }
  return reply;
}

}  // namespace tft::service
