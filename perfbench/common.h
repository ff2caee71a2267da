#pragma once

// Shared pieces of the benchmark harness: the spec-file format that
// run.py writes, a monotonic clock, and a TCP client for tft_serviced with
// per-session deadlines (the library's own request() blocks forever on a
// hung daemon, and the benchmark must never hang).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/partition.h"
#include "net/frame.h"
#include "service/spec.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One line of a spec file: when the session is due (microseconds after
/// the schedule starts; ignored by closed-loop runs) and the spec itself.
struct ScheduledSpec {
  std::int64_t due_us = 0;
  tft::service::SessionSpec spec;
};

inline tft::ProtocolKind parse_protocol(const std::string& s) {
  for (const auto p : {tft::ProtocolKind::kUnrestricted, tft::ProtocolKind::kSimLow,
                       tft::ProtocolKind::kSimHigh, tft::ProtocolKind::kSimOblivious,
                       tft::ProtocolKind::kExact}) {
    if (s == tft::to_string(p)) return p;
  }
  throw std::runtime_error("unknown protocol '" + s + "'");
}

/// Format: `due_us protocol family n k seed param`, one spec per line.
inline std::vector<ScheduledSpec> read_specs(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read spec file " + path);
  std::vector<ScheduledSpec> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    ScheduledSpec s;
    std::string protocol, family;
    ls >> s.due_us >> protocol >> family >> s.spec.n >> s.spec.k >> s.spec.seed >> s.spec.param;
    if (!ls) throw std::runtime_error("malformed spec line: " + line);
    s.spec.protocol = parse_protocol(protocol);
    const auto fam = tft::service::parse_family(family);
    if (!fam) throw std::runtime_error("unknown family '" + family + "'");
    s.spec.family = *fam;
    out.push_back(s);
  }
  return out;
}

/// How one session ended, as the load generator saw it. The numeric values
/// are the `status` column of the results file run.py reads.
enum class Outcome : int {
  kTriangleFree = 0,
  kTriangle = 1,
  kBusy = 2,       ///< kBusy reply
  kError = 3,      ///< kError reply
  kIo = 4,         ///< connect/read/write failure or malformed reply
  kDeadline = 5,   ///< no reply before the session's deadline
  kNotSent = 6,    ///< never sent: its deadline passed before a thread was free
};

struct ClientResult {
  Outcome outcome = Outcome::kIo;
  tft::service::ServiceReply reply;
  std::string error;
};

namespace detail {

/// Waits for `events` on fd until `deadline`; false on timeout.
inline bool wait_fd(int fd, short events, Clock::time_point deadline) {
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now());
    if (left.count() <= 0) return false;
    pollfd pfd{fd, events, 0};
    const int r = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (r > 0) return true;
    if (r < 0 && errno != EINTR) return false;
  }
}

}  // namespace detail

/// One session against tft_serviced on 127.0.0.1:port, using the daemon's
/// blob framing `[u32 LE len] [bytes] [u32 LE crc32(bytes)]`. Never blocks
/// past `deadline`.
inline ClientResult request_until(std::uint16_t port, const tft::service::SessionSpec& spec,
                                  Clock::time_point deadline) {
  ClientResult res;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    res.error = "socket";
    return res;
  }
  struct Closer {
    int fd;
    ~Closer() { (void)::close(fd); }
  } closer{fd};
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (errno != EINPROGRESS) {
      res.error = "connect";
      return res;
    }
    if (!detail::wait_fd(fd, POLLOUT, deadline)) {
      res.outcome = Outcome::kDeadline;
      return res;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    (void)::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      res.error = "connect";
      return res;
    }
  }

  const std::vector<std::uint8_t> body = tft::service::encode_spec(spec);
  std::vector<std::uint8_t> out;
  const auto put_u32 = [&out](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  put_u32(static_cast<std::uint32_t>(body.size()));
  out.insert(out.end(), body.begin(), body.end());
  put_u32(tft::net::crc32(body));
  for (std::size_t off = 0; off < out.size();) {
    const ssize_t n = ::send(fd, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
      if (!detail::wait_fd(fd, POLLOUT, deadline)) {
        res.outcome = Outcome::kDeadline;
        return res;
      }
    } else {
      res.error = "send";
      return res;
    }
  }

  std::vector<std::uint8_t> in;
  std::size_t want = 4;
  for (;;) {
    if (in.size() >= 4 && want == 4) {
      std::uint32_t len = 0;
      for (int i = 0; i < 4; ++i) len |= static_cast<std::uint32_t>(in[i]) << (8 * i);
      if (len > tft::net::kMaxBodyBytes) {
        res.error = "reply length";
        return res;
      }
      want = 4 + static_cast<std::size_t>(len) + 4;
    }
    if (in.size() >= want && want > 4) break;
    std::uint8_t buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      in.insert(in.end(), buf, buf + n);
    } else if (n == 0) {
      res.error = "daemon closed the connection";
      return res;
    } else if (errno == EAGAIN || errno == EINTR) {
      if (!detail::wait_fd(fd, POLLIN, deadline)) {
        res.outcome = Outcome::kDeadline;
        return res;
      }
    } else {
      res.error = "recv";
      return res;
    }
  }
  const std::span<const std::uint8_t> reply_bytes(in.data() + 4, want - 8);
  std::uint32_t crc = 0;
  for (int i = 0; i < 4; ++i) crc |= static_cast<std::uint32_t>(in[want - 4 + i]) << (8 * i);
  if (crc != tft::net::crc32(reply_bytes)) {
    res.error = "reply CRC";
    return res;
  }
  try {
    res.reply = tft::service::decode_reply(reply_bytes);
  } catch (const std::exception& e) {
    res.error = e.what();
    return res;
  }
  switch (res.reply.status) {
    case tft::service::ReplyStatus::kTriangleFree: res.outcome = Outcome::kTriangleFree; break;
    case tft::service::ReplyStatus::kTriangle: res.outcome = Outcome::kTriangle; break;
    case tft::service::ReplyStatus::kBusy: res.outcome = Outcome::kBusy; break;
    case tft::service::ReplyStatus::kError: res.outcome = Outcome::kError; break;
  }
  res.error = res.reply.error;
  return res;
}

/// True iff every edge of t lies in some player's input, i.e. t is a
/// triangle of the regenerated instance.
inline bool is_triangle_of(const std::vector<tft::PlayerInput>& players, const tft::Triangle& t) {
  const auto has = [&](tft::Vertex u, tft::Vertex v) {
    for (const auto& p : players) {
      if (u < p.local.n() && v < p.local.n() && p.local.has_edge(u, v)) return true;
    }
    return false;
  };
  return t.a != t.b && t.b != t.c && t.a != t.c && has(t.a, t.b) && has(t.b, t.c) &&
         has(t.a, t.c);
}

}  // namespace perfbench
