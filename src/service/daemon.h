#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "service/coordinator.h"
#include "service/spec.h"

/// \file daemon.h
/// The service's network face: a ServiceDaemon listens on a loopback TCP
/// port, reads one encoded SessionSpec per connection, hands it to its
/// ServiceCoordinator, and writes back one encoded ServiceReply. The blob
/// framing reuses the frame wire discipline — `[u32 LE len] [bytes]
/// [u32 LE crc32(bytes)]` — so a corrupted request dies to the same CRC
/// check a corrupted frame would, and a kServiceBusy rejection travels as
/// a well-formed kBusy reply, never a dropped connection.
///
/// request() is the matching client half: tft_client and the CI soak are
/// both this one call in a loop.

namespace tft::service {

class ServiceDaemon {
 public:
  /// Binds 127.0.0.1:`port` (0 = kernel-assigned, read back via port())
  /// and starts the accept loop. The coordinator is constructed from `cfg`
  /// and owned by the daemon.
  ServiceDaemon(const ServiceConfig& cfg, std::uint16_t port = 0);
  ~ServiceDaemon();  ///< stop accepting, drain the coordinator

  ServiceDaemon(const ServiceDaemon&) = delete;
  ServiceDaemon& operator=(const ServiceDaemon&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] ServiceCoordinator& coordinator() noexcept { return *coordinator_; }

  /// Stop accepting connections and drain in-flight sessions. Idempotent.
  /// A connection still waiting for its spec is woken and closed with a
  /// typed kClosed (a silent client cannot hold the drain); a connection
  /// whose spec arrived is served to its reply.
  void shutdown();

 private:
  void accept_loop();
  void serve_connection(int fd);
  /// Drop `fd` from the connections awaiting a spec (idempotent).
  void spec_received(int fd);

  std::unique_ptr<ServiceCoordinator> coordinator_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  bool stopped_ = false;
  std::mutex awaiting_mu_;
  std::vector<int> awaiting_spec_;  // fds whose handler is still in read_blob
  bool draining_ = false;           // guarded by awaiting_mu_
  std::thread acceptor_;            // last: it uses every member above
};

/// Client half: connect to 127.0.0.1:`port`, send `spec`, wait for the
/// reply (the call blocks for the whole session). Throws net::NetError on
/// connection or codec failure; a busy service is NOT an error — it comes
/// back as a reply with status kBusy.
[[nodiscard]] ServiceReply request(std::uint16_t port, const SessionSpec& spec);

/// request() with bounded exponential backoff on kBusy replies: up to
/// `retries` re-requests, sleeping backoff_ms, 2*backoff_ms, 4*... (capped
/// at 32x) between attempts. Returns the first non-kBusy reply, or the last
/// kBusy reply once retries are exhausted — the caller still sees status
/// kBusy and can exit accordingly. Only kBusy is retried: errors, including
/// a draining daemon's kError reply, surface immediately.
[[nodiscard]] ServiceReply request_with_retry(std::uint16_t port, const SessionSpec& spec,
                                              std::size_t retries, std::uint64_t backoff_ms);

}  // namespace tft::service
