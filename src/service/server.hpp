#pragma once

// Unix-domain-socket front end for MappingService.
//
// One frame in, one frame out (wire.hpp framing), any number of frames
// per connection. The accept loop polls with a short timeout so a
// `shutdown` request — or SIGINT/SIGTERM via `stop()` — is honored within
// a fraction of a second; per-connection handler threads are joined
// before serve() returns (finished ones are reaped as the loop runs, so a
// long-lived daemon does not accumulate dead threads). Oversize frames
// are answered with a structured `too_large` error before the connection
// closes, never silently dropped.
//
// Slow-client defense: all per-connection I/O is poll-based with two
// deadlines. `io_timeout_ms` bounds each *frame* — once the first header
// byte of a request arrives, the rest of the header, the payload, and the
// response write must all complete within it, so a slow-loris peer
// dribbling one byte a minute costs one dropped connection, not a hung
// thread. `idle_timeout_ms` bounds the gap *between* frames on a kept-open
// connection; an idle peer is reaped (connection closed, counted) without
// affecting the service. Both also wake on stop/shutdown, so lingering
// idle connections never delay daemon exit.

#include <atomic>
#include <memory>
#include <string>
#include <vector>

namespace automap {

class MappingService;

/// Throws Error when `socket_path` cannot name a Unix socket, or when a
/// running daemon listens on it. A dead socket file (a crashed daemon's
/// leftover, which refuses connections) passes. `serve` checks this before
/// it opens its store; the ServiceServer constructor checks it again.
void require_free_socket(const std::string& socket_path);

struct ServerConfig {
  /// Per-frame I/O deadline in milliseconds: header-remainder + payload
  /// read + response write. 0 = unbounded (trusted-client mode).
  int io_timeout_ms = 10000;
  /// Between-frames idle deadline in milliseconds; 0 = unbounded.
  int idle_timeout_ms = 60000;
};

class ServiceServer {
 public:
  /// Binds `socket_path` (an existing stale socket file is replaced).
  /// Throws Error when require_free_socket refuses the path or it cannot
  /// be bound.
  ServiceServer(MappingService& service, std::string socket_path,
                ServerConfig config = {});
  ~ServiceServer();

  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  /// Accepts and serves connections until the service reports
  /// shutdown_requested() or stop() is called. Blocks.
  void serve();

  /// Signal-safe stop flag (call from a signal handler).
  void stop() { stop_.store(true); }

  [[nodiscard]] const std::string& socket_path() const {
    return socket_path_;
  }

 private:
  struct Connection;

  void handle_connection(int fd);
  /// True when the serve loop should wind down (stop() or a shutdown op).
  [[nodiscard]] bool stopping() const;

  MappingService& service_;
  std::string socket_path_;
  ServerConfig config_;
  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
};

}  // namespace automap
