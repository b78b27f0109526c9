#include "src/service/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <thread>

#include "src/service/service.hpp"
#include "src/service/wire.hpp"
#include "src/support/error.hpp"

namespace automap {

namespace {

using Clock = std::chrono::steady_clock;

/// Outcome of one deadline-bounded I/O step.
enum class Io {
  kOk,
  kClosed,   ///< peer EOF/reset — normal end of a connection
  kTimeout,  ///< deadline exceeded — slow or stalled peer
  kStopped,  ///< server shutting down
};

}  // namespace

void require_free_socket(const std::string& socket_path) {
  const sockaddr_un addr = unix_socket_address(socket_path);
  // Probe before replacing: unconditionally unlinking would let a second
  // `serve` silently hijack a running daemon's socket — existing clients
  // would keep talking to the old daemon while new ones reach the
  // usurper, each with a different job table. Only a *dead* socket file
  // (connect refused) may be replaced.
  std::error_code ec;
  if (!std::filesystem::exists(socket_path, ec)) return;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return;
  const bool live = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                              sizeof(addr)) == 0;
  ::close(fd);
  if (live)
    throw Error("socket " + socket_path +
                " is in use by a running daemon (stop it first, or pass "
                "a different --socket)");
}

struct ServiceServer::Connection {
  std::thread thread;
  std::atomic<bool> done{false};
};

ServiceServer::ServiceServer(MappingService& service, std::string socket_path,
                             ServerConfig config)
    : service_(service),
      socket_path_(std::move(socket_path)),
      config_(config) {
  require_free_socket(socket_path_);
  const sockaddr_un addr = unix_socket_address(socket_path_);
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw Error("cannot create a socket for " + socket_path_ + ": " +
                std::strerror(errno));
  ::unlink(socket_path_.c_str());  // replace the stale socket file
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("cannot bind " + socket_path_ + ": " + reason);
  }
  if (::listen(listen_fd_, 64) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(socket_path_.c_str());
    throw Error("cannot listen on " + socket_path_ + ": " + reason);
  }
}

ServiceServer::~ServiceServer() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  ::unlink(socket_path_.c_str());
}

bool ServiceServer::stopping() const {
  return stop_.load() || service_.shutdown_requested();
}

void ServiceServer::serve() {
  std::vector<std::unique_ptr<Connection>> connections;
  while (!stopping()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    // Short timeout: the loop re-checks the shutdown flags ~5x/second.
    const int ready = ::poll(&pfd, 1, 200);
    // Reap finished connection threads each tick, so a long-lived daemon
    // holds threads proportional to *live* connections, not to history.
    connections.erase(
        std::remove_if(connections.begin(), connections.end(),
                       [](const std::unique_ptr<Connection>& connection) {
                         if (!connection->done.load()) return false;
                         connection->thread.join();
                         return true;
                       }),
        connections.end());
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    auto connection = std::make_unique<Connection>();
    Connection* raw = connection.get();
    raw->thread = std::thread([this, fd, raw] {
      handle_connection(fd);
      raw->done.store(true);
    });
    connections.push_back(std::move(connection));
  }
  for (const std::unique_ptr<Connection>& connection : connections)
    connection->thread.join();
}

void ServiceServer::handle_connection(int fd) {
  // Non-blocking plus poll-with-deadline: every read/write below returns
  // to wait_ready on EAGAIN, so a stalled peer can never park this thread
  // past its deadline (a *blocking* send could stall indefinitely against
  // a peer that stops reading).
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);

  constexpr Clock::time_point kNoDeadline = Clock::time_point::max();

  // Polls in <=200ms slices until fd is ready for `events`, the deadline
  // passes, or the server starts stopping — so idle connections wake for
  // shutdown instead of pinning serve() in its join loop.
  const auto wait_ready = [&](short events, Clock::time_point deadline) {
    for (;;) {
      if (stopping()) return Io::kStopped;
      int slice = 200;
      if (deadline != kNoDeadline) {
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - Clock::now())
                .count();
        if (left <= 0) return Io::kTimeout;
        slice = static_cast<int>(std::min<long long>(left, 200));
      }
      pollfd pfd{fd, events, 0};
      const int ready = ::poll(&pfd, 1, slice);
      if (ready < 0 && errno == EINTR) continue;
      if (ready < 0) return Io::kClosed;
      if (ready == 0) continue;
      // Readiness for reads includes HUP/ERR: the read() observes EOF and
      // reports kClosed with whatever buffered bytes remained.
      if (events == POLLIN) return Io::kOk;
      if ((pfd.revents & POLLOUT) != 0) return Io::kOk;
      return Io::kClosed;
    }
  };

  const auto read_exact = [&](char* out, std::size_t n,
                              Clock::time_point deadline) {
    std::size_t got = 0;
    while (got < n) {
      const ssize_t r = ::read(fd, out + got, n - got);
      if (r > 0) {
        got += static_cast<std::size_t>(r);
        continue;
      }
      if (r == 0) return Io::kClosed;
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) return Io::kClosed;
      if (const Io status = wait_ready(POLLIN, deadline);
          status != Io::kOk)
        return status;
    }
    return Io::kOk;
  };

  const auto write_all = [&](std::string_view data,
                             Clock::time_point deadline) {
    std::size_t sent = 0;
    while (sent < data.size()) {
      // MSG_NOSIGNAL: a client that disconnected mid-response must
      // surface as EPIPE on this connection's thread, not as a
      // process-wide SIGPIPE that kills the daemon (and every other job
      // with it).
      const ssize_t w = ::send(fd, data.data() + sent, data.size() - sent,
                               MSG_NOSIGNAL);
      if (w > 0) {
        sent += static_cast<std::size_t>(w);
        continue;
      }
      if (w < 0 && errno == EINTR) continue;
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (const Io status = wait_ready(POLLOUT, deadline);
            status != Io::kOk)
          return status;
        continue;
      }
      return Io::kClosed;  // EPIPE/ECONNRESET: peer gone, drop frame
    }
    return Io::kOk;
  };

  // The handshake cap mirrors the service's request limit: an oversize
  // frame gets a structured error response, then the connection closes
  // (its remaining payload bytes cannot be resynchronized).
  const std::size_t max_frame = kDefaultMaxFrameBytes;
  // A frame step that does not finish ends the connection; one that runs
  // out of time counts as an I/O timeout.
  const auto frame_failed = [&](Io status) {
    if (status == Io::kTimeout) service_.note_io_timeout();
    return status != Io::kOk;
  };
  for (;;) {
    // Idle phase: wait for the next request to *start*. A peer that holds
    // the connection open without sending is reaped after idle_timeout_ms.
    const Clock::time_point idle_deadline =
        config_.idle_timeout_ms > 0
            ? Clock::now() +
                  std::chrono::milliseconds(config_.idle_timeout_ms)
            : kNoDeadline;
    if (const Io status = wait_ready(POLLIN, idle_deadline);
        status != Io::kOk) {
      if (status == Io::kTimeout) service_.note_idle_reaped();
      break;
    }
    // Frame phase: once a request starts, its header, payload, and the
    // response write must all finish within io_timeout_ms.
    const Clock::time_point frame_deadline =
        config_.io_timeout_ms > 0
            ? Clock::now() + std::chrono::milliseconds(config_.io_timeout_ms)
            : kNoDeadline;
    char header[kFrameHeaderBytes];
    if (frame_failed(read_exact(header, sizeof(header), frame_deadline)))
      break;
    const std::size_t length =
        *decode_frame_length({header, sizeof(header)});
    if (length > max_frame) {
      write_all(encode_frame(wire_error(
                    "too_large",
                    "frame of " + std::to_string(length) +
                        " bytes exceeds the transport limit")),
                frame_deadline);
      break;
    }
    std::string payload(length, '\0');
    if (frame_failed(read_exact(payload.data(), length, frame_deadline)))
      break;
    if (frame_failed(write_all(encode_frame(service_.handle(payload)),
                               frame_deadline)))
      break;
    if (service_.shutdown_requested()) break;
  }
  ::close(fd);
}

}  // namespace automap
