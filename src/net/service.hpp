#pragma once
// The flipsim sweep service: a resident daemon that keeps the ThreadPool
// workers — and their thread_local TrialArena scratch — warm across
// requests, so repeated sweeps skip process start-up, pool spawn, and the
// first-trial allocation ramp entirely.
//
//   client ──connect──▶ ingest thread ──RingBuffer──▶ runner thread
//                       (parse+validate,              (run_sweep, one
//                        fail fast)                    frame per cell)
//
// One request per connection, framed as in net/frame.hpp. The ingest
// thread accepts, reads the single request frame, parses and validates it
// through cli::resolve_sweep_request — the SAME layer the flipsim CLI uses,
// so a request the CLI would reject dies here with the identical message,
// before it can occupy the runner. Valid sweeps are enqueued on a bounded
// RingBuffer; a full ring answers `error server busy` instead of queueing
// unbounded work. The runner drains jobs in order and streams one
// `point <cell> <compact-json>` frame per grid cell as it completes
// (collect_points=false: O(1) result memory no matter the grid), then a
// final `done <json>` frame. See docs/SERVICE.md for the wire grammar.

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "cli/sweep.hpp"
#include "cli/wire.hpp"
#include "net/ring_buffer.hpp"

namespace flip::net {

struct ServiceOptions {
  std::uint16_t port = 0;        ///< 0 = kernel-assigned ephemeral port
  std::size_t threads = 0;       ///< worker override for requests that
                                 ///< leave threads unset (0 = the shared
                                 ///< pool, as SweepSpec::threads)
  std::size_t queue_capacity = 16;  ///< accepted-but-unstarted sweep cap
};

class SweepServer {
 public:
  explicit SweepServer(ServiceOptions options = {});
  ~SweepServer();

  SweepServer(const SweepServer&) = delete;
  SweepServer& operator=(const SweepServer&) = delete;

  /// Binds 127.0.0.1 and spawns the ingest + runner threads. False (with
  /// `error` set) when the port cannot be bound.
  [[nodiscard]] bool start(std::string& error);

  /// The bound port — the ephemeral one when options.port was 0. Valid
  /// after start() succeeds.
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Blocks until the server stops (shutdown command or stop()).
  void wait();

  /// Stops accepting, drains accepted jobs, joins both threads. Idempotent;
  /// the destructor calls it.
  void stop();

 private:
  struct Job {
    int fd = -1;  ///< connected client, owned by the job once enqueued
    cli::SweepSpec spec;
  };

  void ingest_loop();
  void runner_loop();
  void serve_connection(int fd);
  void run_job(Job job);

  ServiceOptions options_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  int wake_read_ = -1;   ///< self-pipe: stop() unblocks the ingest poll
  int wake_write_ = -1;
  RingBuffer<Job> queue_;
  std::thread ingest_;
  std::thread runner_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};
};

// --- client ---------------------------------------------------------------

/// Per-point callback: the grid cell index and the compact flipsim-sweep-v1
/// point JSON line the server rendered for it.
using PointLineSink =
    std::function<void(std::size_t cell, const std::string& line)>;

/// Client for a running SweepServer. Each call opens its own connection
/// (one request per connection), so a client object is trivially reusable
/// and copyable.
class SweepClient {
 public:
  explicit SweepClient(std::uint16_t port) : port_(port) {}

  /// Submits a sweep and streams the response: `on_line` fires once per
  /// grid cell, in grid order, as cells complete server-side. Returns the
  /// final `done` frame's JSON payload. Throws std::runtime_error on
  /// connection failure, a server `error` frame, or a malformed response.
  std::string run_sweep(const cli::SweepRequest& request,
                        const PointLineSink& on_line = {});

  /// True when the server answers the ping; false (with `error` set)
  /// otherwise. The readiness probe for scripts and tests.
  [[nodiscard]] bool ping(std::string& error);

  /// Asks the server to shut down after draining accepted work. True when
  /// the server acknowledged.
  [[nodiscard]] bool shutdown_server(std::string& error);

 private:
  std::uint16_t port_;
};

}  // namespace flip::net
