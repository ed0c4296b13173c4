// flipbench — the repo benchmark program. One process runs one workload:
// set-up and warm-up, then a timed closed loop of ops whose every output is
// checked, with the plain single-threaded baseline of the same op run
// between batches. It prints one JSON object that perfbench/run.py turns
// into the benchmark's result line. perfbench/README.md documents the
// workloads and metrics.
//
//   flipbench --workload mc_sweep --seed 1 --seconds 20
//   flipbench --workload surrogate_cells --seed 1 --setup-only
//   flipbench_traced --workload daemon_small --seed 1 --seconds 20
//       --trace-out trace.json
//
// The traced build (flipbench_traced) additionally records spans around
// every call into the library and, after the workload, runs the per-layer
// probes that produce the layer metrics.

#include <sched.h>
#include <sys/socket.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cli/report.hpp"
#include "cli/sweep.hpp"
#include "cli/wire.hpp"
#include "core/params.hpp"
#include "net/frame.hpp"
#include "net/service.hpp"
#include "sim/surrogate_engine.hpp"
#include "simd/simd.hpp"
#include "trace.hpp"
#include "util/json_writer.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/registry.hpp"
#include "workload/scenarios.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using perfbench::Span;

// Taken during static initialisation, before main: the set-up clock starts
// as close to process start as the program itself can observe.
const Clock::time_point g_process_start = Clock::now();

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return std::nan("");
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

/// Peak resident set of this process image (VmHWM). getrusage's
/// ru_maxrss is not used: it carries over the peak of the process that
/// exec'd this one.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return std::nan("");
}

/// Strips the two nondeterministic trailing keys of a flipsim-sweep-v1
/// point line (cli/report.hpp: byte comparisons truncate there).
std::string without_timing(const std::string& line) {
  const std::size_t cut = line.find("\"trial_seconds\"");
  return cut == std::string::npos ? line : line.substr(0, cut);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool setup_only = false;
  bool tiny = false;          ///< self-test sizes
  std::string inject;         ///< name of the output check to feed a wrong
                              ///< expected value (self-test)
  std::string trace_out;      ///< traced binary: where to write the spans
};

/// Ops of the timed window and the outcome of checking each.
struct OpLog {
  std::vector<double> ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void check(bool ok, const std::string& what) {
    if (ok) return;
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
};

// --- workloads --------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Process-level set-up before the first op: registry, pools, server.
  virtual void start() = 0;
  /// Runs one batch of ops (one run_sweep call of many trials for
  /// mc_sweep, passes side by side otherwise), appending each op's
  /// latency to `log.ms`. With `check` set, each op's output is also
  /// checked and counted in `log.attempted` / `log.failed`.
  virtual void run_batch(OpLog& log, bool check) = 0;
  /// Batches per warm-up window.
  [[nodiscard]] virtual std::size_t window_batches() const { return 1; }
  /// Untimed, before the timed window: computes what the checks compare
  /// against.
  virtual void prepare() {}
  /// Runs the plain single-threaded baseline of the op (once per client)
  /// and appends each one's time (ms). The timed loop interleaves these
  /// between batches, so baseline and ops sample the same stretch of
  /// machine time.
  virtual void baseline_ops(std::vector<double>& ms) = 0;
  /// Untimed, after the timed window: checks that need the baseline.
  virtual void finish() {}
  /// Failures found outside the ops (e.g. a baseline that disagrees with
  /// the op it is a baseline of).
  std::vector<std::string> check_errors;
  /// The check names --inject accepts for this workload.
  [[nodiscard]] virtual std::vector<std::string> checks() const = 0;
  [[nodiscard]] virtual std::string describe() const = 0;
};

flip::ScenarioRegistry& registry() { return flip::ScenarioRegistry::instance(); }

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool outcomes_equal(const flip::TrialOutcome& a, const flip::TrialOutcome& b) {
  return a.success == b.success && same_bits(a.rounds, b.rounds) &&
         same_bits(a.messages, b.messages) &&
         same_bits(a.correct_fraction, b.correct_fraction) &&
         same_bits(a.convergence_round, b.convergence_round) &&
         a.delivered == b.delivered && a.dropped == b.dropped &&
         a.erased == b.erased && a.flipped == b.flipped;
}

// --- lanes side by side ----------------------------------------------------

/// Pins the calling thread, and the threads it starts, to one CPU of its
/// affinity set for the object's lifetime: the `k`-th, modulo the set's
/// size. The request path is strictly sequential (client, ingest, runner,
/// client), so one CPU is all a lane uses; on a shared VM each hand-off to
/// another vCPU costs a hypervisor wake-up of 0.1-1.5 ms that moves with
/// other tenants' load and swamped the request path's own costs.
class PinnedCpu {
 public:
  explicit PinnedCpu(std::size_t k = 0) {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    const int count = CPU_COUNT(&saved_);
    if (count == 0) return;
    int skip = static_cast<int>(k % static_cast<std::size_t>(count));
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &saved_) || skip-- > 0) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
      return;
    }
  }
  ~PinnedCpu() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinnedCpu(const PinnedCpu&) = delete;
  PinnedCpu& operator=(const PinnedCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// Runs `fn(k)` for k in [0, lanes) on threads of its own, side by side,
/// lane k pinned as PinnedCpu(k) when `pin` is set, and waits for all of
/// them. The first exception a lane throws is rethrown here.
template <typename Fn>
void side_by_side(std::size_t lanes, bool pin, Fn&& fn) {
  std::vector<std::exception_ptr> errors(lanes);
  std::vector<std::thread> threads;
  threads.reserve(lanes);
  for (std::size_t k = 0; k < lanes; ++k) {
    threads.emplace_back([&, k] {
      try {
        std::optional<PinnedCpu> pinned;
        if (pin) pinned.emplace(k);
        fn(k);
      } catch (...) {
        errors[k] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

// mc_sweep -------------------------------------------------------------------
//
// cli::run_sweep over `broadcast` at n = 4096, 4 workers, shards 1. An op
// is one run_sweep call of 16 trials. The sweep runs a registry entry that
// forwards to `broadcast` and records each TrialFn call's time and
// outcome, so every trial's output is checked.
//
// A single trial is not the op: the 4 vCPUs of a shared box differ in
// speed by up to ~25% at any moment, so trial times have a mode per vCPU
// speed (~200 ms and ~250 ms on one run), and their median jumped between
// the modes as the number of fast vCPUs changed from run to run. A call's
// time averages over its workers and has one mode.

struct TrialRecord {
  double ms = 0.0;
  flip::TrialOutcome outcome;
};

// One slot per trial index of the current run_sweep call: each index is
// written by exactly one worker, and read only after run_sweep returns.
std::vector<TrialRecord> g_trial_log;
std::int64_t g_trial_parent = -1;  // span of the run_sweep call (traced)
std::uint64_t g_trial_op_base = 0;  // op id of the call's trial 0

constexpr const char* kTimedBroadcast = "perfbench_broadcast";

void register_timed_broadcast() {
  if (registry().contains(kTimedBroadcast)) return;
  flip::ScenarioInfo info = *registry().find("broadcast");
  info.name = kTimedBroadcast;
  info.summary = "broadcast, with each trial timed by the benchmark";
  registry().add(std::move(info), [](const flip::ScenarioConfig& config) {
    flip::TrialFn inner = registry().make("broadcast", config);
    return flip::TrialFn(
        [inner](std::uint64_t seed, std::size_t trial) {
          Span span("sim.trial", g_trial_op_base + trial, g_trial_parent);
          const auto start = Clock::now();
          flip::TrialOutcome outcome = inner(seed, trial);
          span.set_work(outcome.messages);
          if (trial < g_trial_log.size()) {
            g_trial_log[trial] = TrialRecord{ms_since(start), outcome};
          }
          return outcome;
        });
  });
}

class McSweep final : public Workload {
 public:
  explicit McSweep(const Options& o)
      : opt_(o), seeds_(o.seed ^ 0x6d635f7377656570ULL),
        n_(o.tiny ? 512 : 4096), trials_(o.tiny ? 8 : 16) {}

  void start() override {
    register_timed_broadcast();
    (void)flip::ThreadPool::sized(kWorkers);
  }

  void run_batch(OpLog& log, bool check) override {
    flip::cli::SweepSpec spec;
    spec.scenario = kTimedBroadcast;
    spec.ns = {n_};
    spec.epss = {0.2};
    spec.channels = {"bsc"};
    spec.trials = trials_;
    spec.seed = seeds_();
    spec.threads = kWorkers;
    spec.shards = 1;
    g_trial_log.assign(trials_, TrialRecord{});
    g_trial_op_base = batch_ * trials_;
    {
      Span span("cli.run_sweep", batch_);
      g_trial_parent = span.id();
      const auto start = Clock::now();
      (void)flip::cli::run_sweep(spec);
      log.ms.push_back(ms_since(start));
      span.set_work(static_cast<double>(trials_));
    }
    ++batch_;
    if (!check) return;
    ++log.attempted;
    std::size_t unconserved = 0;
    std::size_t unsuccessful = 0;
    for (const TrialRecord& t : g_trial_log) {
      const flip::TrialOutcome& o = t.outcome;
      std::uint64_t accounted = o.delivered + o.dropped + o.erased;
      if (opt_.inject == "conservation") ++accounted;
      const bool expect_success = opt_.inject != "success";
      unconserved += static_cast<std::uint64_t>(o.messages) != accounted;
      unsuccessful += o.success != expect_success;
    }
    log.check(unconserved == 0 && unsuccessful == 0,
              std::to_string(unconserved) +
                  " trials with messages != delivered + dropped + erased, " +
                  std::to_string(unsuccessful) +
                  " without consensus on the source bit");
  }

  void prepare() override {
    flip::ScenarioOverrides o;
    o.n = n_;
    o.eps = 0.2;
    o.channel = "bsc";
    alone_ = registry().make("broadcast", o);
    alone_seed_ = seeds_();
  }

  // The baseline: the same 16 trials as plain calls, no sweep and no pool,
  // on 4 threads side by side with 4 trials each; the time is the call's.
  void baseline_ops(std::vector<double>& ms) override {
    const std::size_t per_thread = trials_ / kWorkers;
    const std::size_t first = alone_trial_;
    alone_trial_ += trials_;
    const auto start = Clock::now();
    side_by_side(kWorkers, false, [&](std::size_t k) {
      for (std::size_t t = 0; t < per_thread; ++t) {
        (void)alone_(alone_seed_, first + k * per_thread + t);
      }
    });
    ms.push_back(ms_since(start));
  }

  std::vector<std::string> checks() const override {
    return {"conservation", "success"};
  }
  std::string describe() const override {
    return "op = one cli::run_sweep call of " + std::to_string(trials_) +
           " broadcast trials (n=" + std::to_string(n_) +
           ", eps 0.2, bsc, complete graph) on " + std::to_string(kWorkers) +
           " workers, shards 1";
  }

 private:
  static constexpr std::size_t kWorkers = 4;
  Options opt_;
  flip::SplitMix64 seeds_;
  std::size_t n_;
  std::size_t trials_;
  std::uint64_t batch_ = 0;
  flip::TrialFn alone_;
  std::uint64_t alone_seed_ = 0;
  std::size_t alone_trial_ = 0;
};

// daemon_small ---------------------------------------------------------------
//
// Four lanes side by side, each an in-process SweepServer on an ephemeral
// loopback port and one closed-loop SweepClient, one connection per
// request. A lane's server threads and its client thread are pinned to one
// CPU of their own. The requests are a stratified draw from the seed, so
// every seed sees the same mix of scenarios, trial counts, eps cells and
// n strata. One op is one lane's pass over all of them: single requests
// differ in cost by more than 10x, so their median sat between modes and
// moved with the seed's draw, while a pass holds every kind of request in
// a fixed ratio. The median over four lanes, like the four surrogate_cells
// clients, does not move with the vCPU one lane lands on.
//
// Requests leave `threads` unset and the server's worker override is 1,
// so every request runs inline on the runner thread. (With the override
// at 0 an unset request runs on the shared pool, and a 2-trial request
// pays pool wake-ups on top of the fixed per-request costs.)
constexpr std::size_t kServerThreads = 1;

std::vector<flip::cli::SweepRequest> daemon_requests(std::uint64_t seed,
                                                     bool tiny) {
  // {scenario, channel}; majority_churn needs n >= 64 (its initial set is
  // max(64, n/16) agents), so it runs at the top of the band.
  const std::pair<const char*, const char*> kinds[] = {
      {"broadcast_small", ""},
      {"broadcast", "heterogeneous"},
      {"majority_churn", ""},
      {"boost", ""},
      {"broadcast_dynamic_rewire", ""},
  };
  // A request's cost grows about 2.5x from eps 0.3 to 0.2 and about 4x
  // from n 16 to 64, so the cells are not drawn: every eps set of 1-3
  // cells (each single eps, each pair, all three) appears with both trial
  // counts, and each such combo has a fixed stratum of [16, 64] with n
  // uniform within it. The seed draws n within the strata, the request
  // seeds and the order, and every seed's pass costs the same.
  const char* const kEpsSets[] = {"0.2",      "0.25",      "0.3",
                                  "0.2,0.25", "0.25,0.3",  "0.2,0.3",
                                  "0.2,0.25,0.3"};
  constexpr std::size_t kSets = std::size(kEpsSets);
  constexpr std::size_t kCombos = 2 * kSets;  // x trials in {1, 2}
  flip::SplitMix64 rng(seed ^ 0x6461656d6f6eULL);
  std::vector<flip::cli::SweepRequest> out;
  for (const auto& [scenario, channel] : kinds) {
    for (std::size_t c = 0; c < (tiny ? 2 : kCombos); ++c) {
      flip::cli::SweepRequest r;
      r.scenario = scenario;
      r.channels = channel;
      // Strata scrambled by a step coprime to kCombos, so that neither
      // the trial count nor the eps set lines up with n.
      const std::size_t stratum = c * 5 % kCombos;
      const std::size_t lo = 16 + stratum * 48 / kCombos;
      const std::size_t hi = 16 + (stratum + 1) * 48 / kCombos;
      const std::size_t n =
          std::string(scenario) == "majority_churn"
              ? 64
              : lo + static_cast<std::size_t>(rng() % (hi - lo + 1));
      r.ns = std::to_string(n);
      r.epss = kEpsSets[c % kSets];
      r.trials = 1 + c / kSets;
      r.seed = rng();
      out.push_back(std::move(r));
    }
  }
  // Seeded shuffle (Fisher-Yates) so the order differs per seed too.
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng() % i]);
  }
  return out;
}

/// The request run in-process, exactly as the server's runner does it:
/// resolve, apply the worker override, stream the cells through
/// run_sweep, render each point line.
std::vector<std::string> run_in_process(const flip::cli::SweepRequest& r) {
  flip::cli::SweepSpec spec;
  if (const auto err = flip::cli::resolve_sweep_request(r, spec)) {
    throw std::runtime_error("resolve: " + *err);
  }
  if (r.threads == 0) spec.threads = kServerThreads;
  spec.collect_points = false;
  std::vector<std::string> lines;
  (void)flip::cli::run_sweep(
      spec, [&](std::size_t, const flip::cli::SweepPoint& point) {
        lines.push_back(flip::cli::sweep_point_line(point));
      });
  return lines;
}

class DaemonSmall final : public Workload {
 public:
  explicit DaemonSmall(const Options& o)
      : opt_(o), requests_(daemon_requests(o.seed, o.tiny)) {}

  void start() override {
    (void)registry();
    // Each lane's server is started on its pinned thread: the ingest and
    // runner threads it spawns inherit that CPU.
    side_by_side(kLanes, true, [&](std::size_t k) {
      Lane& lane = lanes_[k];
      lane.server = std::make_unique<flip::net::SweepServer>(
          flip::net::ServiceOptions{0, kServerThreads});
      std::string error;
      if (!lane.server->start(error)) {
        throw std::runtime_error("server start: " + error);
      }
      lane.client.emplace(lane.server->port());
    });
  }

  void run_batch(OpLog& log, bool check) override {
    struct Pass {
      double ms = 0.0;
      std::size_t bad = 0;  ///< requests whose lines differ
      std::string error;    ///< first request that was not served
    };
    std::vector<Pass> passes(kLanes);
    side_by_side(kLanes, true, [&](std::size_t k) {
      Pass& pass = passes[k];
      Span span("perfbench.daemon_pass", op_ + k);
      const auto start = Clock::now();
      // Lanes start at different requests, so they are not in lockstep.
      const std::size_t count = requests_.size();
      for (std::size_t j = 0; j < count; ++j) {
        const std::size_t i = (j + k * count / kLanes) % count;
        std::vector<std::pair<std::size_t, std::string>> lines;
        try {
          Span request("net.client.run_sweep", op_ + k);
          (void)lanes_[k].client->run_sweep(
              requests_[i], [&](std::size_t cell, const std::string& line) {
                lines.emplace_back(cell, line);
              });
          request.set_work(static_cast<double>(lines.size()));
        } catch (const std::exception& e) {
          if (pass.error.empty()) pass.error = e.what();
          continue;
        }
        if (check && !lines_match(i, lines)) ++pass.bad;
      }
      pass.ms = ms_since(start);
      span.set_work(static_cast<double>(count));
    });
    op_ += kLanes;
    for (const Pass& pass : passes) {
      log.ms.push_back(pass.ms);
      if (!pass.error.empty() && !check) {
        throw std::runtime_error("request failed: " + pass.error);
      }
      if (!check) continue;
      ++log.attempted;
      log.check(pass.error.empty() && pass.bad == 0,
                pass.error.empty()
                    ? std::to_string(pass.bad) +
                          " requests' served point lines differ from the "
                          "in-process sweep"
                    : "request failed: " + pass.error);
    }
  }

  void prepare() override {
    expected_.clear();
    for (const auto& r : requests_) expected_.push_back(run_in_process(r));
  }

  // The baseline: the same pass through in-process run_sweep with no
  // socket, one per lane side by side on the same CPUs as the ops.
  void baseline_ops(std::vector<double>& ms) override {
    std::vector<double> lane_ms(kLanes);
    side_by_side(kLanes, true, [&](std::size_t k) {
      const auto start = Clock::now();
      for (const auto& r : requests_) (void)run_in_process(r);
      lane_ms[k] = ms_since(start);
    });
    ms.insert(ms.end(), lane_ms.begin(), lane_ms.end());
  }

  std::vector<std::string> checks() const override { return {"point_line"}; }
  std::string describe() const override {
    return "op = one pass of " + std::to_string(requests_.size()) +
           " seeded sweep requests over loopback (a connection each), run "
           "inline on the runner thread; " +
           std::to_string(kLanes) +
           " lanes (server + client, one CPU each) side by side";
  }

 private:
  static constexpr std::size_t kLanes = 4;

  struct Lane {
    std::unique_ptr<flip::net::SweepServer> server;
    std::optional<flip::net::SweepClient> client;
  };

  bool lines_match(
      std::size_t i,
      const std::vector<std::pair<std::size_t, std::string>>& lines) const {
    const std::vector<std::string>& want = expected_.at(i);
    if (lines.size() != want.size()) return false;
    for (std::size_t c = 0; c < lines.size(); ++c) {
      std::string expect = without_timing(want[c]);
      if (opt_.inject == "point_line") expect += 'x';
      if (lines[c].first != c || without_timing(lines[c].second) != expect) {
        return false;
      }
    }
    return true;
  }

  Options opt_;
  std::vector<flip::cli::SweepRequest> requests_;
  std::vector<std::vector<std::string>> expected_;
  std::vector<Lane> lanes_ = std::vector<Lane>(kLanes);
  std::uint64_t op_ = 0;
};

// surrogate_cells ------------------------------------------------------------
//
// One op is a pass of cli::run_sweep (engine = surrogate, 1 thread) over
// {broadcast, broadcast_burst, broadcast_churn, majority, boost} x
// n in {1e6, 1e7, 1e8, 1e9}. Four closed-loop clients, each on its own
// thread, run passes side by side: a single-threaded op measures the vCPU
// it lands on, and on a shared box the vCPUs differ by up to ~40% at any
// moment, so one client's median moves with its placement while the
// median over four clients does not. The seed picks the sweep seed and
// the order of the scenarios within a pass.

class SurrogateCells final : public Workload {
 public:
  explicit SurrogateCells(const Options& o)
      : opt_(o), passes_per_client_(o.tiny ? 1 : 4) {
    scenarios_ = {"broadcast", "broadcast_burst", "broadcast_churn",
                  "majority", "boost"};
    ns_ = o.tiny ? std::vector<std::size_t>{1000000}
                 : std::vector<std::size_t>{1000000, 10000000, 100000000,
                                            1000000000};
    flip::SplitMix64 rng(o.seed ^ 0x7375727267ULL);
    for (std::size_t i = scenarios_.size(); i > 1; --i) {
      std::swap(scenarios_[i - 1], scenarios_[rng() % i]);
    }
    sweep_seed_ = rng();
  }

  void start() override { (void)registry(); }

  std::size_t window_batches() const override { return opt_.tiny ? 1 : 4; }

  void run_batch(OpLog& log, bool check) override {
    struct Pass {
      double ms = 0.0;
      std::vector<flip::cli::SweepPoint> points;
    };
    std::vector<Pass> passes(kClients * passes_per_client_);
    {
      Span batch("perfbench.surrogate_batch", op_);
      clients_.parallel_for(kClients, [&](std::size_t client) {
        for (std::size_t k = 0; k < passes_per_client_; ++k) {
          const std::size_t i = client * passes_per_client_ + k;
          Pass& pass = passes[i];
          Span span("perfbench.surrogate_pass", op_ + i, batch.id());
          const auto start = Clock::now();
          for (const std::string& scenario : scenarios_) {
            Span sweep("cli.run_sweep", op_ + i);
            flip::cli::SweepResult r =
                flip::cli::run_sweep(spec_for(scenario));
            for (auto& p : r.points) pass.points.push_back(std::move(p));
          }
          pass.ms = ms_since(start);
          span.set_work(static_cast<double>(pass.points.size()));
        }
      });
    }
    op_ += passes.size();
    for (Pass& pass : passes) {
      log.ms.push_back(pass.ms);
      std::vector<std::string> lines;
      bool in_range = true;
      for (const auto& p : pass.points) {
        lines.push_back(without_timing(flip::cli::sweep_point_line(p)));
        const flip::ProportionCI& s = p.summary.success;
        const double lo = opt_.inject == "range" ? 1.5 : 0.0;
        for (const double v : {s.estimate, s.low, s.high}) {
          in_range = in_range && v >= lo && v <= 1.0;
        }
      }
      if (first_pass_.empty()) {
        first_pass_ = lines;
        first_points_ = std::move(pass.points);
      }
      if (!check) continue;
      ++log.attempted;
      std::vector<std::string> want = first_pass_;
      if (opt_.inject == "repeat") want.back() += 'x';
      log.check(lines == want && in_range,
                lines == want ? "success probability outside [0, 1]"
                              : "pass differs from the first pass");
    }
  }

  // The baseline: the same cells through direct run_surrogate calls, one
  // pass per client, side by side like the ops.
  void baseline_ops(std::vector<double>& ms) override {
    std::vector<double> client_ms(kClients);
    std::vector<std::vector<flip::SurrogateResult>> results(kClients);
    clients_.parallel_for(kClients, [&](std::size_t client) {
      const auto start = Clock::now();
      for (const std::string& scenario : scenarios_) {
        for (const std::size_t n : ns_) {
          results[client].push_back(
              flip::run_surrogate(surrogate_spec(scenario, n)));
        }
      }
      client_ms[client] = ms_since(start);
    });
    ms.insert(ms.end(), client_ms.begin(), client_ms.end());
    if (baseline_results_.empty()) baseline_results_ = std::move(results[0]);
  }

  // The baseline must compute what the sweep computed: the same round
  // budget, and the sweep's stratified success count for that probability
  // (sim/surrogate_engine.hpp trial mapping).
  void finish() override {
    for (std::size_t i = 0;
         i < baseline_results_.size() && i < first_points_.size(); ++i) {
      const flip::SurrogateResult& r = baseline_results_[i];
      const flip::TrialSummary& s = first_points_[i].summary;
      std::size_t successes = 0;
      for (std::size_t t = 0; t < s.trials; ++t) {
        successes += flip::radical_inverse_base2(t) < r.success_probability;
      }
      if (s.rounds.mean() != static_cast<double>(r.rounds) ||
          s.successes != successes || r.success_probability < 0.0 ||
          r.success_probability > 1.0) {
        check_errors.push_back("run_surrogate baseline disagrees with the "
                               "sweep on cell " + std::to_string(i));
      }
    }
  }

  std::vector<std::string> checks() const override {
    return {"repeat", "range"};
  }
  std::string describe() const override {
    return "op = one pass of cli::run_sweep (engine surrogate, 1 thread, " +
           std::to_string(kTrials) + " trials) over " +
           std::to_string(scenarios_.size() * ns_.size()) + " cells; " +
           std::to_string(kClients) + " clients side by side";
  }

 private:
  static constexpr std::size_t kTrials = 64;
  static constexpr std::size_t kClients = 4;

  flip::cli::SweepSpec spec_for(const std::string& scenario) const {
    flip::cli::SweepSpec spec;
    spec.scenario = scenario;
    spec.ns = ns_;
    spec.trials = kTrials;
    spec.seed = sweep_seed_;
    spec.threads = 1;
    spec.engine = flip::EngineMode::kSurrogate;
    return spec;
  }

  /// The SurrogateSpec the registry factory builds for (scenario, n):
  /// workload/registry.cpp and the *_surrogate_spec derivations of
  /// workload/scenarios.cpp.
  static flip::SurrogateSpec surrogate_spec(const std::string& scenario,
                                            std::size_t n) {
    const flip::ScenarioInfo& info = *registry().find(scenario);
    flip::SurrogateSpec spec;
    spec.n = n;
    spec.eps = info.default_eps;
    spec.schedule = info.default_schedule;
    spec.churn = info.default_churn;
    if (spec.schedule.enabled() || spec.churn.enabled()) spec.probe_every = 8;
    if (scenario == "majority") {
      spec.initial_set = std::max<std::size_t>(64, n / 16);
      spec.initial_correct = static_cast<std::size_t>(
          std::llround(0.75 * static_cast<double>(spec.initial_set)));
      spec.auto_join_phase = true;
    } else if (scenario == "boost") {
      spec.initial_set = n;
      spec.initial_correct = static_cast<std::size_t>(
          std::llround((0.5 + flip::BoostScenario{}.initial_bias) *
                       static_cast<double>(n)));
      spec.skip_stage1 = true;
    }
    return spec;
  }

  Options opt_;
  std::size_t passes_per_client_;
  flip::ThreadPool clients_{kClients};
  std::vector<std::string> scenarios_;
  std::vector<std::size_t> ns_;
  std::uint64_t sweep_seed_ = 0;
  std::vector<std::string> first_pass_;
  std::vector<flip::cli::SweepPoint> first_points_;
  std::vector<flip::SurrogateResult> baseline_results_;
  std::uint64_t op_ = 0;
};

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "mc_sweep") return std::make_unique<McSweep>(o);
  if (o.workload == "daemon_small") return std::make_unique<DaemonSmall>(o);
  if (o.workload == "surrogate_cells") {
    return std::make_unique<SurrogateCells>(o);
  }
  return nullptr;
}

// --- warm-up ----------------------------------------------------------------
//
// Windows of window_batches() batches run until the trailing window's
// median op time stops falling: at least kMinWindows, then stop as soon as
// a window is no more than kFallTolerance faster than the one before it.
// The tolerance sits above the window-to-window noise of a shared 4-core
// box, so the number of windows, and with it setup_s, has one mode.

constexpr std::size_t kMinWindows = 2;
constexpr std::size_t kMaxWindows = 8;
constexpr double kFallTolerance = 0.15;

std::size_t warm_up(Workload& w) {
  double previous = 0.0;
  for (std::size_t window = 1; window <= kMaxWindows; ++window) {
    OpLog log;
    for (std::size_t b = 0; b < w.window_batches(); ++b) {
      w.run_batch(log, false);
    }
    const double m = median(log.ms);
    if (window >= kMinWindows && m >= (1.0 - kFallTolerance) * previous) {
      return window;
    }
    previous = m;
  }
  return kMaxWindows;
}

// --- per-layer probes (traced binary) ---------------------------------------

struct Metric {
  double value;
  const char* unit;
};
using Metrics = std::map<std::string, Metric>;

template <typename Fn>
std::vector<double> time_us(const char* span_name, std::size_t reps, Fn&& fn) {
  std::vector<double> us;
  us.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) {
    Span span(span_name, i);
    const auto start = Clock::now();
    fn(i);
    us.push_back(ms_since(start) * 1000.0);
  }
  return us;
}

void probe_sim(const Options& o, Metrics& m,
               std::vector<std::string>& errors) {
  // The mc_sweep trial, alone on this thread.
  flip::ScenarioOverrides ov;
  ov.n = o.tiny ? 512 : 4096;
  ov.eps = 0.2;
  ov.channel = "bsc";
  const flip::TrialFn fn = registry().make("broadcast", ov);
  std::vector<double> busy_ms;
  double msgs = 0.0;
  double rounds = 0.0;
  const std::size_t reps = o.tiny ? 2 : 5;
  for (std::size_t i = 0; i < reps; ++i) {
    Span span("sim.trial", i);
    const auto start = Clock::now();
    const flip::TrialOutcome out = fn(o.seed, i);
    busy_ms.push_back(ms_since(start));
    span.set_work(out.messages);
    msgs += out.messages;
    rounds += out.rounds;
  }
  const double r = static_cast<double>(reps);
  m["sim.trial_busy_ms"] = {median(busy_ms), "ms"};
  m["sim.msgs_per_trial"] = {msgs / r, "count"};
  m["sim.rounds_per_trial"] = {rounds / r, "count"};
  m["sim.ns_per_msg"] = {mean(busy_ms) * 1e6 / (msgs / r), "ns"};

  // Pool busy ratio on the mc_sweep shape: sum of trial busy time over
  // workers x wall time of one run_sweep call.
  register_timed_broadcast();
  flip::cli::SweepSpec spec;
  spec.scenario = kTimedBroadcast;
  spec.ns = {*ov.n};
  spec.epss = {0.2};
  spec.channels = {"bsc"};
  spec.trials = o.tiny ? 8 : 16;
  spec.seed = o.seed;
  spec.threads = 4;
  g_trial_log.assign(spec.trials, TrialRecord{});
  double wall_ms = 0.0;
  {
    Span span("cli.run_sweep", 0);
    g_trial_parent = span.id();
    const auto start = Clock::now();
    (void)flip::cli::run_sweep(spec);
    wall_ms = ms_since(start);
  }
  double busy = 0.0;
  for (const TrialRecord& t : g_trial_log) busy += t.ms;
  m["util.pool_busy_ratio"] = {busy / (4.0 * wall_ms), "ratio"};

  // Shard scaling and allocations on one n = 100 000 trial: 4 shards on
  // the shared pool against 1 shard inline. The two outcomes must be bit
  // equal (the engine's shard-invariance contract).
  ov.n = o.tiny ? 4096 : 100000;
  ov.shards = 1;
  const flip::TrialFn one = registry().make("broadcast", ov);
  ov.shards = 4;
  const flip::TrialFn four = registry().make("broadcast", ov);
  struct Timed {
    double ms;
    std::uint64_t allocs;
    flip::TrialOutcome outcome;
  };
  auto timed = [&](const flip::TrialFn& f, const char* name) {
    Span span(name, 0);
    const std::uint64_t a0 = perfbench::allocs_process();
    const auto start = Clock::now();
    Timed t{0.0, 0, f(o.seed, 0)};
    t.ms = ms_since(start);
    t.allocs = perfbench::allocs_process() - a0;
    span.set_work(t.outcome.messages);
    return t;
  };
  (void)timed(four, "sim.trial_4shard_cold");
  const Timed t_four = timed(four, "sim.trial_4shard");
  (void)timed(one, "sim.trial_1shard_cold");
  Timed t_one = timed(one, "sim.trial_1shard");
  if (o.inject == "shard_equal") ++t_one.outcome.delivered;
  if (!outcomes_equal(t_four.outcome, t_one.outcome)) {
    errors.push_back("4-shard outcome differs from the 1-shard run");
  }
  const std::uint64_t allocs_four = t_four.allocs;
  const std::uint64_t allocs_one = t_one.allocs;
  m["sim.shard_speedup"] = {t_one.ms / t_four.ms, "x"};
  m["sim.allocs_per_warm_trial"] = {static_cast<double>(allocs_four), "count"};

  // An empty 4-way parallel_for on the shared pool: the phase barrier the
  // sharded engine pays per parallel phase.
  flip::ThreadPool& pool = flip::ThreadPool::shared();
  const std::size_t pf_reps = o.tiny ? 200 : 4000;
  const std::uint64_t a0 = perfbench::allocs_process();
  const std::vector<double> pf_us = time_us(
      "util.parallel_for", pf_reps,
      [&](std::size_t) { pool.parallel_for(4, [](std::size_t) {}); });
  const double allocs_per_pf =
      static_cast<double>(perfbench::allocs_process() - a0) /
      static_cast<double>(pf_reps);
  m["util.parallel_for_us"] = {median(pf_us), "us"};
  m["util.allocs_per_parallel_for"] = {allocs_per_pf, "count"};
  // Computed: the extra allocations the 4-shard trial makes over the
  // 1-shard one, divided by allocations per parallel_for, estimates its
  // phase barriers; times the empty-barrier cost, as a share of the trial.
  const double barriers =
      allocs_per_pf > 0.0
          ? std::max(0.0, static_cast<double>(allocs_four) -
                              static_cast<double>(allocs_one)) /
                allocs_per_pf
          : 0.0;
  m["util.barrier_share"] = {barriers * median(pf_us) / (t_four.ms * 1000.0),
                             "ratio"};
}

void probe_surrogate(const Options& o, Metrics& m) {
  const std::size_t n = o.tiny ? 1000000 : 1000000000;
  const std::pair<const char*, const char*> envs[] = {
      {"sim.surrogate_static_ms", "broadcast"},
      {"sim.surrogate_burst_ms", "broadcast_burst"},
      {"sim.surrogate_churn_ms", "broadcast_churn"},
  };
  for (const auto& [metric, scenario] : envs) {
    const flip::ScenarioInfo& info = *registry().find(scenario);
    flip::SurrogateSpec spec;
    spec.n = n;
    spec.eps = info.default_eps;
    spec.schedule = info.default_schedule;
    spec.churn = info.default_churn;
    const std::vector<double> us =
        time_us("sim.run_surrogate", o.tiny ? 2 : 7, [&](std::size_t) {
          (void)flip::run_surrogate(spec);
        });
    m[metric] = {median(us) / 1000.0, "ms"};
  }
}

volatile std::uint64_t g_simd_sink = 0;

void probe_simd(const Options& o, Metrics& m) {
  const flip::simd::Kernels& k = flip::simd::active();
  constexpr std::size_t kBlock = 256;
  const std::uint64_t n = 4096;
  flip::SplitMix64 rng(o.seed);
  std::vector<std::uint32_t> entries(kBlock);
  for (auto& e : entries) {
    e = static_cast<std::uint32_t>(rng() % n) | ((rng() & 1u) << 31);
  }
  std::vector<std::uint32_t> to(kBlock);
  std::vector<std::uint64_t> words(kBlock);
  std::vector<std::uint8_t> flips(kBlock);
  const std::size_t blocks = o.tiny ? 2000 : 40000;
  const std::uint64_t threshold = std::uint64_t{1} << 50;
  std::uint64_t sink = 0;
  double route_us = 0.0;
  double flip_us = 0.0;
  {
    Span span("simd.route_block", 0);
    const auto start = Clock::now();
    for (std::size_t b = 0; b < blocks; ++b) {
      k.route_block(rng(), b, entries.data(), kBlock, n - 1, to.data(),
                    words.data());
      sink += words[b % kBlock];
    }
    route_us = ms_since(start) * 1000.0;
    span.set_work(static_cast<double>(blocks * kBlock));
  }
  {
    Span span("simd.flip_block", 0);
    const auto start = Clock::now();
    for (std::size_t b = 0; b < blocks; ++b) {
      k.flip_block(rng(), b, to.data(), kBlock, threshold, flips.data());
      sink += flips[b % kBlock];
    }
    flip_us = ms_since(start) * 1000.0;
    span.set_work(static_cast<double>(blocks * kBlock));
  }
  g_simd_sink = sink;  // keeps the kernels' outputs live
  // Route: two draws per entry (recipient, acceptance priority); flip: one.
  const double draws = static_cast<double>(blocks * kBlock);
  m["simd.route_mdraw_per_s"] = {2.0 * draws / route_us, "Mdraw/s"};
  m["simd.flip_mdraw_per_s"] = {draws / flip_us, "Mdraw/s"};
  // Bytes each kernel reads and writes per draw: route reads a 4-byte
  // entry and writes a 4-byte recipient and an 8-byte word per two draws;
  // flip reads a 4-byte recipient and writes a 1-byte flag per draw.
  m["simd.route_bytes_per_draw"] = {(4.0 + 4.0 + 8.0) / 2.0, "B"};
  m["simd.flip_bytes_per_draw"] = {4.0 + 1.0, "B"};
}

void probe_core_workload(const Options& o, Metrics& m) {
  const std::size_t reps = o.tiny ? 50 : 2000;
  const std::size_t ns[] = {64, 1000000000};
  const std::vector<double> cal_us =
      time_us("core.Params.calibrated", reps, [&](std::size_t i) {
        (void)flip::Params::calibrated(ns[i % 2], 0.2);
      });
  m["core.calibrate_us"] = {median(cal_us), "us"};

  // One ScenarioRegistry::make per surrogate_cells cell: the surrogate
  // factory runs its analysis eagerly, so this is the cell's build cost.
  std::vector<double> make_ms;
  for (const char* scenario : {"broadcast", "broadcast_burst",
                               "broadcast_churn", "majority", "boost"}) {
    flip::ScenarioOverrides ov;
    ov.engine = flip::EngineMode::kSurrogate;
    for (const std::size_t n : {1000000, 10000000, 100000000, 1000000000}) {
      ov.n = n;
      Span span("workload.ScenarioRegistry.make", n);
      const auto start = Clock::now();
      (void)registry().make(scenario, ov);
      make_ms.push_back(ms_since(start));
    }
  }
  m["workload.make_ms"] = {mean(make_ms), "ms"};
}

void probe_cli_net(const Options& o, Metrics& m) {
  const PinnedCpu pin;  // as a daemon_small lane runs
  const std::vector<flip::cli::SweepRequest> requests =
      daemon_requests(o.seed, o.tiny);
  const std::size_t reps = o.tiny ? 50 : 4000;
  std::vector<std::string> encoded;
  for (const auto& r : requests) {
    encoded.push_back(flip::cli::encode_sweep_request(r));
  }
  const std::size_t count = requests.size();
  m["cli.wire_encode_us"] = {
      median(time_us("cli.encode_sweep_request", reps,
                     [&](std::size_t i) {
                       (void)flip::cli::encode_sweep_request(
                           requests[i % count]);
                     })),
      "us"};
  m["cli.wire_parse_us"] = {
      median(time_us("cli.parse_sweep_request", reps,
                     [&](std::size_t i) {
                       std::string error;
                       (void)flip::cli::parse_sweep_request(
                           encoded[i % count], error);
                     })),
      "us"};
  m["cli.resolve_us"] = {
      median(time_us("cli.resolve_sweep_request", reps,
                     [&](std::size_t i) {
                       flip::cli::SweepSpec spec;
                       (void)flip::cli::resolve_sweep_request(
                           requests[i % count], spec);
                     })),
      "us"};

  // Each request in-process (what the server's runner does) and served,
  // side by side; one untimed pass first warms both paths.
  flip::net::SweepServer server{
      flip::net::ServiceOptions{0, kServerThreads}};
  std::string error;
  if (!server.start(error)) throw std::runtime_error("server: " + error);
  flip::net::SweepClient client(server.port());
  double rejected = 0.0;
  auto served = [&](std::size_t i) {
    try {
      (void)client.run_sweep(requests[i]);
      return true;
    } catch (const std::exception&) {
      rejected += 1.0;
      return false;
    }
  };
  for (std::size_t i = 0; i < count; ++i) {
    (void)run_in_process(requests[i]);
    (void)served(i);
  }
  std::vector<double> inproc_ms;
  std::vector<double> overhead_ms;
  for (std::size_t i = 0; i < count; ++i) {
    auto start = Clock::now();
    {
      Span span("cli.run_sweep", i);
      (void)run_in_process(requests[i]);
    }
    inproc_ms.push_back(ms_since(start));
    start = Clock::now();
    bool ok = false;
    {
      Span span("net.SweepClient.run_sweep", i);
      ok = served(i);
    }
    if (ok) overhead_ms.push_back(ms_since(start) - inproc_ms.back());
  }
  m["cli.run_sweep_ms"] = {median(inproc_ms), "ms"};
  m["net.service_overhead_ms"] = {median(overhead_ms), "ms"};
  m["net.requests_rejected"] = {rejected, "count"};
  m["net.ping_rt_us"] = {
      median(time_us("net.SweepClient.ping", o.tiny ? 20 : 500,
                     [&](std::size_t) {
                       std::string err;
                       if (!client.ping(err)) {
                         throw std::runtime_error("ping: " + err);
                       }
                     })),
      "us"};
  server.stop();

  flip::cli::SweepSpec spec;
  (void)flip::cli::resolve_sweep_request(requests[0], spec);
  const flip::cli::SweepResult result = flip::cli::run_sweep(spec);
  m["cli.point_line_us"] = {
      median(time_us("cli.sweep_point_line", reps,
                     [&](std::size_t) {
                       (void)flip::cli::sweep_point_line(result.points[0]);
                     })),
      "us"};

  // A frame round trip on a socketpair at request size.
  int fds[2] = {-1, -1};
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw std::runtime_error("socketpair failed");
  }
  m["net.frame_rt_us"] = {
      median(time_us("net.frame_round_trip", reps,
                     [&](std::size_t i) {
                       if (!flip::net::write_frame(fds[0], encoded[i % count]) ||
                           flip::net::read_frame(fds[1]).status !=
                               flip::net::FrameStatus::kOk) {
                         throw std::runtime_error("frame round trip failed");
                       }
                     })),
      "us"};
  flip::net::close_fd(fds[0]);
  flip::net::close_fd(fds[1]);
}

Metrics run_layer_probes(const Options& o, std::vector<std::string>& errors) {
  Metrics m;
  Span span("perfbench.layer_probes", 0);
  probe_sim(o, m, errors);
  probe_surrogate(o, m);
  probe_simd(o, m);
  probe_core_workload(o, m);
  probe_cli_net(o, m);
  return m;
}

// --- output -----------------------------------------------------------------

void write_machine(flip::JsonWriter& json) {
  json.key("machine")
      .begin_object()
      .field("nproc",
             static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .field("simd_best_isa", flip::simd::isa_name(flip::simd::best_isa()))
#if defined(__clang__)
      .field("compiler", std::string("clang ") + __clang_version__)
#elif defined(__GNUC__)
      .field("compiler", std::string("gcc ") + __VERSION__)
#else
      .field("compiler", "unknown")
#endif
      .field("build_type", PERFBENCH_BUILD_TYPE)
      .field("cmake_options", PERFBENCH_CMAKE_OPTIONS)
      .field("traced", perfbench::kTraced)
      .end_object();
}

// Baseline time as a share of timed op time: enough samples for a steady
// median (~7 sweep-sized ops for mc_sweep in 20 s).
constexpr double kBaselineShare = 0.35;

/// The timed window: batches until their summed time reaches `seconds`.
/// Only batch time counts. Between batches, baseline ops run until they
/// have taken kBaselineShare of the batch time so far, so their samples
/// spread over the whole window. Returns the batch time.
double timed_window(Workload& w, double seconds, OpLog& log,
                    std::vector<double>& baseline, std::size_t& batches) {
  double baseline_ms = 0.0;
  double wall_ms = 0.0;
  do {
    auto start = Clock::now();
    w.run_batch(log, true);
    wall_ms += ms_since(start);
    ++batches;
    while (baseline.empty() || baseline_ms < kBaselineShare * wall_ms) {
      start = Clock::now();
      w.baseline_ops(baseline);
      baseline_ms += ms_since(start);
    }
  } while (wall_ms < seconds * 1000.0);
  return wall_ms;
}

bool parse_args(int argc, char** argv, Options& o, std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    try {
      if (arg == "--setup-only") {
        o.setup_only = true;
      } else if (arg == "--tiny") {
        o.tiny = true;
      } else if (arg == "--workload" || arg == "--seed" ||
                 arg == "--seconds" || arg == "--inject" ||
                 arg == "--trace-out") {
        const auto v = next();
        if (!v) {
          error = arg + " needs a value";
          return false;
        }
        if (arg == "--workload") o.workload = *v;
        if (arg == "--seed") o.seed = std::stoull(*v);
        if (arg == "--seconds") o.seconds = std::stod(*v);
        if (arg == "--inject") o.inject = *v;
        if (arg == "--trace-out") o.trace_out = *v;
      } else {
        error = "unknown argument " + arg;
        return false;
      }
    } catch (const std::exception&) {
      error = "bad value for " + arg;
      return false;
    }
  }
  if (!(o.seconds > 0.0) || o.seconds > 120.0) {
    error = "--seconds must be in (0, 120]";
    return false;
  }
  return true;
}

int run(const Options& o) {
  std::unique_ptr<Workload> w = make_workload(o);
  if (!w) {
    std::cerr << "error: unknown workload '" << o.workload
              << "' (mc_sweep, daemon_small, surrogate_cells)\n";
    return 2;
  }
  std::vector<std::string> known = w->checks();
  if (perfbench::kTraced) known.push_back("shard_equal");  // layer probe
  if (!o.inject.empty() &&
      std::find(known.begin(), known.end(), o.inject) == known.end()) {
    std::cerr << "error: workload " << o.workload << " has no check '"
              << o.inject << "'\n";
    return 2;
  }

  w->start();
  const std::size_t windows = warm_up(*w);
  const double setup_s = ms_since(g_process_start) / 1000.0;

  flip::JsonWriter json(0);
  json.begin_object()
      .field("workload", o.workload)
      .field("seed", o.seed)
      .field("setup_s", setup_s)
      .field("warmup_windows", static_cast<std::uint64_t>(windows));
  if (o.setup_only) {
    json.end_object();
    std::cout << json.str() << std::endl;
    return 0;
  }

  w->prepare();

  OpLog log;
  std::vector<double> baseline;
  std::size_t batches = 0;
  const double wall_ms = timed_window(*w, o.seconds, log, baseline, batches);
  w->finish();

  std::vector<double> sorted = log.ms;
  std::sort(sorted.begin(), sorted.end());
  // Highest whole percentile with at least 10 ops above it; none when the
  // run is too short for one above the median.
  struct Tail {
    std::size_t pct;
    double ms;
    std::size_t beyond;
  };
  std::optional<Tail> tail;
  const std::size_t ops = sorted.size();
  for (std::size_t p = 99; p > 50; --p) {
    const std::size_t rank = (p * ops + 99) / 100;  // ceil(p% of ops)
    if (rank >= 1 && ops - rank >= 10) {
      tail = Tail{p, sorted[rank - 1], ops - rank};
      break;
    }
  }

  json.field("ops", static_cast<std::uint64_t>(log.ms.size()))
      .field("batches", static_cast<std::uint64_t>(batches))
      .field("attempted", log.attempted)
      .field("failed", log.failed)
      .field("wall_s", wall_ms / 1000.0)
      .field("ops_per_s",
             static_cast<double>(log.ms.size()) / (wall_ms / 1000.0))
      .field("op_p50_ms", median(log.ms));
  if (tail) {
    json.field("op_tail_ms", tail->ms)
        .field("op_tail_pct", static_cast<std::uint64_t>(tail->pct))
        .field("op_tail_beyond", static_cast<std::uint64_t>(tail->beyond));
  }
  json.field("baseline_op_ms", median(baseline))
      .field("baseline_ops", static_cast<std::uint64_t>(baseline.size()))
      .field("peak_rss_mb", peak_rss_mb())
      .field("op", w->describe());

  // Failures outside the ops (baseline cross-checks, layer probes) make
  // the run incorrect without counting as failed ops.
  std::vector<std::string> errors = w->check_errors;
  Metrics layers;
  if constexpr (perfbench::kTraced) {
    w.reset();  // stops its threads and releases any CPU pin first
    layers = run_layer_probes(o, errors);
  }
  json.field("correct", log.failed == 0 && errors.empty());
  errors.insert(errors.end(), log.errors.begin(), log.errors.end());
  json.key("errors").begin_array();
  for (const auto& e : errors) json.value(e);
  json.end_array();
  write_machine(json);

  if constexpr (perfbench::kTraced) {
    json.key("layers").begin_object();
    for (const auto& [name, metric] : layers) {
      json.key(name)
          .begin_object()
          .field("value", metric.value)
          .field("unit", metric.unit)
          .end_object();
    }
    json.end_object();
    if (!o.trace_out.empty() && !perfbench::write_trace(o.trace_out)) {
      std::cerr << "error: cannot write trace to " << o.trace_out << "\n";
      return 1;
    }
  }
  json.end_object();
  std::cout << json.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string error;
  if (!parse_args(argc, argv, o, error)) {
    std::cerr << "error: " << error << "\n";
    return 2;
  }
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
