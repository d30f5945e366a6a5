// The benchmark's four workloads. Each one builds its inputs from the
// run seed, times its steps for the requested number of seconds, checks
// the library's outputs against ground truth, and adds its metrics to a
// Report. See perfbench/README.md for what each workload stresses.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "rtbench/report.h"
#include "rtbench/trace.h"

namespace rtbench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  unsigned workers = 1;        ///< nproc: threads for the pooled library calls
  Tracer* tracer = nullptr;    ///< set in the traced run
  /// Smallest inputs and a single pass: used in a traced run to give the
  /// layers another workload does not touch a measured value.
  bool probe = false;
};

void run_rx_decode(const RunConfig& cfg, Report& report);
void run_stream_sparse(const RunConfig& cfg, Report& report);
void run_sim_sweep(const RunConfig& cfg, Report& report);
void run_fleet_inventory(const RunConfig& cfg, Report& report);

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Set-up repetitions in an untraced run; setup_s is their median.
inline constexpr int kSetupReps = 3;

/// Runs `make` (a set-up returning std::unique_ptr<State>) `reps` times,
/// keeps the last state, and appends each set-up's host seconds.
template <class Make>
[[nodiscard]] auto repeated_setup(int reps, Make&& make, std::vector<double>& secs) {
  decltype(make()) state;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    auto fresh = make();
    secs.push_back(seconds_since(t0));
    state = std::move(fresh);
  }
  return state;
}

/// Runs timed passes for cfg.seconds; a probe runs one traced pass. A
/// traced run alternates untraced and traced passes so both see the same
/// machine state: `pass(tracer, step_ms)` gets a null tracer and
/// `untraced_ms` on untraced passes, the tracer and `traced_ms` otherwise.
template <class Pass>
void run_passes(const RunConfig& cfg, Pass&& pass, std::vector<double>& untraced_ms,
                std::vector<double>& traced_ms) {
  const auto t0 = Clock::now();
  for (int i = 0;; ++i) {
    const bool traced = cfg.tracer != nullptr && (cfg.probe || i % 2 == 1);
    pass(traced ? cfg.tracer : nullptr, traced ? traced_ms : untraced_ms);
    if (cfg.probe || (seconds_since(t0) >= cfg.seconds && (cfg.tracer == nullptr || i >= 1)))
      return;
  }
}

/// The metrics BENCHMARK.json declares as end-to-end for every workload,
/// from the workload's own step: one frame, chunk push, grid sweep or pass
/// of campaigns.
struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> step_ms;
  std::vector<double> pass_throughput;  ///< per-pass work units per host second
  Ratio delivery;
};
/// `step` names one timed step, `work` the unit throughput counts.
/// `contract` marks them for the final JSON line (the untraced run).
void add_end_to_end(const EndToEnd& e, bool contract, const char* step, const char* work,
                    Report& report);

/// Traced run: reports how much slower a traced step is than an untraced
/// one (median over median, minus one).
void add_trace_overhead(const std::vector<double>& untraced_ms,
                        const std::vector<double>& traced_ms, Report& report);

}  // namespace rtbench
