// What one benchmark process reports: metrics by name with their units,
// the correctness checks it made, and how many operations it attempted
// and saw fail. main() prints it as one JSON line; perfbench/run.py
// validates it and turns it into the benchmark's result line.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Check {
  std::string name;
  bool passed = false;
  std::string detail;
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<Check> checks;
  /// Provenance and run facts that are not metrics (fingerprints, sizes).
  std::vector<std::pair<std::string, std::string>> info;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a check; returns `passed` so callers can count failures.
  bool check(std::string name, bool passed, std::string detail = {}) {
    checks.push_back({std::move(name), passed, std::move(detail)});
    return passed;
  }
  void note(std::string key, std::string value) {
    info.emplace_back(std::move(key), std::move(value));
  }
  bool allChecksPassed() const {
    for (const Check& c : checks) {
      if (!c.passed) return false;
    }
    return true;
  }
};

/// Options shared by every workload.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// "full" (the benchmark's sizes) or "tiny" (the benchmark's own tests).
  std::string size = "full";
  /// Overrides the workload's shard count when > 0 (sim workloads only).
  unsigned shards = 0;
  /// Flips the reference each output is checked against, so the run must
  /// report failures: the check that the checks bite.
  bool corruptExpected = false;
  /// Where the traced run writes its span log ("" = nowhere).
  std::string spansOut;
};

Report runSimWorkload(const RunOptions& options);
Report runLiveRpc(const RunOptions& options);

/// sim.window_overhead_us: microseconds per window of
/// ShardedSimulator::runUntil on a minimal always-busy world (one
/// self-rescheduling timer per shard) at `shards` shards. Median of
/// several timed passes.
double windowOverheadUs(std::size_t shards, std::uint64_t windows);

double median(std::vector<double> values);
/// Quantile q in [0, 1] by the nearest-rank rule.
double quantile(std::vector<double> values, double q);
/// Peak resident set of this process so far, in bytes (VmHWM).
double peakRssBytes();
/// CPU time of this process (all threads), in seconds.
double processCpuSeconds();

/// Pins the calling thread to the (slot mod count)-th CPU it was allowed
/// to run on when the process started. A single-threaded workload pins
/// each repetition to the next CPU, so every run samples every core it
/// was given: on a shared host the cores' speeds drift apart by a fifth
/// and more, and a run that sat on one core would measure that core.
void pinToCpu(std::size_t slot);
/// Gives the calling thread back every CPU it started with.
void unpinCpu();

}  // namespace perfbench
