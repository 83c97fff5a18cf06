// Deterministic, time-scheduled fault injection for the simulated network.
//
// A FaultPlan is a declarative schedule of adversity attached to every
// shard's Network before a run starts:
//
//  * Partition windows: over [start, end) the population (by global node
//    index) is split into `groups` contiguous blocks; traffic between
//    different blocks is lost *in flight* — one-way messages at their
//    delivery instant (counted in lost()), RPC request legs by the
//    caller's rpcTimeout backstop — exactly the churn-mid-flight semantics,
//    so a partition is indistinguishable from the far side dying.
//  * Correlated failure bursts: a contiguous cluster holding `fraction` of
//    the population is killed at `at` and rejoins at `at + duration`. The
//    plan only declares bursts; the experiment layer applies them to the
//    availability trace before the world is built, so ground truth,
//    bootstrap picks, and per-node availability all stay consistent.
//  * Latency regimes: windows replacing the flat [min, max] band, and an
//    optional geo-clustered band (contiguous regions, intra/inter bands)
//    that replaces the flat band outside those windows.
//
// Determinism contract: the plan never draws randomness. Reachability and
// the active latency band are pure functions of (time, sender global index,
// target global index), and the latency draw itself still consumes exactly
// one value from the sender's per-sender stream — so behavior is
// partition-independent and bit-identical across shard counts, and a plan
// with no entries reproduces the unfaulted run bit-for-bit.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.hpp"

namespace avmon::sim {

/// Over [start, end) the population is split into `groups` contiguous
/// blocks by global node index; cross-block traffic is lost in flight.
struct PartitionWindow {
  SimTime start = 0;
  SimTime end = 0;
  std::uint32_t groups = 2;
};

/// Correlated failure burst: a contiguous cluster covering `fraction` of
/// the population dies at `at` and rejoins at `at + duration`. Declared
/// here, applied to the availability trace by the experiment layer.
struct BurstSpec {
  SimTime at = 0;
  SimDuration duration = 0;
  double fraction = 0.0;
};

/// Over [start, end) every pair's latency band becomes [minLatency,
/// maxLatency], overriding both the flat band and the geo bands.
struct LatencyWindow {
  SimTime start = 0;
  SimTime end = 0;
  SimDuration minLatency = 0;
  SimDuration maxLatency = 0;
};

/// Geo-clustered latency: `regions` contiguous regions by global index;
/// same-region pairs draw from [intraMin, intraMax], cross-region pairs
/// from [interMin, interMax]. regions == 0 disables the feature and keeps
/// the flat band.
struct GeoBands {
  std::uint32_t regions = 0;
  SimDuration intraMin = 0;
  SimDuration intraMax = 0;
  SimDuration interMin = 0;
  SimDuration interMax = 0;
};

/// The full declarative schedule. Built once, bound to the population
/// size, then shared read-only by every shard's Network for the whole run.
class FaultPlan {
 public:
  std::vector<PartitionWindow> partitions;
  std::vector<BurstSpec> bursts;
  std::vector<LatencyWindow> latencyWindows;
  GeoBands geo;

  /// True when no feature is configured (the plan is a no-op).
  bool empty() const noexcept;

  /// Throws std::invalid_argument with an actionable message on nonsense
  /// (inverted windows, zero-duration bursts, bands below 1ms, ...).
  void validate() const;

  /// The lowest latency minimum any (time, pair) can observe, given the
  /// base band's minimum — the sharded simulator's lookahead window must
  /// not exceed this, or a fast-regime message could arrive inside the
  /// current window.
  SimDuration lookaheadFloor(SimDuration baseMinLatency) const noexcept;

  /// Binds the plan to the population size. Global node indices >= the
  /// population (e.g. auxiliary endpoints registered by a baseline) fall
  /// into group/region 0.
  void bindPopulation(std::uint32_t nodeCount) noexcept {
    population_ = nodeCount;
  }
  std::uint32_t population() const noexcept { return population_; }

  /// False iff some partition window active at `at` separates the two
  /// global indices. A node always reaches itself.
  bool reachable(SimTime at, std::uint32_t fromIndex,
                 std::uint32_t toIndex) const noexcept;

  /// Narrows [lo, hi] to the band active at `at` for this ordered pair:
  /// the first matching latency window wins; otherwise the geo band (when
  /// configured); otherwise the inputs are left untouched.
  void latencyBand(SimTime at, std::uint32_t fromIndex, std::uint32_t toIndex,
                   SimDuration& lo, SimDuration& hi) const noexcept;

  /// Contiguous-block assignment used by both partitions and geo regions:
  /// index -> block in [0, blocks). Out-of-population indices map to 0.
  std::uint32_t blockOf(std::uint32_t index,
                        std::uint32_t blocks) const noexcept;

 private:
  std::uint32_t population_ = 0;
};

}  // namespace avmon::sim
