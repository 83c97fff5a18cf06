// Monitor selection: who is allowed to monitor whom.
//
// AVMON's discovery protocol works with *any* consistent and verifiable
// selection scheme (paper Section 3.2); the scheme itself is pluggable
// behind MonitorSelector. The paper's concrete scheme (Section 3.1,
// borrowed from AVCast) is the hash condition
//
//     y ∈ PS(x)  ⇔  H(y ‖ x) ≤ K/N
//
// over the 6-byte wire encodings of the two node ids, giving an expected
// K monitors per node, chosen consistently, verifiably, and uniformly at
// random.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/node_id.hpp"
#include "hash/hash_function.hpp"

namespace avmon {

/// Decides the monitoring relation. Implementations must be deterministic
/// (same answer forever — the Consistency property) and computable by any
/// third party from the two ids alone (the Verifiability property).
class MonitorSelector {
 public:
  virtual ~MonitorSelector() = default;

  /// True iff `observer` ∈ PS(`target`), i.e. observer monitors target.
  /// Never true when observer == target (self-monitoring is the
  /// self-reporting anti-pattern AVMON exists to avoid).
  virtual bool isMonitor(const NodeId& observer, const NodeId& target) const = 0;

  /// For reports.
  virtual std::string describe() const = 0;

  /// True when one isMonitor call costs more than a probe of a verdict
  /// cache, i.e. a MemoizedMonitorSelector in front of this one pays off.
  virtual bool worthMemoizing() const { return false; }
};

/// The paper's hash-based selection scheme.
class HashMonitorSelector final : public MonitorSelector {
 public:
  /// `k` is the expected pinging-set size (paper: K = log2 N);
  /// `systemSize` is the a-priori stable size N. Requires k >= 1,
  /// systemSize >= 2, hash outliving this object.
  HashMonitorSelector(const hash::HashFunction& hash, unsigned k,
                      std::size_t systemSize);

  bool isMonitor(const NodeId& observer, const NodeId& target) const override;
  std::string describe() const override;
  /// Follows the hash: md5 and sha1 digests cost more than a memo probe,
  /// the splitmix64 pair fold costs less.
  bool worthMemoizing() const override { return hash_.costlyDigest(); }

  unsigned k() const noexcept { return k_; }
  std::size_t systemSize() const noexcept { return systemSize_; }

  /// The normalized hash H(observer ‖ target) in [0,1) — exposed so tests
  /// can validate uniformity and the threshold comparison.
  double hashPoint(const NodeId& observer, const NodeId& target) const;

  /// The decision threshold K/N.
  double threshold() const noexcept { return threshold_; }

 private:
  const hash::HashFunction& hash_;
  unsigned k_;
  std::size_t systemSize_;
  double threshold_;
  // Largest digest d with d·2^-64 <= threshold_ (the hashPoint rule, which
  // is monotone in d), so isMonitor compares integers: no conversion to
  // double, whose sign-dependent branch mispredicts on random digests.
  std::uint64_t maxDigest_;
};

/// Memoizing decorator: caches pair verdicts so repeated consistency checks
/// don't recompute an expensive hash. A selector is a pure function of the
/// two ids, so memoization cannot change any verdict; protocol-level
/// computation metrics are counted by the *nodes* per check performed, so
/// it is invisible to the measured results too.
///
/// It caches only when the inner selector says so (worthMemoizing());
/// otherwise it forwards every call and allocates nothing. bench_sim_core's
/// selector_<hash>_{direct,memo}_ns rows replay the checks of a SYNTH-BD
/// N = 2000 run (88% of them repeat an earlier pair); on 4-core x86-64 a
/// check costs, direct vs memoized, md5 286 vs 72 ns, sha1 558 vs 128 ns,
/// splitmix64 14 vs 52 ns: a splitmix64 digest is cheaper than the probe.
///
/// The cache is a flat open-addressing table — one probe, no allocation per
/// pair — bounded by kMaxSlots; once full, further distinct pairs are
/// computed directly. Not thread-safe: share one per single-threaded
/// simulation world (each ParallelScenarioRunner worker owns its own).
class MemoizedMonitorSelector final : public MonitorSelector {
 public:
  explicit MemoizedMonitorSelector(const MonitorSelector& inner)
      : inner_(inner) {
    if (inner_.worthMemoizing()) slots_.resize(kInitialSlots);
  }

  bool isMonitor(const NodeId& observer, const NodeId& target) const override;
  std::string describe() const override {
    return inner_.describe() + (slots_.empty() ? "" : " (memoized)");
  }

  /// Verdicts cached; always 0 when the inner selector is not worth
  /// memoizing.
  std::size_t cacheSize() const noexcept { return count_; }

 private:
  // One 16-byte slot: the packed observer id, and the packed target id
  // with an occupancy marker and the cached verdict in its free high bits
  // (ids occupy 48 bits).
  struct Slot {
    std::uint64_t observer = 0;
    std::uint64_t targetBits = 0;  // kOccupiedBit | verdict<<48 | target
  };
  static constexpr std::uint64_t kOccupiedBit = 1ULL << 63;
  static constexpr std::uint64_t kVerdictBit = 1ULL << 48;
  static constexpr std::uint64_t kIdMask = (1ULL << 48) - 1;
  static constexpr std::size_t kInitialSlots = 1u << 12;
  static constexpr std::size_t kMaxSlots = 1u << 21;  // 32 MiB ceiling

  void grow() const;

  const MonitorSelector& inner_;
  mutable std::vector<Slot> slots_;  // empty: forward every call
  mutable std::size_t count_ = 0;
};

}  // namespace avmon
