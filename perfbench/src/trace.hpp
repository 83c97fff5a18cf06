// Outside-in tracing for the benchmark: per-shard accumulators filled by
// the wrappers in traced_protocol.hpp around calls into the library's
// public seams, plus an in-memory span log written out when the run ends.
//
// Nothing here is linked into the program under test. Every timing is a
// steady_clock read taken in the benchmark's own code, around a public
// call: the protocol decorator's lifecycle and probe calls, the timing
// endpoints' message and RPC handlers, and the counting selector below
// the per-shard memo.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t nowNs() {
  // lint:allow(wall-clock, the benchmark's timer: spans and end-to-end timings are wall time by definition; never linked into the program under test)
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

inline double secondsSince(std::int64_t startNs) {
  return static_cast<double>(nowNs() - startNs) * 1e-9;
}

/// Counts every call and times every `period`-th one; the total is the
/// sampled time scaled by calls / sampled. Sampling keeps the clock reads
/// off the hottest paths (timing every hash evaluation costs a quarter of
/// a run).
struct SampledTimer {
  std::uint64_t calls = 0;
  std::uint64_t sampled = 0;
  std::int64_t sampledNs = 0;

  double seconds() const {
    if (sampled == 0) return 0.0;
    return static_cast<double>(sampledNs) * 1e-9 *
           static_cast<double>(calls) / static_cast<double>(sampled);
  }
  void merge(const SampledTimer& o) {
    calls += o.calls;
    sampled += o.sampled;
    sampledNs += o.sampledNs;
  }
};

/// Which wrapped span a shard is inside, so selector time can be charged
/// to the span that caused it (self time = span - children).
enum class Parent : std::uint8_t { kNone, kMessage, kRpc, kLifecycle, kCount };
constexpr std::size_t kParents = static_cast<std::size_t>(Parent::kCount);

/// One recorded span. `parent` is the id of the span that caused it (0 for
/// a root). Handler spans are sampled; phase spans are all kept.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  const char* name = "";
  std::uint32_t shard = 0;
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
};

/// Accumulators of one shard. A shard's sub-world runs on one worker at a
/// time (window barriers order the hand-over between workers), so plain
/// fields are race-free; the alignment keeps shards off each other's
/// cache lines.
struct alignas(64) ShardTrace {
  // avmon.msg_calls.{join,notify,force_add,other} and their summed time.
  std::array<std::uint64_t, 4> msgCalls{};
  std::int64_t msgNs = 0;
  // avmon.rpc_calls.{ping,cv_fetch,swap,monitor_ping}.
  std::array<std::uint64_t, 4> rpcCalls{};
  std::int64_t rpcNs = 0;
  // churn: onJoin / onLeave / onDeath through the protocol seam.
  std::uint64_t lifecycleCalls = 0;
  std::int64_t lifecycleNs = 0;
  // experiments: harness -> protocol probes, [0] during run(), [1] during
  // collectMetrics().
  std::array<SampledTimer, 2> probes{};
  // avmon.selector: evaluations that got past the memo to the hash,
  // split by the wrapped span they happened under.
  std::array<SampledTimer, kParents> hashEvals{};

  Parent current = Parent::kNone;
  std::uint64_t currentSpan = 0;
  std::uint64_t handlerSeq = 0;
  std::vector<Span> spans;

  void merge(const ShardTrace& o);
};

/// Every handler span with (sequence % kSpanSample == 0) is kept in the
/// span log; the rest only feed the accumulators.
constexpr std::uint64_t kSpanSample = 4096;
/// Hash evaluations are timed 1 in kHashSample, probes 1 in kProbeSample.
constexpr std::uint64_t kHashSample = 64;
constexpr std::uint64_t kProbeSample = 16;

/// Per-run trace: one ShardTrace per shard plus the main thread's phase
/// spans. Span ids are (shard + 1) << 48 | local sequence, so shards never
/// need to agree on a counter.
class Tracer {
 public:
  void reset(std::size_t shards);
  ShardTrace& shard(std::size_t s) { return shards_[s]; }

  /// Which measured phase the run is in. Set by the main thread between
  /// phases, never during a window. Probe calls outside run() and
  /// collectMetrics() (the fingerprint, the counter reads) are not
  /// accumulated.
  enum class Phase : std::uint8_t { kOff, kRun, kCollect };
  Phase phase = Phase::kOff;

  /// Opens a main-thread phase span; close it with endPhase().
  std::uint64_t beginPhase(const char* name, std::uint64_t parent = 0);
  void endPhase(std::uint64_t id);

  /// Sum over shards.
  ShardTrace merged() const;

  /// Writes every span (phase spans and sampled handler spans) as JSON.
  bool writeSpans(const std::string& path, const std::string& label) const;

 private:
  std::vector<ShardTrace> shards_;
  std::vector<Span> phases_;
  std::uint64_t phaseSeq_ = 0;
};

}  // namespace perfbench
