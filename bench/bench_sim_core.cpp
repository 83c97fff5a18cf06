// Simulator-core microbenchmarks: the perf trajectory of the event loop.
//
// Measures the hot paths the calendar-queue overhaul targets and compares
// them against the scheduler it replaced (std::priority_queue of
// std::function events, reimplemented here as LegacySimulator so the
// baseline never bit-rots). Self-timed with std::chrono — no Google
// Benchmark dependency — and emits a machine-readable BENCH_simcore.json
// so every future PR can extend the trajectory.
//
// Usage: bench_sim_core [--preset smoke|full] [--out PATH] [--million]
//   smoke     ~1 s, for CI artifact jobs
//   full      ~30 s, the checked-in trajectory point (default)
//   --million additionally runs the N = 10^6 memory-diet scenario
//             (examples/specs/million_node.spec in-process; minutes of
//             wall time and ~3 GB of RSS) and appends its rows
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include <thread>

#include <sys/resource.h>

#include "avmon/config.hpp"
#include "avmon/monitor_selector.hpp"
#include "avmon/notify_dedup.hpp"
#include "common.hpp"
#include "common/rng.hpp"
#include "experiments/metrics.hpp"
#include "experiments/protocol.hpp"
#include "experiments/protocol_registry.hpp"
#include "experiments/scenario.hpp"
#include "experiments/spec.hpp"
#include "golden_hash.hpp"
#include "hash/hash_function.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace avmon {
namespace {

// ---------------------------------------------------------------------------
// The pre-overhaul scheduler, verbatim: one binary heap of (when, seq,
// std::function). Every schedule is a heap sift of 56-byte events plus (for
// any capture over std::function's ~16-byte SBO) a heap allocation.
// ---------------------------------------------------------------------------
class LegacySimulator {
 public:
  using Action = std::function<void()>;

  SimTime now() const noexcept { return now_; }

  void at(SimTime when, Action action) {
    if (when < now_) when = now_;
    queue_.push(Event{when, nextSeq_++, std::move(action)});
  }

  void after(SimDuration delay, Action action) {
    at(now_ + delay, std::move(action));
  }

  void runUntil(SimTime until) {
    while (!queue_.empty() && queue_.top().when <= until) {
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      now_ = ev.when;
      ev.action();
    }
    if (now_ < until) now_ = until;
  }

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;
    Action action;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  SimTime now_ = 0;
  std::uint64_t nextSeq_ = 0;
};

using avmon::benchx::secondsSince;
using avmon::benchx::wallClockNow;

// Best-of-N wrapper: scheduler microbenchmarks on a shared box are noisy,
// and the *capability* of each implementation is its fastest observed run.
template <class Fn>
double bestOf(int runs, Fn&& measure) {
  double best = 0.0;
  for (int i = 0; i < runs; ++i) best = std::max(best, measure());
  return best;
}

// ---------------------------------------------------------------------------
// Workload 1: schedule/fire churn. `pending` self-rescheduling events with
// latency-scale delays (the shape of one-way message delivery). This is the
// microbench the >=2x acceptance criterion applies to.
// ---------------------------------------------------------------------------

// Self-rescheduling event. The capture (three pointers) fits InlineAction's
// buffer but exceeds std::function's SBO — exactly like the network's
// delivery closures, which carry a Message on top.
template <class Sched>
struct ChurnEvent {
  Sched* sched;
  Rng* rng;
  std::uint64_t* fired;
  std::uint64_t pad = 0;  // round the capture up to delivery-closure scale

  void operator()() {
    ++*fired;
    sched->after(static_cast<SimDuration>(1 + (rng->operator()() & 127)),
                 ChurnEvent{sched, rng, fired, pad});
  }
};

template <class Sched>
double scheduleFireEventsPerSec(std::size_t pending, std::uint64_t target) {
  Sched sched;
  Rng rng(42);
  std::uint64_t fired = 0;
  for (std::size_t i = 0; i < pending; ++i) {
    sched.at(static_cast<SimTime>(rng.below(128)),
             ChurnEvent<Sched>{&sched, &rng, &fired});
  }
  const auto start = wallClockNow();
  while (fired < target) {
    sched.runUntil(sched.now() + 1024);
  }
  return static_cast<double>(fired) / secondsSince(start);
}

// Workload 2: mixed tiers — 90% latency-scale delays, 10% minute-scale
// (periodic-timer shape). Exercises overflow promotion against the heap.
template <class Sched>
struct MixedEvent {
  Sched* sched;
  Rng* rng;
  std::uint64_t* fired;

  void operator()() {
    ++*fired;
    const std::uint64_t roll = rng->operator()();
    const SimDuration delay =
        (roll % 10 == 0) ? kMinute + static_cast<SimDuration>(roll & 1023)
                         : 1 + static_cast<SimDuration>(roll & 127);
    sched->after(delay, MixedEvent{sched, rng, fired});
  }
};

template <class Sched>
double mixedTierEventsPerSec(std::size_t pending, std::uint64_t target) {
  Sched sched;
  Rng rng(43);
  std::uint64_t fired = 0;
  for (std::size_t i = 0; i < pending; ++i) {
    sched.at(static_cast<SimTime>(rng.below(128)),
             MixedEvent<Sched>{&sched, &rng, &fired});
  }
  const auto start = wallClockNow();
  while (fired < target) {
    sched.runUntil(sched.now() + 4096);
  }
  return static_cast<double>(fired) / secondsSince(start);
}

// ---------------------------------------------------------------------------
// Workload 3: network send throughput — full send -> latency -> deliver
// cycles through the dense-slot switchboard.
// ---------------------------------------------------------------------------
class CountingEndpoint final : public sim::Endpoint {
 public:
  void onMessage(const NodeId&, const sim::Message&) override { ++received; }
  std::uint64_t received = 0;
};

double sendThroughputPerSec(std::size_t nodes, std::uint64_t messages) {
  sim::Simulator simulator;
  sim::Network net(simulator, sim::NetworkConfig{}, Rng(7));
  std::vector<CountingEndpoint> endpoints(nodes);
  std::vector<NodeId> ids;
  ids.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    ids.push_back(NodeId::fromIndex(static_cast<std::uint32_t>(i)));
    net.attach(ids[i], endpoints[i]);
    net.setUp(ids[i], true);
  }

  Rng rng(8);
  const auto start = wallClockNow();
  std::uint64_t sent = 0;
  while (sent < messages) {
    // A burst of sends from random sources, then drain the deliveries.
    for (int burst = 0; burst < 1024 && sent < messages; ++burst, ++sent) {
      const NodeId& from = ids[rng.index(nodes)];
      const NodeId& to = ids[rng.index(nodes)];
      net.send(from, to, sim::NotifyMessage{from, to});
    }
    simulator.runUntil(simulator.now() + 100);
  }
  simulator.runUntil(simulator.now() + kSecond);
  return static_cast<double>(sent) / secondsSince(start);
}

// ---------------------------------------------------------------------------
// Workload 4: RPC exchanges — the two-leg exchangeAsync every protocol
// tick rides, issued in bursts and settled (response leg and timeout
// backstop both fired) before the next burst.
// ---------------------------------------------------------------------------
double rpcExchangesPerSec(std::uint64_t calls) {
  sim::Simulator simulator;
  sim::Network net(simulator, sim::NetworkConfig{}, Rng(9));
  CountingEndpoint a, b;
  const NodeId idA = NodeId::fromIndex(1), idB = NodeId::fromIndex(2);
  net.attach(idA, a);
  net.attach(idB, b);
  net.setUp(idA, true);
  net.setUp(idB, true);

  std::uint64_t acked = 0;
  const auto start = wallClockNow();
  for (std::uint64_t issued = 0; issued < calls;) {
    for (int burst = 0; burst < 1024 && issued < calls; ++burst, ++issued) {
      net.exchangeAsync(idA, idB, sim::PingRequest{8},
                        [&acked](std::optional<sim::PingResponse> pong) {
                          if (pong) ++acked;
                        });
    }
    simulator.runUntil(simulator.now() + sim::NetworkConfig{}.rpcTimeout);
  }
  const double elapsed = secondsSince(start);
  if (acked != calls) std::fprintf(stderr, "rpc bench: missing acks!\n");
  return static_cast<double>(calls) / elapsed;
}

// ---------------------------------------------------------------------------
// Workload 5: NOTIFY dedup cache under a churning key stream (80% recent
// repeats, 20% fresh keys) at a capacity far below the key population —
// the long-churn regime the generational eviction is for.
// ---------------------------------------------------------------------------
double dedupOpsPerSec(std::uint64_t ops, double* suppressedOut) {
  NotifyDedupCache cache(4096);
  Rng rng(10);
  std::uint64_t fresh = 0;
  std::uint64_t suppressed = 0;
  const auto start = wallClockNow();
  for (std::uint64_t i = 0; i < ops; ++i) {
    std::uint64_t key;
    if (rng.chance(0.8) && fresh > 0) {
      key = splitmix64Mix(fresh - 1 - (rng() % std::min<std::uint64_t>(
                                                  fresh, 1024)));
    } else {
      key = splitmix64Mix(fresh++);
    }
    if (!cache.insert(key)) ++suppressed;
  }
  const double elapsed = secondsSince(start);
  *suppressedOut =
      static_cast<double>(suppressed) / static_cast<double>(ops);
  return static_cast<double>(ops) / elapsed;
}

// ---------------------------------------------------------------------------
// Workload 6: sharded single-scenario execution. ONE large AVMON world —
// the thing the per-scenario pool cannot parallelize — run through the
// ShardedSimulator at S = 1 vs S = 4. The acceptance bar is >= 1.5x with
// 4 shards on >= 4 cores; shard counts never change the metrics (pinned
// by sharded_sim_test), so this measures pure wall-clock.
// ---------------------------------------------------------------------------
struct ShardedRun {
  double seconds = 0.0;
  double eventsPerSec = 0.0;
};

ShardedRun shardedScenarioRun(unsigned shards, std::size_t n,
                              SimDuration horizon) {
  experiments::Scenario s;
  s.model = churn::Model::kSynth;  // churn keeps join/NOTIFY traffic flowing
  s.stableSize = n;
  s.horizon = horizon;
  s.warmup = horizon / 4;
  s.seed = 77;
  s.hashName = "splitmix64";
  s.shards = shards;
  experiments::ScenarioRunner runner(s);
  const auto start = wallClockNow();
  runner.run();
  ShardedRun result;
  result.seconds = secondsSince(start);
  result.eventsPerSec =
      static_cast<double>(runner.world().executedEvents()) / result.seconds;
  return result;
}

// ---------------------------------------------------------------------------
// Workload 7: metric-collection lanes. The same large world run twice —
// once with the materialized end-of-run scan (collectMetrics walks every
// node into sample vectors and a per-node table) and once with the
// streaming reducer pipeline (summary reducer only, so nothing per-node is
// ever retained). Compared on collection wall time and retained
// metric-state bytes; the streamed lane must hold strictly less. Peak RSS
// is recorded after each lane (streamed first — getrusage's high-water
// mark is monotone, so the later materialized reading shows how much the
// per-node tables raised it).
// ---------------------------------------------------------------------------
struct CollectionRun {
  double runSeconds = 0.0;
  double collectSeconds = 0.0;
  std::size_t stateBytes = 0;
  double peakRssKb = 0.0;
};

CollectionRun metricCollectionRun(bool streamed, std::size_t n,
                                  SimDuration horizon) {
  experiments::Scenario s;
  s.model = churn::Model::kSynth;
  s.stableSize = n;
  s.horizon = horizon;
  s.warmup = horizon / 4;
  s.seed = 78;
  s.hashName = "splitmix64";
  s.shards = 4;
  if (streamed) {
    s.metrics.window = kMinute;
    s.metrics.reducers = {"summary"};  // summary-only: no windowed rows
  }
  experiments::ScenarioRunner runner(s);
  CollectionRun result;
  const auto runStart = wallClockNow();
  runner.run();
  result.runSeconds = secondsSince(runStart);
  const auto start = wallClockNow();
  const experiments::MetricSet set = experiments::collectMetrics(runner);
  result.collectSeconds = secondsSince(start);
  result.stateBytes = set.metricStateBytes;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  result.peakRssKb = static_cast<double>(usage.ru_maxrss);
  return result;
}

// ---------------------------------------------------------------------------
// Workload 9: the consistency-check pair stream, direct vs memoized, per
// hash function. The stream is recorded from a real run — SYNTH-BD churn at
// N = 2000 with the paper's cvs = 4·⁴√N and K = log2 N, the scenario
// behind perfbench's synth-bd-2k — so it is exactly the sequence of checks
// AvmonNode::discoverPairs (CV(x) × CV(w), both directions, per fetch) and
// the NOTIFY handlers ask, with the run's own pair repetition, which is
// what a memo feeds on. The stream is then replayed against every
// selector, so each configuration answers the same questions in order.
// ---------------------------------------------------------------------------
using PairLog = std::vector<std::pair<NodeId, NodeId>>;

// Logs calls up to a cap (a whole run asks tens of millions), and forwards
// every call.
class PairRecorder final : public MonitorSelector {
 public:
  PairRecorder(const MonitorSelector& inner, PairLog& log, std::size_t cap)
      : inner_(inner), log_(log), cap_(cap) {}
  bool isMonitor(const NodeId& observer, const NodeId& target) const override {
    if (log_.size() < cap_) log_.emplace_back(observer, target);
    return inner_.isMonitor(observer, target);
  }
  std::string describe() const override { return inner_.describe(); }

 private:
  const MonitorSelector& inner_;
  PairLog& log_;
  std::size_t cap_;
};

// Where, and how much, the running PairLogProtocol records.
constexpr const char* kPairLogProtocol = "avmon-pairlog";
PairLog* gPairLog = nullptr;
std::size_t gPairLogCap = 0;

// The "avmon" protocol, built with memos in front of a PairRecorder. The
// recorder is not worth memoizing, so the memos forward every check to it.
class PairLogProtocol final : public experiments::Protocol {
 public:
  PairLogProtocol()
      : inner_(experiments::ProtocolRegistry::instance().create("avmon")) {}

  std::string name() const override { return kPairLogProtocol; }
  void build(const experiments::ProtocolContext& ctx) override {
    recorder_ = std::make_unique<PairRecorder>(ctx.selector, *gPairLog,
                                               gPairLogCap);
    for (std::size_t s = 0; s < ctx.world.shardCount(); ++s) {
      memos_.push_back(std::make_unique<MemoizedMonitorSelector>(*recorder_));
    }
    inner_->build({ctx.scenario, ctx.effectiveN, ctx.config, ctx.world,
                   ctx.trace, ctx.hashFn, ctx.selector, memos_, ctx.rootRng,
                   ctx.adversary});
  }
  void onJoin(const NodeId& id, bool firstJoin) override {
    inner_->onJoin(id, firstJoin);
  }
  void onLeave(const NodeId& id) override { inner_->onLeave(id); }
  void onDeath(const NodeId& id) override { inner_->onDeath(id); }
  void forEachNode(
      const std::function<void(const NodeId&)>& fn) const override {
    inner_->forEachNode(fn);
  }
  std::optional<SimDuration> discoveryDelay(const NodeId& id,
                                            std::size_t k) const override {
    return inner_->discoveryDelay(id, k);
  }
  std::size_t memoryEntries(const NodeId& id) const override {
    return inner_->memoryEntries(id);
  }
  const AvmonNode* avmonNode(const NodeId& id) const override {
    return inner_->avmonNode(id);
  }
  AvmonNode* mutableAvmonNode(const NodeId& id) override {
    return inner_->mutableAvmonNode(id);
  }

 private:
  std::unique_ptr<experiments::Protocol> inner_;
  std::unique_ptr<PairRecorder> recorder_;
  std::vector<std::unique_ptr<MemoizedMonitorSelector>> memos_;
};

// The first `cap` checks of a SYNTH-BD N = 2000 run (one shard, so the
// recorder sees them in execution order).
PairLog recordPairStream(std::size_t cap) {
  auto& registry = experiments::ProtocolRegistry::instance();
  if (registry.find(kPairLogProtocol) == nullptr) {
    registry.add({kPairLogProtocol, "AVMON with its consistency checks logged",
                  /*maxShards=*/1,
                  [] { return std::make_unique<PairLogProtocol>(); }});
  }
  PairLog log;
  log.reserve(cap);
  gPairLog = &log;
  gPairLogCap = cap;
  experiments::Scenario s;
  s.protocol = kPairLogProtocol;
  s.model = churn::Model::kSynthBD;
  s.stableSize = 2000;
  s.horizon = 10 * kMinute;
  s.warmup = 4 * kMinute;
  s.seed = 13;
  s.hashName = "splitmix64";
  experiments::ScenarioRunner runner(s);
  runner.run();
  gPairLog = nullptr;
  return log;
}

// Claims its inner selector is worth memoizing, so a memo caches in front
// of any hash (a memo over plain splitmix64 would forward instead).
class AlwaysMemoize final : public MonitorSelector {
 public:
  explicit AlwaysMemoize(const MonitorSelector& inner) : inner_(inner) {}
  bool isMonitor(const NodeId& observer, const NodeId& target) const override {
    return inner_.isMonitor(observer, target);
  }
  std::string describe() const override { return inner_.describe(); }
  bool worthMemoizing() const override { return true; }

 private:
  const MonitorSelector& inner_;
};

// Best-of-`reps` mean ns per check over the whole stream. The memo lane
// starts each rep from a fresh (empty) memo, so its cost includes the
// misses that fill the table, as in a run.
double selectorNsPerCheck(const PairLog& stream, const MonitorSelector& sel,
                          bool memoized, int reps) {
  double best = 0.0;
  std::uint64_t verdicts = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = wallClockNow();
    const AlwaysMemoize forced(sel);
    std::optional<MemoizedMonitorSelector> memo;
    if (memoized) memo.emplace(forced);
    const MonitorSelector& asked =
        memo ? static_cast<const MonitorSelector&>(*memo) : sel;
    for (const auto& [observer, target] : stream) {
      verdicts += asked.isMonitor(observer, target);
    }
    const double ns =
        secondsSince(start) * 1e9 / static_cast<double>(stream.size());
    if (rep == 0 || ns < best) best = ns;
  }
  // The verdict count keeps the loop from being optimized away.
  if (verdicts == ~std::uint64_t{0}) std::printf("(unreachable)\n");
  return best;
}

struct Row {
  std::string name;
  double value;
  std::string unit;
  /// Optional qualifier emitted into the JSON (the golden fingerprint of
  /// the million-node run).
  std::string note{};
};

// ---------------------------------------------------------------------------
// Workload 8 (--million): the ROADMAP million-node scenario — N = 10^6
// through the memory diet (shared node config, compact histories, streamed
// metrics, sharded execution). Mirrors examples/specs/million_node.spec
// exactly; the smoke-scale twin of that spec is pinned by
// scenario_metrics_test, and this run reports the full-scale golden
// fingerprint in its row note.
// ---------------------------------------------------------------------------
struct MillionRun {
  double seconds = 0.0;
  double eventsPerSec = 0.0;
  double peakRssKb = 0.0;
  std::uint64_t fingerprint = 0;
};

MillionRun millionNodeRun(std::size_t n) {
  experiments::Scenario s;
  s.model = churn::Model::kStat;
  s.stableSize = n;
  s.horizon = 3 * kMinute;
  s.warmup = 1 * kMinute;
  s.seed = 1000003;
  s.hashName = "splitmix64";
  s.configOverride = experiments::cvsKOverride(s.model, n, /*cvs=*/4, /*k=*/1);
  s.shards = 4;
  s.history = "compact";
  s.metrics.window = kMinute;
  s.metrics.reducers = {"summary"};
  experiments::ScenarioRunner runner(s);
  MillionRun result;
  const auto start = wallClockNow();
  runner.run();
  result.seconds = secondsSince(start);
  result.eventsPerSec =
      static_cast<double>(runner.world().executedEvents()) / result.seconds;
  result.fingerprint = experiments::summaryHash(runner);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  result.peakRssKb = static_cast<double>(usage.ru_maxrss);
  return result;
}

}  // namespace
}  // namespace avmon

int main(int argc, char** argv) {
  using namespace avmon;

  std::string preset = "full";
  std::string outPath = "BENCH_simcore.json";
  bool million = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--preset" && i + 1 < argc) {
      preset = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      outPath = argv[++i];
    } else if (arg == "--million") {
      million = true;
    } else {
      std::fprintf(
          stderr,
          "usage: %s [--preset smoke|full] [--out PATH] [--million]\n"
          "  smoke     ~1 s, for CI artifact jobs\n"
          "  full      ~30 s, the checked-in trajectory point (default)\n"
          "  --million append the N = 10^6 memory-diet rows (minutes, ~3 GB)\n",
          argv[0]);
      return 2;
    }
  }
  if (preset != "smoke" && preset != "full") {
    std::fprintf(stderr, "unknown preset '%s' (smoke|full)\n",
                 preset.c_str());
    return 2;
  }
  const bool smoke = preset == "smoke";

  // Smoke shortens the measurement, not the workload shape: the pending-
  // event population sets the heap depth the baseline pays, so shrinking
  // it would understate the comparison.
  const std::size_t pending = 10'000;
  const std::uint64_t fireTarget = smoke ? 200'000 : 2'000'000;
  const std::uint64_t sendTarget = smoke ? 100'000 : 1'000'000;
  const std::uint64_t rpcTarget = smoke ? 200'000 : 2'000'000;
  const std::uint64_t dedupTarget = smoke ? 500'000 : 5'000'000;

  std::vector<Row> rows;

  const int reps = smoke ? 2 : 3;
  const double calendarEps = bestOf(reps, [&] {
    return scheduleFireEventsPerSec<sim::Simulator>(pending, fireTarget);
  });
  const double legacyEps = bestOf(reps, [&] {
    return scheduleFireEventsPerSec<LegacySimulator>(pending, fireTarget);
  });
  const double speedup = calendarEps / legacyEps;
  rows.push_back({"schedule_fire_calendar", calendarEps, "events/sec"});
  rows.push_back({"schedule_fire_priority_queue", legacyEps, "events/sec"});
  rows.push_back({"schedule_fire_speedup", speedup, "x"});
  rows.push_back(
      {"schedule_fire_latency", 1e9 / calendarEps, "ns/event"});

  const double calendarMixed = bestOf(reps, [&] {
    return mixedTierEventsPerSec<sim::Simulator>(pending, fireTarget);
  });
  const double legacyMixed = bestOf(reps, [&] {
    return mixedTierEventsPerSec<LegacySimulator>(pending, fireTarget);
  });
  rows.push_back({"mixed_tier_calendar", calendarMixed, "events/sec"});
  rows.push_back({"mixed_tier_priority_queue", legacyMixed, "events/sec"});
  rows.push_back({"mixed_tier_speedup", calendarMixed / legacyMixed, "x"});

  rows.push_back(
      {"send_throughput", sendThroughputPerSec(1000, sendTarget),
       "msgs/sec"});
  rows.push_back({"rpc_exchange_deferred", rpcExchangesPerSec(rpcTarget),
                  "calls/sec"});

  double suppressedFraction = 0.0;
  rows.push_back(
      {"notify_dedup", dedupOpsPerSec(dedupTarget, &suppressedFraction),
       "ops/sec"});
  rows.push_back(
      {"notify_dedup_suppressed", suppressedFraction, "fraction"});

  // Sharded single-scenario section. Smoke shrinks the world, not the
  // structure, so the JSON shape is identical across presets.
  const std::size_t shardedN = smoke ? 600 : 2000;
  const SimDuration shardedHorizon = smoke ? 8 * kMinute : 20 * kMinute;
  const ShardedRun oneShard = shardedScenarioRun(1, shardedN, shardedHorizon);
  const ShardedRun fourShards = shardedScenarioRun(4, shardedN, shardedHorizon);
  const double shardedSpeedup = oneShard.seconds / fourShards.seconds;
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  rows.push_back({"sharded_scenario_1shard", oneShard.eventsPerSec,
                  "events/sec"});
  rows.push_back({"sharded_scenario_4shards", fourShards.eventsPerSec,
                  "events/sec"});
  rows.push_back(
      {"sharded_scenario_speedup_4shards", shardedSpeedup, "x"});
  rows.push_back({"sharded_hw_threads", static_cast<double>(cores),
                  "threads"});
  if (shardedSpeedup < 1.5) {
    std::printf(
        "WARNING: sharded 4-shard speedup %.2fx below the 1.5x target\n",
        shardedSpeedup);
  }

  // Metric-collection lanes (streamed first; see the workload comment for
  // why the RSS readings are order-sensitive).
  const CollectionRun streamedLane =
      metricCollectionRun(/*streamed=*/true, shardedN, shardedHorizon);
  const CollectionRun materializedLane =
      metricCollectionRun(/*streamed=*/false, shardedN, shardedHorizon);
  rows.push_back({"metrics_streamed_collect_ms",
                  streamedLane.collectSeconds * 1e3, "ms"});
  rows.push_back({"metrics_materialized_collect_ms",
                  materializedLane.collectSeconds * 1e3, "ms"});
  rows.push_back({"metrics_streamed_state_bytes",
                  static_cast<double>(streamedLane.stateBytes), "bytes"});
  rows.push_back({"metrics_materialized_state_bytes",
                  static_cast<double>(materializedLane.stateBytes), "bytes"});
  rows.push_back({"metrics_state_ratio",
                  static_cast<double>(materializedLane.stateBytes) /
                      static_cast<double>(streamedLane.stateBytes),
                  "x"});
  rows.push_back({"metrics_streamed_run_overhead",
                  streamedLane.runSeconds / materializedLane.runSeconds,
                  "x"});
  rows.push_back({"metrics_peak_rss_after_streamed_kb",
                  streamedLane.peakRssKb, "kb"});
  rows.push_back({"metrics_peak_rss_after_materialized_kb",
                  materializedLane.peakRssKb, "kb"});
  if (streamedLane.stateBytes >= materializedLane.stateBytes) {
    std::printf(
        "WARNING: streamed metric state (%zu B) not below materialized "
        "(%zu B)\n",
        streamedLane.stateBytes, materializedLane.stateBytes);
  }

  // Consistency-check cost per hash, direct vs through the verdict memo:
  // the ledger behind MonitorSelector::worthMemoizing().
  const PairLog pairStream = recordPairStream(smoke ? (1u << 18) : (1u << 21));
  {
    // The property a memo feeds on: the share of checks that repeat an
    // earlier (observer, target) pair.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> keys;
    keys.reserve(pairStream.size());
    for (const auto& [observer, target] : pairStream) {
      keys.emplace_back(observer.packed(), target.packed());
    }
    std::sort(keys.begin(), keys.end());
    const auto distinct = static_cast<double>(
        std::unique(keys.begin(), keys.end()) - keys.begin());
    rows.push_back({"selector_stream_repeat_fraction",
                    1.0 - distinct / static_cast<double>(pairStream.size()),
                    "fraction"});
  }
  for (const char* hashName : {"md5", "sha1", "splitmix64"}) {
    const auto fn = hash::makeHashFunction(hashName);
    const HashMonitorSelector sel(*fn, defaultK(2000), 2000);
    const std::string prefix = std::string("selector_") + hashName;
    rows.push_back({prefix + "_direct_ns",
                    selectorNsPerCheck(pairStream, sel, false, reps),
                    "ns/check"});
    rows.push_back({prefix + "_memo_ns",
                    selectorNsPerCheck(pairStream, sel, true, reps),
                    "ns/check"});
  }

  if (million) {
    // Run last: getrusage's high-water mark is monotone, so everything
    // before this point is guaranteed smaller than the million-node peak.
    const std::size_t millionN = 1'000'000;
    const MillionRun run = millionNodeRun(millionN);
    char fingerprint[32];
    std::snprintf(fingerprint, sizeof fingerprint, "0x%016llx",
                  static_cast<unsigned long long>(run.fingerprint));
    rows.push_back({"million_node_events_per_sec", run.eventsPerSec,
                    "events/sec", fingerprint});
    rows.push_back({"million_node_wall", run.seconds, "sec"});
    rows.push_back({"million_node_peak_rss_kb", run.peakRssKb, "kb"});
    rows.push_back({"million_node_peak_rss_bytes_per_node",
                    run.peakRssKb * 1024.0 / static_cast<double>(millionN),
                    "bytes/node"});
    std::printf("million-node golden fingerprint: %s\n", fingerprint);
  }

  std::printf("# bench_sim_core (%s preset)\n", preset.c_str());
  for (const Row& row : rows) {
    if (row.unit == "x" || row.unit == "fraction") {
      std::printf("%-32s %14.2f %s\n", row.name.c_str(), row.value,
                  row.unit.c_str());
    } else {
      std::printf("%-32s %14.0f %s\n", row.name.c_str(), row.value,
                  row.unit.c_str());
    }
  }
  if (speedup < 2.0) {
    std::printf("WARNING: schedule/fire speedup %.2fx below the 2x target\n",
                speedup);
  }

  if (std::FILE* out = std::fopen(outPath.c_str(), "w")) {
    std::fprintf(out, "{\n  \"bench\": \"bench_sim_core\",\n");
    std::fprintf(out, "  \"preset\": \"%s\",\n", preset.c_str());
    std::fprintf(out, "  \"results\": [\n");
    // Four decimals keep fraction rows (e.g. a 0.88 repeat fraction) and
    // ns rows near 10 from being rounded away.
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (rows[i].note.empty()) {
        std::fprintf(out,
                     "    {\"name\": \"%s\", \"value\": %.4f, \"unit\": "
                     "\"%s\"}%s\n",
                     rows[i].name.c_str(), rows[i].value,
                     rows[i].unit.c_str(), i + 1 < rows.size() ? "," : "");
      } else {
        std::fprintf(out,
                     "    {\"name\": \"%s\", \"value\": %.4f, \"unit\": "
                     "\"%s\", \"note\": \"%s\"}%s\n",
                     rows[i].name.c_str(), rows[i].value,
                     rows[i].unit.c_str(), rows[i].note.c_str(),
                     i + 1 < rows.size() ? "," : "");
      }
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", outPath.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", outPath.c_str());
    return 1;
  }
  return 0;
}
