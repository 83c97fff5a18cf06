// The two simulated workloads, stat-20k and synth-bd-2k.
//
// An untraced run repeats one seeded scenario (ScenarioRunner construction,
// run(), collectMetrics()) until --seconds is used, reporting the medians
// of the end-to-end timings and checking every repetition's summaryHash
// against the first. A traced run makes one untraced repetition, then one
// through the timing decorator (traced_protocol.hpp), checks the two
// fingerprints are equal, and reports the per-layer table.
#include <algorithm>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>

#include "experiments/metrics.hpp"
#include "experiments/scenario.hpp"
#include "golden_hash.hpp"
#include "hash/hash_function.hpp"
#include "report.hpp"
#include "traced_protocol.hpp"

namespace perfbench {

namespace experiments = avmon::experiments;
using experiments::Scenario;
using experiments::ScenarioRunner;

namespace {

/// Sanity limits on the fidelity metrics. Pure performance changes leave
/// them bit-identical; a declared semantics change must stay inside them.
struct FidelityLimits {
  double minDiscovered = 0.0;
  double maxAvailErr = 1.0;
  std::size_t minAccuracyNodes = 0;
};

struct SimShape {
  /// The scenario each draw runs; draw 0 is the one --seed names.
  std::vector<Scenario> draws;
  FidelityLimits limits;
};

/// Seed of draw i > 0 of a run: splitmix64 of (seed, i), so the draws of
/// different seeds do not overlap.
std::uint64_t drawSeed(std::uint64_t seed, std::size_t i) {
  if (i == 0) return seed;
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(i);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

SimShape makeShape(const RunOptions& o) {
  const bool tiny = o.size == "tiny";
  std::ostringstream spec;
  FidelityLimits limits;
  std::size_t draws = 1;
  if (o.workload == "stat-20k") {
    // The shape of examples/specs/million_node_smoke.spec at N = 2*10^4: a
    // join storm, then a steady state of tiny coarse views (cvs = 4, K = 1)
    // where the per-window machinery of 4 shards dominates.
    spec << "model = STAT\n"
         << "n = " << (tiny ? 2000 : 20000) << "\n"
         << "horizon_min = 12\n"
         << "warmup_min = 1\n"
         << "hash = splitmix64\ncvs = 4\nk = 1\nshards = 4\n"
         << "history = compact\nmetrics.window = 60\nmetrics.reducers = summary\n"
         << "measured = all\n";
    // One expected monitor per node (K = 1) behind four-entry views: the
    // paper's discovery time grows as N / |CV|^2 periods, so in 12
    // minutes only a few dozen of the 22000 trace nodes find theirs
    // (seeds 1-10 and 1000003: 0.00145-0.00245, 10-23 of them with an
    // estimate; tiny, N = 2000: 0.017-0.020). Every node is measured so
    // those few are seen at all.
    // STAT never churns, so every estimate must be all but exact.
    limits.minDiscovered = tiny ? 0.01 : 0.001;
    limits.maxAvailErr = 0.05;
    limits.minAccuracyNodes = 5;
  } else if (o.workload == "synth-bd-2k") {
    // The paper's Figure 5 churn model with paper-default CV/K, raw
    // histories and the materialized metric scan, on one shard: every
    // protocol period checks ~2|CV|^2 pairs, so monitor selection (and
    // the memo in front of the hash) dominates. Every node is measured so
    // the fidelity metrics average over the whole population.
    //
    // What a scenario costs depends on its draw: the monitoring
    // relationships found and the memo's hit ratio differ from seed to
    // seed (seeds 12 and 14 at a 15-minute horizon: 6.5k vs 11.8k
    // pinging-set entries, hit ratio 0.95 vs 0.75, 752k vs 898k events).
    // So a round runs ten draws of 10 minutes each (--seed's own
    // scenario and nine derived from it) and its time is their mean: one
    // draw alone spreads a seed sweep past the benchmark's bounds.
    draws = tiny ? 2 : 10;
    spec << "model = SYNTH-BD\n"
         << "n = " << (tiny ? 300 : 2000) << "\n"
         << "horizon_min = " << (tiny ? 12 : 10) << "\n"
         << "warmup_min = 4\n"
         << "hash = splitmix64\nmeasured = all\nshards = 1\n";
    // Paper Section 5: under SYNTH-BD a node discovers its first monitor
    // within a few protocol periods of joining, and Figure 17's honest
    // estimates sit within a few percent of the truth. Nodes born in the
    // horizon's last minutes, or gone again within one period, have not
    // had that time: draws give 0.85-0.92 at 10 minutes, so the floor is
    // 0.75.
    limits.minDiscovered = 0.75;
    limits.maxAvailErr = 0.1;
    limits.minAccuracyNodes = 1;
  } else {
    throw std::invalid_argument("unknown sim workload: " + o.workload);
  }
  SimShape shape;
  shape.limits = limits;
  for (std::size_t i = 0; i < draws; ++i) {
    Scenario scenario =
        Scenario::fromSpec(spec.str() + "seed = " + std::to_string(drawSeed(o.seed, i)) + "\n");
    if (o.shards > 0) scenario.shards = o.shards;
    scenario.validate();
    shape.draws.push_back(std::move(scenario));
  }
  return shape;
}

struct Fidelity {
  double discoveredFraction = 0.0;
  double discoveryP50 = 0.0;
  double availErrMean = 0.0;
  std::size_t accuracyNodes = 0;
};

Fidelity fidelityOf(const experiments::MetricSet& ms) {
  Fidelity f;
  f.availErrMean = ms.accuracyMeanAbsError().value_or(0.0);
  f.accuracyNodes = ms.accuracyNodeCount();
  if (ms.streamed) {
    f.discoveredFraction = ms.streamed->discoveredFraction();
    if (ms.streamed->discoverySeconds.stats.count() > 0) {
      f.discoveryP50 = ms.streamed->discoverySeconds.sketch.quantile(0.5);
    }
  } else {
    f.discoveredFraction = ms.discoveredFraction;
    if (!ms.discoverySeconds.empty()) f.discoveryP50 = quantile(ms.discoverySeconds, 0.5);
  }
  return f;
}

struct Rep {
  double setupS = 0.0;
  double runS = 0.0;
  double collectS = 0.0;
  double cpuS = 0.0;
  std::uint64_t events = 0;
  std::uint64_t fingerprint = 0;
  std::size_t nodes = 0;
  Fidelity fidelity;
};

using Inspect = std::function<void(const ScenarioRunner&,
                                   const experiments::MetricSet&, const Rep&)>;

/// One repetition: construct, run, collect (timed), then fingerprint and
/// hand the live runner to `inspect` (untimed). With a tracer, the phases
/// are recorded as spans and probes are counted during run and collect.
Rep runRep(const Scenario& scenario, Tracer* tracer, const Inspect& inspect) {
  Rep rep;
  const std::int64_t start = nowNs();
  const std::uint64_t setupSpan = tracer ? tracer->beginPhase("experiments.setup") : 0;
  ScenarioRunner runner(scenario);
  rep.setupS = secondsSince(start);
  if (tracer) tracer->endPhase(setupSpan);

  const double cpu0 = processCpuSeconds();
  const std::int64_t runStart = nowNs();
  const std::uint64_t runSpan = tracer ? tracer->beginPhase("run") : 0;
  if (tracer) tracer->phase = Tracer::Phase::kRun;
  runner.run();
  const std::int64_t collectStart = nowNs();
  std::uint64_t collectSpan = 0;
  if (tracer) {
    collectSpan = tracer->beginPhase("experiments.collect", runSpan);
    tracer->phase = Tracer::Phase::kCollect;
  }
  const experiments::MetricSet ms = experiments::collectMetrics(runner);
  if (tracer) {
    tracer->phase = Tracer::Phase::kOff;
    tracer->endPhase(collectSpan);
    tracer->endPhase(runSpan);
  }
  rep.collectS = secondsSince(collectStart);
  rep.runS = secondsSince(runStart);
  rep.cpuS = processCpuSeconds() - cpu0;

  rep.events = runner.world().executedEvents();
  rep.nodes = runner.schedule().nodes().size();
  rep.fingerprint = experiments::summaryHash(runner);
  rep.fidelity = fidelityOf(ms);
  if (inspect) inspect(runner, ms, rep);
  return rep;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Checks one repetition against the reference fingerprint and the
/// fidelity limits; returns whether every check passed.
bool checkRep(Report& report, const Rep& rep, std::uint64_t expected,
              const FidelityLimits& limits, const std::string& what) {
  bool ok = report.check(what + ".fingerprint", rep.fingerprint == expected,
                         hex(rep.fingerprint) + " vs " + hex(expected));
  const Fidelity& f = rep.fidelity;
  ok &= report.check(what + ".discovered_fraction",
                     f.discoveredFraction >= limits.minDiscovered &&
                         f.discoveredFraction <= 1.0,
                     std::to_string(f.discoveredFraction));
  ok &= report.check(what + ".avail_err_mean",
                     f.accuracyNodes >= limits.minAccuracyNodes &&
                         f.availErrMean <= limits.maxAvailErr,
                     std::to_string(f.availErrMean) + " over " +
                         std::to_string(f.accuracyNodes) + " nodes");
  return ok;
}

void addFidelity(Report& report, const Fidelity& f) {
  report.metric("experiments.discovered_fraction", f.discoveredFraction, "ratio");
  report.metric("experiments.discovery_p50_s", f.discoveryP50, "s");
  report.metric("experiments.avail_err_mean", f.availErrMean, "ratio");
  report.metric("experiments.accuracy_nodes", static_cast<double>(f.accuracyNodes), "count");
}

/// Set-ups timed per run at least: set-up is milliseconds, so the extra
/// constructions cost little and steady the median.
constexpr std::size_t kMinSetups = 15;

/// The timings of one round: every draw run once.
struct Round {
  double runS = 0.0;
  double cpuS = 0.0;
  std::uint64_t events = 0;
};

Report untracedRun(const RunOptions& o, const SimShape& shape) {
  Report report;
  const std::size_t draws = shape.draws.size();
  // A world on one worker is single-threaded: each repetition then runs
  // on the next CPU in turn, so every round samples every core.
  const bool rotate = shape.draws[0].shards == 1;
  std::size_t executions = 0;
  std::vector<double> setup;
  std::vector<std::uint64_t> expected(draws, 0);
  std::vector<bool> haveReference(draws, false);

  // Runs draw i once; checks it against that draw's first run.
  const auto execute = [&](std::size_t i) {
    if (rotate) pinToCpu(executions);
    executions += 1;
    const Rep rep = runRep(shape.draws[i], nullptr, {});
    if (!haveReference[i]) {
      expected[i] = rep.fingerprint ^ (o.corruptExpected ? 1 : 0);
      haveReference[i] = true;
      if (i == 0) report.note("fingerprint", hex(rep.fingerprint));
    }
    report.attempted += 1;
    if (!checkRep(report, rep, expected[i], shape.limits,
                  "draw" + std::to_string(i) + ".exec" + std::to_string(executions))) {
      report.failed += 1;
    }
    setup.push_back(rep.setupS);
    return rep;
  };

  // Warm-up, untimed: the first run of a process pays for fresh pages and
  // a cold allocator. Its peak RSS is the memory figure: later runs reuse
  // freed memory, so their peak says more about the allocator.
  const std::int64_t start = nowNs();
  const Rep first = execute(0);
  const double firstPeakRss = peakRssBytes();

  // Timed rounds while the time lasts, at least one. The warm-up is the
  // repeat draw 0 is checked against; the other draws are checked against
  // their own repeats when a run has time for a second round.
  std::vector<Round> rounds;
  std::vector<double> roundWall;
  while (rounds.empty() ||
         (secondsSince(start) + median(roundWall) <= o.seconds && rounds.size() < 200)) {
    const std::int64_t roundStart = nowNs();
    Round round;
    for (std::size_t i = 0; i < draws; ++i) {
      const Rep rep = execute(i);
      round.runS += rep.runS;
      round.cpuS += rep.cpuS;
      round.events += rep.events;
    }
    rounds.push_back(round);
    roundWall.push_back(secondsSince(roundStart));
  }
  if (rotate) unpinCpu();

  std::vector<double> run, cpu, rate;
  for (const Round& r : rounds) {
    run.push_back(r.runS / static_cast<double>(draws));
    cpu.push_back(r.cpuS / static_cast<double>(draws));
    rate.push_back(static_cast<double>(r.events) / r.runS);
  }
  while (setup.size() < kMinSetups) {
    const std::int64_t t0 = nowNs();
    const ScenarioRunner runner(shape.draws[0]);
    setup.push_back(secondsSince(t0));
  }
  report.metric("setup_s", median(setup), "s");
  report.metric("run_s", median(run), "s");
  report.metric("cpu_s", median(cpu), "s");
  report.metric("bytes_per_node", firstPeakRss / static_cast<double>(first.nodes), "B");
  report.metric("ops_per_s", median(rate), "1/s");
  report.note("draws", std::to_string(draws));
  report.note("rounds", std::to_string(rounds.size()));
  report.note("setups", std::to_string(setup.size()));
  std::string runs;
  for (const double r : run) runs += (runs.empty() ? "" : " ") + std::to_string(r);
  report.note("run_s_each", runs);
  report.note("nodes", std::to_string(first.nodes));
  report.note("events_per_round", std::to_string(rounds[0].events));
  return report;
}

Report tracedRun(const RunOptions& o, const SimShape& shape) {
  Report report;
  // Untraced reference. The first repetition of a process pays for fresh
  // pages and a cold allocator (stat-20k: 3.5 s, then 2.3 s), so it only
  // warms up; the second is the reference the traced one is compared to.
  const Rep cold = runRep(shape.draws[0], nullptr, {});
  const Rep plain = runRep(shape.draws[0], nullptr, {});
  report.note("fingerprint", hex(plain.fingerprint));

  Tracer tracer;
  setActiveTracer(&tracer);
  Scenario tracedScenario = shape.draws[0];
  tracedScenario.protocol = kTracedProtocol;

  const std::uint64_t expected = cold.fingerprint ^ (o.corruptExpected ? 1 : 0);
  std::map<std::string, double> v;
  std::vector<std::pair<avmon::NodeId, avmon::NodeId>> pairs;
  std::size_t workers = 1;
  std::size_t shards = 1;
  unsigned k = 1;
  std::size_t effectiveN = 2;
  const Rep traced = runRep(tracedScenario, &tracer, [&](const ScenarioRunner& runner,
                                                         const experiments::MetricSet& ms,
                                                         const Rep& rep) {
    const auto& proto = dynamic_cast<const TracedAvmonProtocol&>(runner.protocol());
    const auto& world = runner.world();
    workers = world.workerThreads();
    shards = world.shardCount();
    k = runner.config().k;
    effectiveN = runner.effectiveN();
    v["experiments.build_s"] = proto.buildSeconds();
    v["experiments.world_s"] = rep.setupS - proto.buildSeconds();
    v["experiments.metric_state_bytes"] = static_cast<double>(ms.metricStateBytes);
    v["avmon.selector.memo_entries"] = static_cast<double>(proto.memoEntries());
    pairs = proto.memoPairs();

    std::uint64_t bytes = 0;
    for (std::size_t s = 0; s < world.shardCount(); ++s) {
      bytes += world.netOf(s).totalTraffic().bytesSent;
    }
    v["sim.events"] = static_cast<double>(world.executedEvents());
    v["sim.windows"] = static_cast<double>(world.windowsRun());
    v["sim.handoffs"] = static_cast<double>(world.handoffsCarried());
    v["sim.delivered"] = static_cast<double>(world.delivered());
    v["sim.lost"] = static_cast<double>(world.lost());
    v["sim.bytes_sent"] = static_cast<double>(bytes);

    avmon::NodeMetrics sum;
    std::uint64_t cv = 0, ps = 0, ts = 0;
    for (const auto& nt : runner.schedule().nodes()) {
      const avmon::AvmonNode& node = runner.node(nt.id);
      const avmon::NodeMetrics& m = node.metrics();
      sum.hashChecks += m.hashChecks;
      sum.notifiesSent += m.notifiesSent;
      sum.cvFetches += m.cvFetches;
      sum.monitoringPingsSent += m.monitoringPingsSent;
      sum.uselessPings += m.uselessPings;
      cv += node.coarseView().size();
      ps += node.pingingSet().size();
      ts += node.targetSet().size();
    }
    v["avmon.hash_checks"] = static_cast<double>(sum.hashChecks);
    v["avmon.notifies_sent"] = static_cast<double>(sum.notifiesSent);
    v["avmon.cv_fetches"] = static_cast<double>(sum.cvFetches);
    v["avmon.monitoring_pings"] = static_cast<double>(sum.monitoringPingsSent);
    v["avmon.useless_pings"] = static_cast<double>(sum.uselessPings);
    v["avmon.cv_entries"] = static_cast<double>(cv);
    v["avmon.ps_entries"] = static_cast<double>(ps);
    v["avmon.ts_entries"] = static_cast<double>(ts);
  });
  setActiveTracer(nullptr);

  report.attempted = 3;
  if (!checkRep(report, cold, expected, shape.limits, "untraced0")) report.failed += 1;
  if (!checkRep(report, plain, expected, shape.limits, "untraced")) report.failed += 1;
  if (!checkRep(report, traced, expected, shape.limits, "traced")) report.failed += 1;

  const ShardTrace t = tracer.merged();
  if (!o.spansOut.empty() &&
      !report.check("spans_written",
                    tracer.writeSpans(o.spansOut, o.workload + " seed " + std::to_string(o.seed)),
                    o.spansOut)) {
    report.failed += 1;
  }

  // Selector layer. Evaluations that get past the memo are timed
  // (sampled) below it; memo hits are invisible from outside, so the
  // memo replay prices one hit and the hits are charged to each parent
  // span in proportion to the evaluations seen under it.
  const auto hashFn = avmon::hash::makeHashFunction(shape.draws[0].hashName);
  const avmon::HashMonitorSelector hashSelector(*hashFn, k, effectiveN);
  std::uint64_t evalCalls = 0;
  double evalS = 0.0;
  for (const SampledTimer& e : t.hashEvals) {
    evalCalls += e.calls;
    evalS += e.seconds();
  }
  const double checks = v["avmon.hash_checks"];
  const double hits = std::max(0.0, checks - static_cast<double>(evalCalls));
  const double memoNs = memoProbeNs(hashSelector, pairs, o.seed);
  const double memoS = hits * memoNs * 1e-9;
  std::array<double, kParents> selectorBy{};
  for (std::size_t p = 0; p < kParents; ++p) {
    const double share = evalCalls == 0 ? 0.0
                                        : static_cast<double>(t.hashEvals[p].calls) /
                                              static_cast<double>(evalCalls);
    selectorBy[p] = t.hashEvals[p].seconds() + memoS * share;
  }
  const double selectorS = evalS + memoS;
  const double msgS = static_cast<double>(t.msgNs) * 1e-9;
  const double rpcS = static_cast<double>(t.rpcNs) * 1e-9;
  const double lifeS = static_cast<double>(t.lifecycleNs) * 1e-9;
  const double runProbeS = t.probes[0].seconds();
  const double collectProbeS = t.probes[1].seconds();

  const double windowUs = windowOverheadUs(shards, 3000);
  const double windowS = windowUs * 1e-6 * v["sim.windows"];

  // Self times of the spans on the shards during the run, as thread time;
  // divided by the worker count they are wall time under the assumption
  // that the shards are balanced (exact at one worker).
  const auto parentIndex = [](Parent p) { return static_cast<std::size_t>(p); };
  const double shardSelf = (msgS - selectorBy[parentIndex(Parent::kMessage)]) +
                           (rpcS - selectorBy[parentIndex(Parent::kRpc)]) +
                           (lifeS - selectorBy[parentIndex(Parent::kLifecycle)]) +
                           selectorS + runProbeS;
  const double attributed = shardSelf / static_cast<double>(workers) + windowS + traced.collectS;

  report.metric("experiments.world_s", v["experiments.world_s"], "s");
  report.metric("experiments.build_s", v["experiments.build_s"], "s");
  report.metric("experiments.collect_s", traced.collectS, "s");
  report.metric("experiments.metric_state_bytes", v["experiments.metric_state_bytes"], "B");
  report.metric("experiments.probe_calls",
                static_cast<double>(t.probes[0].calls + t.probes[1].calls), "count");
  report.metric("experiments.probe_s", runProbeS + collectProbeS, "s");
  addFidelity(report, plain.fidelity);

  report.metric("churn.lifecycle_calls", static_cast<double>(t.lifecycleCalls), "count");
  report.metric("churn.lifecycle_s", lifeS, "s");

  report.metric("avmon.msg_calls.join", static_cast<double>(t.msgCalls[0]), "count");
  report.metric("avmon.msg_calls.notify", static_cast<double>(t.msgCalls[1]), "count");
  report.metric("avmon.msg_calls.force_add", static_cast<double>(t.msgCalls[2]), "count");
  report.metric("avmon.msg_s", msgS, "s");
  report.metric("avmon.rpc_calls.ping", static_cast<double>(t.rpcCalls[0]), "count");
  report.metric("avmon.rpc_calls.cv_fetch", static_cast<double>(t.rpcCalls[1]), "count");
  report.metric("avmon.rpc_calls.swap", static_cast<double>(t.rpcCalls[2]), "count");
  report.metric("avmon.rpc_calls.monitor_ping", static_cast<double>(t.rpcCalls[3]), "count");
  report.metric("avmon.rpc_s", rpcS, "s");
  for (const char* name : {"avmon.hash_checks", "avmon.notifies_sent", "avmon.cv_fetches",
                           "avmon.monitoring_pings", "avmon.useless_pings",
                           "avmon.cv_entries", "avmon.ps_entries", "avmon.ts_entries"}) {
    report.metric(name, v[name], "count");
  }

  report.metric("avmon.selector.hash_evals", static_cast<double>(evalCalls), "count");
  report.metric("avmon.selector.memo_hit_ratio", checks > 0 ? hits / checks : 0.0, "ratio");
  report.metric("avmon.selector.eval_s", evalS, "s");
  report.metric("avmon.selector.memo_entries", v["avmon.selector.memo_entries"], "count");
  report.metric("avmon.selector.memo_probe_ns", memoNs, "ns");
  report.metric("avmon.selector.memo_s", memoS, "s");

  report.metric("sim.events", v["sim.events"], "count");
  report.metric("sim.ns_per_event", v["sim.events"] > 0 ? plain.runS * 1e9 / v["sim.events"] : 0.0, "ns");
  report.metric("sim.windows", v["sim.windows"], "count");
  report.metric("sim.handoffs", v["sim.handoffs"], "count");
  report.metric("sim.handoffs_per_window",
                v["sim.windows"] > 0 ? v["sim.handoffs"] / v["sim.windows"] : 0.0, "count/window");
  report.metric("sim.delivered", v["sim.delivered"], "count");
  report.metric("sim.lost", v["sim.lost"], "count");
  report.metric("sim.bytes_sent", v["sim.bytes_sent"], "B");
  report.metric("sim.window_overhead_us", windowUs, "us");
  report.metric("sim.window_overhead_s", windowS, "s");

  report.metric("run.untraced_s", plain.runS, "s");
  report.metric("run.traced_s", traced.runS, "s");
  report.metric("run.trace_overhead_s", traced.runS - plain.runS, "s");
  report.metric("run.unattributed_s", traced.runS - attributed, "s");
  report.metric("run.attributed_fraction", traced.runS > 0 ? attributed / traced.runS : 0.0, "ratio");
  report.metric("run.workers", static_cast<double>(workers), "count");
  return report;
}

}  // namespace

Report runSimWorkload(const RunOptions& options) {
  const SimShape shape = makeShape(options);
  return options.trace ? tracedRun(options, shape) : untracedRun(options, shape);
}

}  // namespace perfbench
