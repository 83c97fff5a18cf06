// The four baseline schemes driven through the shared ScenarioRunner via
// the protocol registry — the paper's head-to-head comparisons (Table 1,
// Sections 5-6) measured by the same harness and MetricSet as AVMON.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "experiments/metrics.hpp"
#include "experiments/parallel_runner.hpp"
#include "experiments/protocols/central_protocol.hpp"
#include "experiments/scenario.hpp"

namespace avmon::experiments {
namespace {

Scenario smallScenario(const std::string& protocol, churn::Model model) {
  Scenario s;
  s.protocol = protocol;
  s.model = model;
  s.stableSize = 100;
  s.horizon = 80 * kMinute;
  s.warmup = 30 * kMinute;
  s.controlFraction = 0.1;
  s.seed = 21;
  s.hashName = "splitmix64";
  return s;
}

// ---- broadcast through the shared runner ----

TEST(BaselinesScenarioTest, BroadcastDiscoveryIsNearInstant) {
  ScenarioRunner runner(smallScenario("broadcast", churn::Model::kStat));
  runner.run();
  const auto delays = runner.discoveryDelaysSeconds(1);
  ASSERT_FALSE(delays.empty());
  for (double d : delays) EXPECT_LT(d, 1.0);  // one broadcast latency
  EXPECT_DOUBLE_EQ(runner.discoveredFraction(1), 1.0);
}

TEST(BaselinesScenarioTest, BroadcastMemoryIsOrderN) {
  ScenarioRunner runner(smallScenario("broadcast", churn::Model::kStat));
  runner.run();
  const auto entries = runner.memoryEntries(/*measuredOnly=*/false);
  ASSERT_FALSE(entries.empty());
  double sum = 0;
  for (double e : entries) sum += e;
  // Full membership (~N) plus PS/TS.
  EXPECT_GT(sum / static_cast<double>(entries.size()), 90.0);
}

TEST(BaselinesScenarioTest, BroadcastJoinCostIsOrderNBytes) {
  // warmup = 0 keeps the t = 0 join broadcasts inside the traffic window:
  // node i's presence goes to the i-1 earlier joiners (mean ~N/2 x 10 B),
  // and the whole population joins inside one horizon.
  Scenario s = smallScenario("broadcast", churn::Model::kStat);
  s.warmup = 0;
  ScenarioRunner runner(s);
  runner.run();
  std::uint64_t total = 0;
  for (const auto& nt : runner.schedule().nodes()) {
    total += runner.trafficOf(nt.id).bytesSent;
  }
  // >= N * (N-1)/2 * 10 B of presence traffic.
  EXPECT_GT(total, 100u * 99u / 2u * 10u);
}

TEST(BaselinesScenarioTest, BroadcastSurvivesChurn) {
  ScenarioRunner runner(smallScenario("broadcast", churn::Model::kSynth));
  runner.run();
  EXPECT_GT(runner.world().delivered(), 0u);
  EXPECT_FALSE(runner.discoveryDelaysSeconds(1).empty());
}

TEST(BaselinesScenarioTest, BroadcastHashChecksFeedComputationMetric) {
  ScenarioRunner runner(smallScenario("broadcast", churn::Model::kStat));
  runner.run();
  const auto cps = runner.computationsPerSecond();
  ASSERT_FALSE(cps.empty());
  for (double c : cps) EXPECT_GT(c, 0.0);
}

// ---- central through the shared runner ----

TEST(BaselinesScenarioTest, CentralServerCarriesTheLoad) {
  ScenarioRunner runner(smallScenario("central", churn::Model::kStat));
  runner.run();
  // The server is the bandwidth hot spot (O(N) pings per period)...
  EXPECT_EQ(runner.maxBandwidthNode(), CentralProtocol::kServerId);
  // ...and the memory tail: everyone else holds one entry.
  const auto entries = runner.memoryEntries(/*measuredOnly=*/false);
  ASSERT_FALSE(entries.empty());
  const double maxEntries = *std::max_element(entries.begin(), entries.end());
  EXPECT_GE(maxEntries, 100.0);  // the member table
  std::size_t ones = 0;
  for (double e : entries) ones += e == 1.0;
  EXPECT_GE(ones, 99u);  // the members
}

TEST(BaselinesScenarioTest, CentralDiscoversEveryMemberQuickly) {
  ScenarioRunner runner(smallScenario("central", churn::Model::kStat));
  runner.run();
  EXPECT_DOUBLE_EQ(runner.discoveredFraction(1), 1.0);
  for (double d : runner.discoveryDelaysSeconds(1)) {
    EXPECT_LT(d, 1.0);  // one registration message latency
  }
}

TEST(BaselinesScenarioTest, CentralAccuracyIsExactOnStat) {
  ScenarioRunner runner(smallScenario("central", churn::Model::kStat));
  runner.run();
  const auto acc = runner.availabilityAccuracy(/*measuredOnly=*/true);
  ASSERT_FALSE(acc.empty());
  for (const auto& a : acc) {
    EXPECT_DOUBLE_EQ(a.estimated, 1.0) << a.id.toString();
    EXPECT_DOUBLE_EQ(a.actual, 1.0) << a.id.toString();
    EXPECT_EQ(a.reporters, 1u);  // PS(x) = {server}
  }
}

TEST(BaselinesScenarioTest, CentralCountsUselessPingsUnderChurn) {
  ScenarioRunner runner(smallScenario("central", churn::Model::kSynth));
  runner.run();
  // The server keeps pinging down/departed registrants: useless pings
  // land on exactly one node (the server).
  const auto upm = runner.uselessPingsPerMinute();
  ASSERT_EQ(upm.size(), 1u);
  EXPECT_GT(upm[0], 0.0);
}

// ---- self-report through the shared runner ----

TEST(BaselinesScenarioTest, SelfReportDiscoveryIsFreeAndMemoryIsOne) {
  ScenarioRunner runner(smallScenario("self_report", churn::Model::kStat));
  runner.run();
  EXPECT_DOUBLE_EQ(runner.discoveredFraction(1), 1.0);
  for (double d : runner.discoveryDelaysSeconds(1)) EXPECT_DOUBLE_EQ(d, 0.0);
  for (double e : runner.memoryEntries(false)) EXPECT_DOUBLE_EQ(e, 1.0);
  // No protocol messages at all.
  EXPECT_EQ(runner.world().delivered(), 0u);
}

TEST(BaselinesScenarioTest, SelfReportHonestNodesAreExact) {
  ScenarioRunner runner(smallScenario("self_report", churn::Model::kSynth));
  runner.run();
  const auto acc = runner.availabilityAccuracy(/*measuredOnly=*/false);
  ASSERT_FALSE(acc.empty());
  for (const auto& a : acc) {
    EXPECT_NEAR(a.estimated, a.actual, 1e-9) << a.id.toString();
  }
}

TEST(BaselinesScenarioTest, SelfReportSelfishNodesLieUndetectably) {
  // The scheme's failure mode: overreporters claim 100% and nothing in
  // the system can contradict them (contrast with AVMON's Figure 20).
  Scenario s = smallScenario("self_report", churn::Model::kSynth);
  s.overreportFraction = 0.5;
  ScenarioRunner runner(s);
  runner.run();
  const auto acc = runner.availabilityAccuracy(/*measuredOnly=*/false);
  ASSERT_FALSE(acc.empty());
  std::size_t liars = 0;
  for (const auto& a : acc) {
    if (a.estimated == 1.0 && a.actual < 0.999) ++liars;
  }
  EXPECT_GT(liars, 0u);
}

// ---- DHT ring through the shared runner ----

TEST(BaselinesScenarioTest, DhtRingDiscoversReplicaSets) {
  ScenarioRunner runner(smallScenario("dht_ring", churn::Model::kStat));
  runner.run();
  EXPECT_DOUBLE_EQ(runner.discoveredFraction(1), 1.0);
  // The selection layer is omniscient: discovery is instantaneous once
  // the ring has members.
  for (double d : runner.discoveryDelaysSeconds(1)) EXPECT_DOUBLE_EQ(d, 0.0);
  // K-th monitor too (K = log2 100 = 7 successors exist at N = 100).
  EXPECT_GT(runner.discoveryDelaysSeconds(runner.config().k).size(), 0u);
}

TEST(BaselinesScenarioTest, DhtRingMemoryIsPsPlusTs) {
  ScenarioRunner runner(smallScenario("dht_ring", churn::Model::kStat));
  runner.run();
  const auto entries = runner.memoryEntries(false);
  ASSERT_FALSE(entries.empty());
  double sum = 0;
  for (double e : entries) sum += e;
  // ~K successors + ~K nodes it serves as replica for.
  const double mean = sum / static_cast<double>(entries.size());
  EXPECT_GT(mean, static_cast<double>(runner.config().k));
  EXPECT_LT(mean, 4.0 * static_cast<double>(runner.config().k));
}

// ---- the head-to-head path itself ----

TEST(BaselinesScenarioTest, AllFiveProtocolsOneComparisonTable) {
  // The acceptance shape of the redesign: every registered protocol runs
  // the same workload through the same runner, snapshots into the same
  // MetricSet, and one sink prints one comparison table.
  std::vector<Scenario> scenarios;
  for (const char* protocol :
       {"avmon", "broadcast", "central", "dht_ring", "self_report"}) {
    Scenario s = smallScenario(protocol, churn::Model::kStat);
    s.stableSize = 60;
    s.horizon = 60 * kMinute;
    s.warmup = 20 * kMinute;
    scenarios.push_back(s);
  }
  const auto metricSets =
      ParallelScenarioRunner(2).map<MetricSet>(
          scenarios,
          [](ScenarioRunner& runner) { return collectMetrics(runner); });
  ASSERT_EQ(metricSets.size(), 5u);

  std::ostringstream out;
  SummaryTableSink sink(out);
  for (const MetricSet& set : metricSets) {
    EXPECT_FALSE(set.memoryEntries.empty()) << set.protocol;
    // Same trace everywhere: 60 stable + 6 control nodes, one row each.
    EXPECT_EQ(set.perNode.size(), 66u) << set.protocol;
    sink.add(set);
  }
  sink.close();

  const std::string table = out.str();
  EXPECT_NE(table.find("protocol comparison"), std::string::npos);
  for (const char* protocol :
       {"avmon", "broadcast", "central", "dht_ring", "self_report"}) {
    EXPECT_NE(table.find(protocol), std::string::npos) << protocol;
  }
}

TEST(BaselinesScenarioTest, NodeProbeIsAvmonOnly) {
  ScenarioRunner runner(smallScenario("self_report", churn::Model::kStat));
  runner.run();
  EXPECT_THROW(runner.node(runner.measuredIds().front()), std::logic_error);
}

TEST(BaselinesScenarioTest, BaselinesRejectSharding) {
  Scenario s = smallScenario("central", churn::Model::kStat);
  s.shards = 2;
  EXPECT_THROW(ScenarioRunner{s}, std::invalid_argument);
}

TEST(BaselinesScenarioTest, PoolShardOverrideClampsToProtocolLimit) {
  // One shardsPerScenario override across a mixed sweep: AVMON worlds
  // shard, single-shard baselines are clamped instead of rejected.
  std::vector<Scenario> scenarios;
  for (const char* protocol : {"avmon", "broadcast"}) {
    Scenario s = smallScenario(protocol, churn::Model::kStat);
    s.stableSize = 40;
    s.horizon = 40 * kMinute;
    s.warmup = 15 * kMinute;
    scenarios.push_back(s);
  }
  const auto runners =
      ParallelScenarioRunner(2, /*shardsPerScenario=*/2).runAll(scenarios);
  ASSERT_EQ(runners.size(), 2u);
  EXPECT_EQ(runners[0]->world().shardCount(), 2u);  // avmon sharded
  EXPECT_EQ(runners[1]->world().shardCount(), 1u);  // broadcast clamped
}

TEST(BaselinesScenarioTest, BaselinesRunAtOneShard) {
  // Every baseline works at one shard — the central scheme's ping
  // exchanges and the broadcast one-way traffic ride the same two-leg
  // transport as AVMON.
  for (const char* protocol :
       {"broadcast", "central", "dht_ring", "self_report"}) {
    Scenario s = smallScenario(protocol, churn::Model::kSynth);
    s.stableSize = 40;
    s.horizon = 45 * kMinute;
    s.warmup = 15 * kMinute;
    ScenarioRunner runner(s);
    runner.run();
    EXPECT_GE(runner.discoveredFraction(1), 0.5) << protocol;
  }
}

}  // namespace
}  // namespace avmon::experiments
