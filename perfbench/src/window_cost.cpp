// Per-window cost of the sharded simulator's machinery: calendar
// promotion, hand-off drains and the window barriers, with almost no
// event work in between. It times public ShardedSimulator::runUntil on a
// world whose every shard holds one timer re-arming itself each
// millisecond, so every 10 ms window has events and none is idle-skipped.
#include <algorithm>
#include <vector>

#include "common/time.hpp"
#include "report.hpp"
#include "sim/sharded_simulator.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

struct Ticker {
  avmon::sim::Simulator* sim = nullptr;
  void arm() {
    sim->after(avmon::kMillisecond, [this] { arm(); });
  }
};

double onePass(std::size_t shards, std::uint64_t windows) {
  avmon::sim::ShardedSimulator::Config config;
  config.shards = shards;
  avmon::sim::ShardedSimulator world(config);
  std::vector<Ticker> tickers(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    tickers[s].sim = &world.simOf(s);
    tickers[s].arm();
  }
  const avmon::SimTime until =
      static_cast<avmon::SimTime>(windows) * world.windowLength() - 1;
  const std::int64_t start = nowNs();
  world.runUntil(until);
  const double us = static_cast<double>(nowNs() - start) * 1e-3;
  return us / static_cast<double>(std::max<std::uint64_t>(world.windowsRun(), 1));
}

}  // namespace

double windowOverheadUs(std::size_t shards, std::uint64_t windows) {
  std::vector<double> passes;
  for (int i = 0; i < 5; ++i) passes.push_back(onePass(shards, windows));
  return median(passes);
}

}  // namespace perfbench
