// The traced run's seams into the library, all public:
//
//  * TracedAvmonProtocol, registered through ProtocolRegistry::add under
//    kTracedProtocol, delegates every call to the registry's "avmon"
//    protocol and spans build(), the lifecycle calls and the probes;
//  * it hands the inner build() its own per-shard MemoizedMonitorSelectors,
//    each wrapping a CountingSelector around the runner's
//    HashMonitorSelector, so calls that get past the memo are counted and
//    (sampled) timed;
//  * after build() it re-attaches a TimingEndpoint in front of every node
//    on the node's home-shard Network, timing message and RPC handlers.
//
// Verdicts, RNG draws and event order are untouched, so a traced run
// reproduces the untraced run's summaryHash bit for bit; the benchmark
// checks that on every traced run.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "experiments/protocol.hpp"
#include "trace.hpp"

namespace perfbench {

inline constexpr const char* kTracedProtocol = "avmon-traced";

/// Registers kTracedProtocol once per process. Runners built while
/// `tracer` is active record into it.
void registerTracedProtocol();
void setActiveTracer(Tracer* tracer);

/// Calls that reach the hash below a memo, counted per shard.
class CountingSelector final : public avmon::MonitorSelector {
 public:
  CountingSelector(const avmon::MonitorSelector& inner, ShardTrace& trace)
      : inner_(inner), trace_(trace) {}

  bool isMonitor(const avmon::NodeId& observer,
                 const avmon::NodeId& target) const override;
  std::string describe() const override { return inner_.describe(); }

  /// Distinct (observer, target) pairs seen, kept up to a cap: the replay
  /// set for the memo replay (see memoProbeNs).
  const std::vector<std::pair<avmon::NodeId, avmon::NodeId>>& pairs() const {
    return pairs_;
  }

 private:
  const avmon::MonitorSelector& inner_;
  ShardTrace& trace_;
  mutable std::vector<std::pair<avmon::NodeId, avmon::NodeId>> pairs_;
};

class TimingEndpoint final : public avmon::sim::Endpoint {
 public:
  TimingEndpoint(avmon::sim::Endpoint& inner, ShardTrace& trace,
                 std::uint32_t shard)
      : inner_(inner), trace_(trace), shard_(shard) {}

  void onMessage(const avmon::NodeId& from,
                 const avmon::sim::Message& message) override;
  avmon::sim::RpcResponse onRpc(const avmon::NodeId& from,
                                const avmon::sim::RpcRequest& request) override;

 private:
  avmon::sim::Endpoint& inner_;
  ShardTrace& trace_;
  std::uint32_t shard_;
};

class TracedAvmonProtocol final : public avmon::experiments::Protocol {
 public:
  explicit TracedAvmonProtocol(Tracer& tracer);

  std::string name() const override { return kTracedProtocol; }
  void build(const avmon::experiments::ProtocolContext& ctx) override;

  void onJoin(const avmon::NodeId& id, bool firstJoin) override;
  void onLeave(const avmon::NodeId& id) override;
  void onDeath(const avmon::NodeId& id) override;

  void forEachNode(
      const std::function<void(const avmon::NodeId&)>& fn) const override;
  std::optional<avmon::SimDuration> discoveryDelay(
      const avmon::NodeId& id, std::size_t k) const override;
  std::size_t memoryEntries(const avmon::NodeId& id) const override;
  std::uint64_t hashChecks(const avmon::NodeId& id) const override;
  std::uint64_t uselessPings(const avmon::NodeId& id) const override;
  bool isMonitoring(const avmon::NodeId& id) const override;
  std::vector<avmon::NodeId> monitorsOf(const avmon::NodeId& id) const override;
  void visitMonitorsOf(
      const avmon::NodeId& id,
      const std::function<void(const avmon::NodeId&)>& fn) const override;
  std::optional<avmon::experiments::EstimateSample> estimate(
      const avmon::NodeId& monitor,
      const avmon::NodeId& target) const override;
  const avmon::AvmonNode* avmonNode(const avmon::NodeId& id) const override;
  avmon::AvmonNode* mutableAvmonNode(const avmon::NodeId& id) override;

  double buildSeconds() const { return buildSeconds_; }
  /// Entries cached across the per-shard memos.
  std::size_t memoEntries() const;
  /// Replay set for the memo replay, merged across shards.
  std::vector<std::pair<avmon::NodeId, avmon::NodeId>> memoPairs() const;

 private:
  /// Runs `call` as a lifecycle span on `id`'s home shard.
  template <class F>
  void lifecycle(const avmon::NodeId& id, F&& call);
  /// Runs `call` as a (sampled) probe, accumulated on `id`'s home shard.
  /// During the run, probes come from the streaming collector's shard
  /// visits, so `id` must be a node of the shard being visited.
  template <class F>
  auto probe(const avmon::NodeId& id, F&& call) const -> decltype(call());

  Tracer& tracer_;
  std::unique_ptr<avmon::experiments::Protocol> inner_;
  const avmon::sim::ShardedSimulator* world_ = nullptr;
  std::vector<std::unique_ptr<CountingSelector>> counting_;
  std::vector<std::unique_ptr<avmon::MemoizedMonitorSelector>> memos_;
  std::deque<TimingEndpoint> endpoints_;
  double buildSeconds_ = 0.0;
};

/// Median ns per MemoizedMonitorSelector::isMonitor hit, replaying `pairs`
/// (as the run saw them) in a seeded random order against a warmed memo.
/// The memo sits in front of the counting selector, so its own hits are
/// invisible to the traced run; this replay prices them.
double memoProbeNs(
    const avmon::MonitorSelector& hash,
    const std::vector<std::pair<avmon::NodeId, avmon::NodeId>>& pairs,
    std::uint64_t seed);

}  // namespace perfbench
