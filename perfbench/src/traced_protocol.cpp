#include "traced_protocol.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/rng.hpp"
#include "experiments/protocol_registry.hpp"
#include "sim/sharded_simulator.hpp"

namespace perfbench {

using avmon::NodeId;
namespace experiments = avmon::experiments;
namespace sim = avmon::sim;

namespace {

Tracer* gActiveTracer = nullptr;

constexpr std::size_t kPairCap = std::size_t{1} << 18;

/// Opens a handler span on `trace`: marks the shard as inside `kind` and,
/// for every kSpanSample-th handler, reserves a span id for the log.
struct HandlerScope {
  HandlerScope(ShardTrace& trace, std::uint32_t shard, Parent kind)
      : trace_(trace), prev_(trace.current), prevSpan_(trace.currentSpan) {
    trace_.current = kind;
    if (trace_.handlerSeq++ % kSpanSample == 0) {
      spanId_ = (static_cast<std::uint64_t>(shard) + 1) << 48 |
                (trace_.handlerSeq & ((std::uint64_t{1} << 48) - 1));
      trace_.currentSpan = spanId_;
    }
    startNs_ = nowNs();
  }

  /// Closes the span; returns its duration.
  std::int64_t close(const char* name, std::uint32_t shard) {
    const std::int64_t end = nowNs();
    trace_.current = prev_;
    trace_.currentSpan = prevSpan_;
    if (spanId_ != 0) {
      trace_.spans.push_back({spanId_, prevSpan_, name, shard, startNs_, end});
    }
    return end - startNs_;
  }

 private:
  ShardTrace& trace_;
  Parent prev_;
  std::uint64_t prevSpan_;
  std::uint64_t spanId_ = 0;
  std::int64_t startNs_ = 0;
};

constexpr const char* kMessageNames[] = {"avmon.msg.join", "avmon.msg.notify",
                                         "avmon.msg.force_add",
                                         "avmon.msg.other"};
constexpr const char* kRpcNames[] = {"avmon.rpc.ping", "avmon.rpc.cv_fetch",
                                     "avmon.rpc.swap",
                                     "avmon.rpc.monitor_ping"};

}  // namespace

void registerTracedProtocol() {
  auto& registry = experiments::ProtocolRegistry::instance();
  if (registry.find(kTracedProtocol) != nullptr) return;
  registry.add({kTracedProtocol,
                "AVMON behind the benchmark's timing decorator",
                /*maxShards=*/0, [] {
                  if (gActiveTracer == nullptr) {
                    throw std::logic_error("perfbench: no active tracer");
                  }
                  return std::make_unique<TracedAvmonProtocol>(*gActiveTracer);
                }});
}

void setActiveTracer(Tracer* tracer) { gActiveTracer = tracer; }

// ---- CountingSelector ------------------------------------------------------

bool CountingSelector::isMonitor(const NodeId& observer,
                                 const NodeId& target) const {
  SampledTimer& timer = trace_.hashEvals[static_cast<std::size_t>(trace_.current)];
  if (pairs_.size() < kPairCap) pairs_.emplace_back(observer, target);
  if (timer.calls++ % kHashSample != 0) return inner_.isMonitor(observer, target);
  const std::int64_t start = nowNs();
  const bool verdict = inner_.isMonitor(observer, target);
  timer.sampledNs += nowNs() - start;
  timer.sampled += 1;
  return verdict;
}

// ---- TimingEndpoint --------------------------------------------------------

void TimingEndpoint::onMessage(const NodeId& from, const sim::Message& message) {
  const std::size_t kind = std::min<std::size_t>(message.index(), 3);
  HandlerScope scope(trace_, shard_, Parent::kMessage);
  inner_.onMessage(from, message);
  trace_.msgNs += scope.close(kMessageNames[kind], shard_);
  trace_.msgCalls[kind] += 1;
}

sim::RpcResponse TimingEndpoint::onRpc(const NodeId& from,
                                       const sim::RpcRequest& request) {
  const std::size_t kind = request.index();
  HandlerScope scope(trace_, shard_, Parent::kRpc);
  sim::RpcResponse response = inner_.onRpc(from, request);
  trace_.rpcNs += scope.close(kRpcNames[kind], shard_);
  trace_.rpcCalls[kind] += 1;
  return response;
}

// ---- TracedAvmonProtocol ---------------------------------------------------

TracedAvmonProtocol::TracedAvmonProtocol(Tracer& tracer)
    : tracer_(tracer),
      inner_(experiments::ProtocolRegistry::instance().create("avmon")) {}

void TracedAvmonProtocol::build(const experiments::ProtocolContext& ctx) {
  const std::int64_t start = nowNs();
  const std::uint64_t span = tracer_.beginPhase("experiments.build");
  world_ = &ctx.world;
  const std::size_t shards = ctx.world.shardCount();
  tracer_.reset(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    counting_.push_back(
        std::make_unique<CountingSelector>(ctx.selector, tracer_.shard(s)));
    memos_.push_back(
        std::make_unique<avmon::MemoizedMonitorSelector>(*counting_.back()));
  }
  const experiments::ProtocolContext inner{
      ctx.scenario, ctx.effectiveN, ctx.config,   ctx.world, ctx.trace,
      ctx.hashFn,   ctx.selector,   memos_,       ctx.rootRng,
      ctx.adversary};
  inner_->build(inner);

  for (const auto& nt : ctx.trace.nodes()) {
    const std::size_t s = ctx.world.shardOf(nt.id);
    avmon::AvmonNode* node = inner_->mutableAvmonNode(nt.id);
    if (node == nullptr) {
      throw std::logic_error("perfbench: avmon built no node for " +
                             nt.id.toString());
    }
    endpoints_.emplace_back(*node, tracer_.shard(s),
                            static_cast<std::uint32_t>(s));
    ctx.world.netOf(s).attach(nt.id, endpoints_.back());
  }
  tracer_.endPhase(span);
  buildSeconds_ = secondsSince(start);
}

template <class F>
void TracedAvmonProtocol::lifecycle(const NodeId& id, F&& call) {
  const std::size_t s = world_->shardOf(id);
  ShardTrace& trace = tracer_.shard(s);
  HandlerScope scope(trace, static_cast<std::uint32_t>(s), Parent::kLifecycle);
  call();
  trace.lifecycleNs += scope.close("churn.lifecycle", static_cast<std::uint32_t>(s));
  trace.lifecycleCalls += 1;
}

void TracedAvmonProtocol::onJoin(const NodeId& id, bool firstJoin) {
  lifecycle(id, [&] { inner_->onJoin(id, firstJoin); });
}

void TracedAvmonProtocol::onLeave(const NodeId& id) {
  lifecycle(id, [&] { inner_->onLeave(id); });
}

void TracedAvmonProtocol::onDeath(const NodeId& id) {
  lifecycle(id, [&] { inner_->onDeath(id); });
}

template <class F>
auto TracedAvmonProtocol::probe(const NodeId& id, F&& call) const
    -> decltype(call()) {
  if (tracer_.phase == Tracer::Phase::kOff) return call();
  SampledTimer& timer = tracer_.shard(world_->shardOf(id))
                            .probes[tracer_.phase == Tracer::Phase::kRun ? 0 : 1];
  if (timer.calls++ % kProbeSample != 0) return call();
  const std::int64_t start = nowNs();
  auto result = call();
  timer.sampledNs += nowNs() - start;
  timer.sampled += 1;
  return result;
}

void TracedAvmonProtocol::forEachNode(
    const std::function<void(const NodeId&)>& fn) const {
  // A walk whose cost is the per-node probes it makes, which are
  // accumulated on their own.
  inner_->forEachNode(fn);
}

std::optional<avmon::SimDuration> TracedAvmonProtocol::discoveryDelay(
    const NodeId& id, std::size_t k) const {
  return probe(id, [&] { return inner_->discoveryDelay(id, k); });
}

std::size_t TracedAvmonProtocol::memoryEntries(const NodeId& id) const {
  return probe(id, [&] { return inner_->memoryEntries(id); });
}

std::uint64_t TracedAvmonProtocol::hashChecks(const NodeId& id) const {
  return probe(id, [&] { return inner_->hashChecks(id); });
}

std::uint64_t TracedAvmonProtocol::uselessPings(const NodeId& id) const {
  return probe(id, [&] { return inner_->uselessPings(id); });
}

bool TracedAvmonProtocol::isMonitoring(const NodeId& id) const {
  return probe(id, [&] { return inner_->isMonitoring(id); });
}

std::vector<NodeId> TracedAvmonProtocol::monitorsOf(const NodeId& id) const {
  return probe(id, [&] { return inner_->monitorsOf(id); });
}

void TracedAvmonProtocol::visitMonitorsOf(
    const NodeId& id, const std::function<void(const NodeId&)>& fn) const {
  probe(id, [&] {
    inner_->visitMonitorsOf(id, fn);
    return 0;
  });
}

std::optional<experiments::EstimateSample> TracedAvmonProtocol::estimate(
    const NodeId& monitor, const NodeId& target) const {
  // Charged to the target's shard: the streamed lane asks for a target's
  // estimates while visiting the target's home shard, and the monitor may
  // live on another shard that a different worker is visiting.
  return probe(target, [&] { return inner_->estimate(monitor, target); });
}

const avmon::AvmonNode* TracedAvmonProtocol::avmonNode(const NodeId& id) const {
  return inner_->avmonNode(id);
}

avmon::AvmonNode* TracedAvmonProtocol::mutableAvmonNode(const NodeId& id) {
  return inner_->mutableAvmonNode(id);
}

std::size_t TracedAvmonProtocol::memoEntries() const {
  std::size_t total = 0;
  for (const auto& memo : memos_) total += memo->cacheSize();
  return total;
}

std::vector<std::pair<NodeId, NodeId>> TracedAvmonProtocol::memoPairs() const {
  std::vector<std::pair<NodeId, NodeId>> all;
  for (const auto& c : counting_) {
    all.insert(all.end(), c->pairs().begin(), c->pairs().end());
  }
  return all;
}

double memoProbeNs(const avmon::MonitorSelector& hash,
                   const std::vector<std::pair<NodeId, NodeId>>& pairs,
                   std::uint64_t seed) {
  if (pairs.empty()) return 0.0;
  avmon::MemoizedMonitorSelector memo(hash);
  std::uint64_t sink = 0;
  for (const auto& [observer, target] : pairs) {
    sink += memo.isMonitor(observer, target);
  }
  // Replay in a seeded random order: the run's hits land all over the
  // table, not in insertion order.
  std::vector<std::uint32_t> order(pairs.size());
  avmon::Rng rng(seed);
  for (std::uint32_t& i : order) {
    i = static_cast<std::uint32_t>(rng.below(pairs.size()));
  }
  std::vector<double> perHit;
  for (int round = 0; round < 5; ++round) {
    const std::int64_t start = nowNs();
    for (const std::uint32_t i : order) {
      sink += memo.isMonitor(pairs[i].first, pairs[i].second);
    }
    perHit.push_back(static_cast<double>(nowNs() - start) /
                     static_cast<double>(order.size()));
  }
  // The verdict sum keeps the loop from being optimized away.
  if (sink == ~std::uint64_t{0}) perHit.push_back(0.0);
  std::sort(perHit.begin(), perHit.end());
  return perHit[perHit.size() / 2];
}

}  // namespace perfbench
