#include "trace.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

void ShardTrace::merge(const ShardTrace& o) {
  for (std::size_t i = 0; i < msgCalls.size(); ++i) msgCalls[i] += o.msgCalls[i];
  msgNs += o.msgNs;
  for (std::size_t i = 0; i < rpcCalls.size(); ++i) rpcCalls[i] += o.rpcCalls[i];
  rpcNs += o.rpcNs;
  lifecycleCalls += o.lifecycleCalls;
  lifecycleNs += o.lifecycleNs;
  for (std::size_t i = 0; i < probes.size(); ++i) probes[i].merge(o.probes[i]);
  for (std::size_t i = 0; i < hashEvals.size(); ++i) hashEvals[i].merge(o.hashEvals[i]);
}

void Tracer::reset(std::size_t shards) { shards_.assign(shards, ShardTrace{}); }

std::uint64_t Tracer::beginPhase(const char* name, std::uint64_t parent) {
  Span span;
  span.id = ++phaseSeq_;
  span.parent = parent;
  span.name = name;
  span.startNs = nowNs();
  phases_.push_back(span);
  return span.id;
}

void Tracer::endPhase(std::uint64_t id) {
  const std::int64_t end = nowNs();
  for (auto it = phases_.rbegin(); it != phases_.rend(); ++it) {
    if (it->id == id) {
      it->endNs = end;
      return;
    }
  }
}

ShardTrace Tracer::merged() const {
  ShardTrace total;
  for (const ShardTrace& s : shards_) total.merge(s);
  return total;
}

bool Tracer::writeSpans(const std::string& path, const std::string& label) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::vector<Span> all(phases_.begin(), phases_.end());
  for (const ShardTrace& s : shards_) all.insert(all.end(), s.spans.begin(), s.spans.end());
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.startNs < b.startNs; });
  std::fprintf(out, "{\"run\": \"%s\", \"sampled_every\": %llu, \"spans\": [\n",
               label.c_str(), static_cast<unsigned long long>(kSpanSample));
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(out,
                 "  {\"id\": %llu, \"parent\": %llu, \"name\": \"%s\", "
                 "\"shard\": %u, \"start_ns\": %lld, \"end_ns\": %lld}%s\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name, s.shard,
                 static_cast<long long>(s.startNs),
                 static_cast<long long>(s.endNs), i + 1 < all.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
