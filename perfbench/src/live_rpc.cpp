// The live-rpc workload: one process, one thread, four net::LiveTransport
// endpoints on 127.0.0.1 in a closed loop of AVMON's RPC mix.
//
// Each endpoint keeps kOutstanding exchanges in flight to random peers,
// launching the next one from the completion of the last. The traffic
// reproduces what AvmonNode handled in the synth-bd-2k workload (see
// kMix): liveness pings, coarse-view fetches answered with a paper-sized
// view, and monitoring pings in that workload's proportions, and after
// each completion the one-way JOIN and NOTIFY sends that go with one
// exchange there. A batch is 40000 exchanges (2000 at --size tiny) on a
// freshly opened set of endpoints; set-up (binding the sockets, drawing
// the views and the op script) and the batch are timed apart. Every
// exchange must settle exactly once, with the response type its request
// asks for and, for a fetch, exactly the view the responder holds;
// timeouts, missing one-way messages and decode failures count as failed
// operations.
#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <stdexcept>
#include <variant>

#include "avmon/config.hpp"
#include "common/rng.hpp"
#include "net/live_transport.hpp"
#include "net/wire_codec.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

using avmon::NodeId;
namespace sim = avmon::sim;
namespace net = avmon::net;

namespace {

constexpr std::size_t kEndpoints = 4;
constexpr std::size_t kOutstanding = 4;
/// A coarse view as the paper sizes it for N = 2000 (4 * N^0.25 entries).
constexpr std::size_t kPaperN = 2000;

enum class OpKind : std::uint8_t { kPing, kCvFetch, kMonitorPing };

/// The traffic mix: what AvmonNode handled in one synth-bd-2k run (the
/// paper-default CV/K workload; seed 271, the traced table in
/// perfbench/README.md). RPCs by kind (it made no swaps), and one-way
/// messages by kind: about 2.5 one-way messages per exchange, 13% of them
/// JOIN.
struct Mix {
  std::uint64_t pings = 19572;
  std::uint64_t cvFetches = 21660;
  std::uint64_t monitorPings = 39094;
  std::uint64_t joins = 26204;
  std::uint64_t notifies = 172770;

  constexpr std::uint64_t rpcs() const { return pings + cvFetches + monitorPings; }
  constexpr std::uint64_t oneWay() const { return joins + notifies; }
};
constexpr Mix kMix;

struct Op {
  OpKind kind = OpKind::kPing;
  std::uint8_t peer = 0;
  /// One-way messages sent to the peer when the exchange completes.
  std::uint8_t joins = 0;
  std::uint8_t notifies = 0;
};

class Responder final : public sim::Endpoint {
 public:
  void onMessage(const NodeId& from, const sim::Message& message) override {
    (void)from;
    received += 1;
    if (!std::holds_alternative<sim::JoinMessage>(message) &&
        !std::holds_alternative<sim::NotifyMessage>(message)) {
      unexpected += 1;
    }
  }

  sim::RpcResponse onRpc(const NodeId& from, const sim::RpcRequest& request) override {
    (void)from;
    return std::visit(
        sim::Overloaded{
            [](const sim::PingRequest&) -> sim::RpcResponse { return sim::PingResponse{}; },
            [this](const sim::CvFetchRequest&) -> sim::RpcResponse {
              return sim::CvFetchResponse{view};
            },
            [](const sim::SwapRequest&) -> sim::RpcResponse { return sim::SwapResponse{}; },
            [](const sim::MonitorPingRequest&) -> sim::RpcResponse {
              return sim::MonitorPingResponse{true};
            }},
        request);
  }

  std::vector<NodeId> view;
  std::uint64_t received = 0;
  std::uint64_t unexpected = 0;
};

struct Host {
  explicit Host(const net::LiveConfig& config) : transport(config) {}
  net::LiveTransport transport;
  Responder responder;
  std::vector<Op> script;
  std::size_t next = 0;
};

/// What one batch saw.
struct BatchResult {
  double setupS = 0.0;
  double runS = 0.0;
  double cpuS = 0.0;
  std::uint64_t exchanges = 0;
  std::uint64_t oneWaySent = 0;
  std::uint64_t failed = 0;
  std::uint64_t badPayloads = 0;
  std::uint64_t badSettles = 0;
  std::uint64_t missingOneWay = 0;
  std::vector<double> rttUs;
  net::LiveCounters counters;
  // Traced batches only.
  std::uint64_t polls = 0;
  std::uint64_t frames = 0;
  double pollS = 0.0;
};

sim::RpcRequest requestFor(OpKind kind, std::size_t cvs) {
  switch (kind) {
    case OpKind::kPing:
      return sim::PingRequest{};
    case OpKind::kCvFetch: {
      sim::CvFetchRequest fetch;
      fetch.responseBudgetBytes = cvs * NodeId::kWireSize;
      return fetch;
    }
    case OpKind::kMonitorPing:
      break;
  }
  return sim::MonitorPingRequest{};
}

class Batch {
 public:
  Batch(std::uint64_t seed, std::size_t exchanges, bool corruptExpected)
      : exchanges_(exchanges), corrupt_(corruptExpected) {
    const std::int64_t start = nowNs();
    cvs_ = avmon::AvmonConfig::paperDefaults(kPaperN).cvs;
    avmon::Rng rng(seed);
    for (auto& host : hosts_) {
      host = std::make_unique<Host>(net::LiveConfig{});
      if (!host->transport.open(NodeId(0x7F000001u, 0))) {
        throw std::runtime_error("live-rpc: cannot bind a UDP socket on 127.0.0.1");
      }
      const NodeId id = host->transport.local();
      host->transport.attach(id, host->responder);
      host->transport.setUp(id, true);
      for (std::size_t e = 0; e < cvs_; ++e) {
        host->responder.view.push_back(
            NodeId::fromIndex(static_cast<std::uint32_t>(rng.below(1u << 20))));
      }
    }
    // The op script, in kMix's proportions, each op to a uniformly drawn
    // other endpoint. Each op carries floor(oneWay / rpcs) one-way
    // messages, plus one more with the remainder's probability.
    for (std::size_t h = 0; h < kEndpoints; ++h) {
      Host& host = *hosts_[h];
      host.script.resize(exchanges_ / kEndpoints);
      for (Op& op : host.script) {
        const std::uint64_t roll = rng.below(kMix.rpcs());
        op.kind = roll < kMix.pings                     ? OpKind::kPing
                  : roll < kMix.pings + kMix.cvFetches ? OpKind::kCvFetch
                                                        : OpKind::kMonitorPing;
        op.peer = static_cast<std::uint8_t>((h + 1 + rng.below(kEndpoints - 1)) % kEndpoints);
        std::uint64_t oneWay = kMix.oneWay() / kMix.rpcs();
        if (rng.below(kMix.rpcs()) < kMix.oneWay() % kMix.rpcs()) oneWay += 1;
        for (; oneWay > 0; --oneWay) {
          if (rng.below(kMix.oneWay()) < kMix.joins) {
            op.joins += 1;
          } else {
            op.notifies += 1;
          }
        }
      }
    }
    startedAt_.assign(exchanges_, 0);
    settles_.assign(exchanges_, 0);
    result_.setupS = secondsSince(start);
  }

  /// Runs the batch to completion; `traced` times every poll() call.
  BatchResult run(bool traced) {
    const double cpu0 = processCpuSeconds();
    const std::int64_t start = nowNs();
    for (std::size_t h = 0; h < kEndpoints; ++h) {
      for (std::size_t i = 0; i < kOutstanding; ++i) launch(h);
    }
    const auto pollAll = [&] {
      for (auto& host : hosts_) {
        if (!traced) {
          host->transport.poll(0);
          continue;
        }
        const std::int64_t t0 = nowNs();
        result_.frames += host->transport.poll(0);
        result_.pollS += static_cast<double>(nowNs() - t0) * 1e-9;
        result_.polls += 1;
      }
    };
    while (settled_ < launched_ || anyScriptLeft()) pollAll();
    // One-way messages carry no reply; give the last ones a moment to land.
    const std::int64_t drainDeadline = nowNs() + 500'000'000;
    while (receivedOneWay() < result_.oneWaySent && nowNs() < drainDeadline) pollAll();
    result_.runS = secondsSince(start);
    result_.cpuS = processCpuSeconds() - cpu0;

    for (const std::uint8_t s : settles_) {
      if (s != 1) result_.badSettles += 1;
    }
    result_.missingOneWay = result_.oneWaySent - std::min(result_.oneWaySent, receivedOneWay());
    for (auto& host : hosts_) {
      const net::LiveCounters& c = host->transport.counters();
      result_.counters.datagramsSent += c.datagramsSent;
      result_.counters.datagramsReceived += c.datagramsReceived;
      result_.counters.decodeFailures += c.decodeFailures;
      result_.counters.rpcRetries += c.rpcRetries;
      result_.counters.rpcTimeouts += c.rpcTimeouts;
      result_.counters.duplicateRequests += c.duplicateRequests;
      result_.badPayloads += host->responder.unexpected;
    }
    result_.exchanges = launched_;
    result_.failed = result_.counters.rpcTimeouts + result_.badPayloads + result_.badSettles +
                     result_.missingOneWay + result_.counters.decodeFailures;
    return std::move(result_);
  }

  /// The frames this batch put on the wire for the first `limit` ops of
  /// endpoint 0: request, response and one-way frames, encoded by the
  /// public codec the transport uses.
  std::vector<std::vector<std::uint8_t>> sampleFrames(std::size_t limit) {
    std::vector<std::vector<std::uint8_t>> frames;
    const Host& host = *hosts_[0];
    const NodeId self = host.transport.local();
    std::uint64_t callId = 1;
    for (std::size_t i = 0; i < host.script.size() && i < limit; ++i) {
      const Op& op = host.script[i];
      Host& peer = *hosts_[op.peer];
      const sim::RpcRequest request = requestFor(op.kind, cvs_);
      frames.push_back(net::encodeRequest(self, callId, request));
      frames.push_back(net::encodeResponse(peer.transport.local(), callId,
                                           peer.responder.onRpc(self, request)));
      forEachOneWay(op, self, [&](const sim::Message& message) {
        frames.push_back(net::encodeMessage(self, message));
      });
      ++callId;
    }
    return frames;
  }

 private:
  bool anyScriptLeft() const {
    for (const auto& host : hosts_) {
      if (host->next < host->script.size()) return true;
    }
    return false;
  }

  std::uint64_t receivedOneWay() const {
    std::uint64_t total = 0;
    for (const auto& host : hosts_) total += host->responder.received;
    return total;
  }

  /// Calls `f` with each one-way message `op` sends from `self`.
  template <class F>
  static void forEachOneWay(const Op& op, const NodeId& self, F&& f) {
    for (std::uint8_t i = 0; i < op.joins; ++i) f(sim::Message{sim::JoinMessage{self, 1}});
    for (std::uint8_t i = 0; i < op.notifies; ++i) {
      f(sim::Message{sim::NotifyMessage{self, self}});
    }
  }

  void launch(std::size_t h) {
    Host& host = *hosts_[h];
    if (host.next >= host.script.size()) return;
    const Op op = host.script[host.next++];
    const std::size_t index = launched_++;
    const NodeId self = host.transport.local();
    const NodeId to = hosts_[op.peer]->transport.local();
    startedAt_[index] = nowNs();
    host.transport.callAsyncErased(
        self, to, requestFor(op.kind, cvs_),
        [this, h, index, op](std::optional<sim::RpcResponse> response) {
          complete(h, index, op, response);
        });
  }

  void complete(std::size_t h, std::size_t index, Op op,
                const std::optional<sim::RpcResponse>& response) {
    const std::int64_t now = nowNs();
    settles_[index] += 1;
    settled_ += 1;
    result_.rttUs.push_back(static_cast<double>(now - startedAt_[index]) * 1e-3);
    if (response && !responseMatches(op, *response)) result_.badPayloads += 1;
    Host& host = *hosts_[h];
    const NodeId self = host.transport.local();
    const NodeId to = hosts_[op.peer]->transport.local();
    forEachOneWay(op, self, [&](const sim::Message& message) {
      host.transport.send(self, to, message);
      result_.oneWaySent += 1;
    });
    launch(h);
  }

  bool responseMatches(Op op, const sim::RpcResponse& response) const {
    switch (op.kind) {
      case OpKind::kPing:
        return std::holds_alternative<sim::PingResponse>(response);
      case OpKind::kMonitorPing: {
        const auto* ack = std::get_if<sim::MonitorPingResponse>(&response);
        return ack != nullptr && ack->acknowledged;
      }
      case OpKind::kCvFetch: {
        const auto* fetch = std::get_if<sim::CvFetchResponse>(&response);
        if (fetch == nullptr) return false;
        std::vector<NodeId> expected = hosts_[op.peer]->responder.view;
        if (corrupt_ && !expected.empty()) expected[0] = NodeId(expected[0].ip() ^ 1u, expected[0].port());
        return fetch->view == expected;
      }
    }
    return false;
  }

  std::size_t exchanges_;
  bool corrupt_;
  std::size_t cvs_ = 0;
  std::array<std::unique_ptr<Host>, kEndpoints> hosts_;
  std::vector<std::int64_t> startedAt_;
  std::vector<std::uint8_t> settles_;
  std::size_t launched_ = 0;
  std::size_t settled_ = 0;
  BatchResult result_;
};

/// ns per frame to encode (by re-encoding) and decode `frames`.
std::pair<double, double> codecNs(const std::vector<std::vector<std::uint8_t>>& frames,
                                  std::uint64_t& decodeFailures) {
  std::vector<net::Frame> decoded;
  for (const auto& f : frames) {
    auto frame = net::decodeFrame(f.data(), f.size());
    if (!frame) {
      decodeFailures += 1;
      continue;
    }
    decoded.push_back(std::move(*frame));
  }
  std::vector<double> enc, dec;
  std::size_t sink = 0;
  for (int round = 0; round < 7; ++round) {
    std::int64_t t0 = nowNs();
    for (const net::Frame& f : decoded) {
      if (f.request) sink += net::encodeRequest(f.sender, f.callId, *f.request).size();
      if (f.response) sink += net::encodeResponse(f.sender, f.callId, *f.response).size();
      if (f.message) sink += net::encodeMessage(f.sender, *f.message).size();
    }
    enc.push_back(static_cast<double>(nowNs() - t0) / static_cast<double>(decoded.size()));
    t0 = nowNs();
    for (const auto& f : frames) sink += net::decodeFrame(f.data(), f.size()).has_value();
    dec.push_back(static_cast<double>(nowNs() - t0) / static_cast<double>(frames.size()));
  }
  if (sink == 0) decodeFailures += 1;
  return {median(enc), median(dec)};
}

std::size_t batchExchanges(const RunOptions& o) { return o.size == "tiny" ? 2000 : 40000; }

}  // namespace

Report runLiveRpc(const RunOptions& o) {
  Report report;
  const std::size_t exchanges = batchExchanges(o);
  std::uint64_t seed = o.seed;
  std::vector<BatchResult> warmup, plain, traced;
  double firstBatchRss = 0.0;
  std::vector<std::vector<std::uint8_t>> frames;

  const auto runBatch = [&](bool tracedBatch) {
    Batch batch(seed++, exchanges, o.corruptExpected);
    if (frames.empty()) frames = batch.sampleFrames(2000);
    BatchResult r = batch.run(tracedBatch);
    report.attempted += r.exchanges + r.oneWaySent;
    report.failed += r.failed;
    return r;
  };

  const std::int64_t start = nowNs();
  if (!o.trace) {
    // Warm-up, untimed but checked like the rest: the first batch of a
    // process pays for fresh pages and socket set-up paths.
    warmup.push_back(runBatch(false));
    firstBatchRss = peakRssBytes();
    // The process is single-threaded: each batch runs on the next CPU in
    // turn, so every run samples every core it was given.
    std::vector<double> wall;
    for (;;) {
      pinToCpu(plain.size());
      const std::int64_t t0 = nowNs();
      plain.push_back(runBatch(false));
      wall.push_back(secondsSince(t0));
      if (plain.size() >= 4 && secondsSince(start) + median(wall) > o.seconds) break;
    }
    unpinCpu();
  } else {
    // A fixed amount of work, so every count below repeats exactly.
    for (int i = 0; i < 3; ++i) plain.push_back(runBatch(false));
    for (int i = 0; i < 3; ++i) traced.push_back(runBatch(true));
  }

  std::uint64_t badPayloads = 0, badSettles = 0, missing = 0, timeouts = 0, decodeFailures = 0;
  std::vector<double> setup, run, cpu, rate, rtt;
  for (const auto* set : {&warmup, &plain, &traced}) {
    for (const BatchResult& r : *set) {
      badPayloads += r.badPayloads;
      badSettles += r.badSettles;
      missing += r.missingOneWay;
      timeouts += r.counters.rpcTimeouts;
      decodeFailures += r.counters.decodeFailures;
    }
  }
  for (const BatchResult& r : plain) {
    setup.push_back(r.setupS);
    run.push_back(r.runS);
    cpu.push_back(r.cpuS);
    rate.push_back(static_cast<double>(r.exchanges) / r.runS);
    rtt.insert(rtt.end(), r.rttUs.begin(), r.rttUs.end());
  }
  report.check("payloads_exact", badPayloads == 0, std::to_string(badPayloads) + " mismatched");
  report.check("settle_exactly_once", badSettles == 0, std::to_string(badSettles) + " exchanges");
  report.check("one_way_delivered", missing == 0, std::to_string(missing) + " missing");
  report.check("no_timeouts", timeouts == 0, std::to_string(timeouts) + " timed out");
  report.check("no_decode_failures", decodeFailures == 0, std::to_string(decodeFailures));
  report.note("batches", std::to_string(warmup.size() + plain.size() + traced.size()));
  report.note("exchanges_per_batch", std::to_string(exchanges));
  report.note("rtt_samples", std::to_string(rtt.size()));
  std::string runs;
  for (const double r : run) runs += (runs.empty() ? "" : " ") + std::to_string(r);
  report.note("run_s_each", runs);

  if (!o.trace) {
    report.metric("setup_s", median(setup), "s");
    report.metric("run_s", median(run), "s");
    report.metric("cpu_s", median(cpu), "s");
    report.metric("bytes_per_node", firstBatchRss / static_cast<double>(kEndpoints), "B");
    report.metric("ops_per_s", median(rate), "1/s");
    return report;
  }

  net::LiveCounters c;
  std::uint64_t polls = 0, framesPolled = 0, tracedExchanges = 0;
  double pollS = 0.0;
  std::vector<double> tracedRun;
  for (const BatchResult& r : traced) {
    c.datagramsSent += r.counters.datagramsSent;
    c.datagramsReceived += r.counters.datagramsReceived;
    c.rpcRetries += r.counters.rpcRetries;
    c.rpcTimeouts += r.counters.rpcTimeouts;
    c.duplicateRequests += r.counters.duplicateRequests;
    c.decodeFailures += r.counters.decodeFailures;
    polls += r.polls;
    framesPolled += r.frames;
    pollS += r.pollS;
    tracedExchanges += r.exchanges;
    tracedRun.push_back(r.runS);
  }
  std::uint64_t codecFailures = 0;
  const auto [encodeNs, decodeNs] = codecNs(frames, codecFailures);
  if (!report.check("codec_round_trip", codecFailures == 0, std::to_string(codecFailures))) {
    report.failed += codecFailures;
  }
  double tracedTotal = 0.0;
  for (const double s : tracedRun) tracedTotal += s;

  report.metric("net.datagrams_sent", static_cast<double>(c.datagramsSent), "count");
  report.metric("net.datagrams_received", static_cast<double>(c.datagramsReceived), "count");
  report.metric("net.rpc_retries", static_cast<double>(c.rpcRetries), "count");
  report.metric("net.rpc_timeouts", static_cast<double>(c.rpcTimeouts), "count");
  report.metric("net.duplicate_requests", static_cast<double>(c.duplicateRequests), "count");
  report.metric("net.decode_failures", static_cast<double>(c.decodeFailures), "count");
  report.metric("net.polls_per_exchange",
                tracedExchanges ? static_cast<double>(polls) / static_cast<double>(tracedExchanges) : 0.0,
                "ratio");
  report.metric("net.frames_per_poll",
                polls ? static_cast<double>(framesPolled) / static_cast<double>(polls) : 0.0, "ratio");
  const double batches = static_cast<double>(traced.size());
  report.metric("net.poll_s", pollS / batches, "s");
  report.metric("net.encode_ns", encodeNs, "ns");
  report.metric("net.decode_ns", decodeNs, "ns");
  report.metric("net.rtt_p50_us", quantile(rtt, 0.5), "us");
  report.metric("net.rtt_p99_us", quantile(rtt, 0.99), "us");
  report.metric("run.untraced_s", median(run), "s");
  report.metric("run.traced_s", median(tracedRun), "s");
  report.metric("run.trace_overhead_s", median(tracedRun) - median(run), "s");
  report.metric("run.unattributed_s", (tracedTotal - pollS) / batches, "s");
  report.metric("run.attributed_fraction", tracedTotal > 0 ? pollS / tracedTotal : 0.0, "ratio");
  report.metric("run.workers", 1.0, "count");
  return report;
}

}  // namespace perfbench
