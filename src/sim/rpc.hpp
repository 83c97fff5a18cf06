// Typed request/response exchanges over the simulated network.
//
// Synchronous protocol steps (coarse-view ping, CV fetch, half-view swap,
// monitoring ping) are modeled as RPCs. Each exchange is a closed
// request/response type pair: the caller hands the network an `RpcRequest`
// alternative, the target's `Endpoint::onRpc` serves it, and the caller
// gets the matching response back — no protocol code ever sees, let alone
// downcasts, another node object.
//
// Wire-size accounting lives with the request type. Both legs are
// *caller-declared* budgets, matching the paper's fixed-format accounting
// (e.g. a CV fetch is charged as bytesPerEntry · (|CV(x)|+1) regardless of
// how many entries the responder actually returns): `requestWireBytes()`
// is charged to the caller unconditionally, `responseWireBytes()` to the
// target iff the exchange succeeds. A timeout (target down, detached, or
// an injected failure) is an empty optional — the request leg is spent,
// the response leg is not.
//
// Adding a new exchange: define the request/response structs, add both to
// the variants, specialize RpcTraits, and recompile — every exhaustive
// onRpc dispatch now fails until the new request is served.
#pragma once

#include <cstddef>
#include <variant>
#include <vector>

#include "common/node_id.hpp"
#include "sim/message.hpp"

namespace avmon::sim {

/// Liveness probe: Figure 2 step 1 (coarse-view entry ping) and the
/// generic "are you up" any live endpoint answers. Ping-sized both ways.
struct PingRequest {
  std::size_t pingBytes = 8;

  std::size_t requestWireBytes() const noexcept { return pingBytes; }
  std::size_t responseWireBytes() const noexcept { return pingBytes; }
};
struct PingResponse {};

/// Coarse-view fetch: Figure 2 step 2, and the join-time view inheritance
/// of Figure 1. The ask is ping-sized; the response budget is declared by
/// the caller (bytesPerEntry · expected entries).
struct CvFetchRequest {
  std::size_t pingBytes = 8;
  std::size_t responseBudgetBytes = 0;

  std::size_t requestWireBytes() const noexcept { return pingBytes; }
  std::size_t responseWireBytes() const noexcept { return responseBudgetBytes; }
};
struct CvFetchResponse {
  std::vector<NodeId> view;  ///< the responder's current coarse view
};

/// CYCLON-style half-view swap (ShufflePolicy::kSwap): the caller offers
/// `offered`, the responder absorbs them and hands back an equal-sized
/// random slice of its own view. Both legs are charged as
/// entryBytes · budgetEntries, the halves the protocol negotiated.
struct SwapRequest {
  std::vector<NodeId> offered;
  std::size_t entryBytes = 8;
  std::size_t budgetEntries = 0;

  std::size_t requestWireBytes() const noexcept {
    return entryBytes * budgetEntries;
  }
  std::size_t responseWireBytes() const noexcept {
    return entryBytes * budgetEntries;
  }
};
struct SwapResponse {
  std::vector<NodeId> given;  ///< entries the responder traded away
};

/// Monitoring ping (Section 3.3): like a liveness probe, but the target
/// also records the arrival for the PR2 re-advertisement baseline.
struct MonitorPingRequest {
  std::size_t pingBytes = 8;

  std::size_t requestWireBytes() const noexcept { return pingBytes; }
  std::size_t responseWireBytes() const noexcept { return pingBytes; }
};
struct MonitorPingResponse {
  bool acknowledged = true;
};

/// The closed sets of everything that can cross the network as an RPC.
using RpcRequest =
    std::variant<PingRequest, CvFetchRequest, SwapRequest, MonitorPingRequest>;
using RpcResponse = std::variant<PingResponse, CvFetchResponse, SwapResponse,
                                 MonitorPingResponse>;

/// Compile-time request → response mapping, so call sites get the concrete
/// response type back (see Transport::exchangeAsync) without touching the
/// variant.
template <class Request>
struct RpcTraits;
template <>
struct RpcTraits<PingRequest> {
  using Response = PingResponse;
};
template <>
struct RpcTraits<CvFetchRequest> {
  using Response = CvFetchResponse;
};
template <>
struct RpcTraits<SwapRequest> {
  using Response = SwapResponse;
};
template <>
struct RpcTraits<MonitorPingRequest> {
  using Response = MonitorPingResponse;
};

/// Bytes charged to the caller when the request is sent.
inline std::size_t requestWireBytes(const RpcRequest& request) {
  return std::visit([](const auto& r) { return r.requestWireBytes(); },
                    request);
}

/// Bytes charged to the target when the response is produced.
inline std::size_t responseWireBytes(const RpcRequest& request) {
  return std::visit([](const auto& r) { return r.responseWireBytes(); },
                    request);
}

}  // namespace avmon::sim
