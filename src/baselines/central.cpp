#include "baselines/central.hpp"

namespace avmon::baselines {

CentralServer::CentralServer(NodeId id, sim::Simulator& sim, sim::Network& net,
                             SimDuration monitoringPeriod,
                             std::size_t pingBytes)
    : id_(id),
      sim_(sim),
      net_(net),
      monitoringPeriod_(monitoringPeriod),
      pingBytes_(pingBytes) {
  net_.attach(id_, *this);
}

void CentralServer::start() {
  if (started_) return;
  started_ = true;
  net_.setUp(id_, true);
  sim_.every(sim_.now() + monitoringPeriod_, monitoringPeriod_, [this] {
    tick();
    return true;
  });
}

void CentralServer::tick() {
  // Ping in registration order, not container hash order: the ping
  // sequence is observable behavior (traffic counters, history sample
  // timestamps), so it must be a function of what the members did. Each
  // sample is recorded when its exchange settles but stamped with the tick
  // instant, so the sample grid is one point per member per period.
  const SimTime sentAt = sim_.now();
  for (const NodeId& member : memberOrder_) {
    ++pingsSent_;
    net_.exchangeAsync(id_, member, sim::PingRequest{pingBytes_},
                       [this, member, sentAt](
                           std::optional<sim::PingResponse> pong) {
                         const bool up = pong.has_value();
                         if (!up) ++uselessPings_;
                         members_.at(member).record(sentAt, up);
                       });
  }
}

double CentralServer::estimateOf(const NodeId& member) const {
  const auto it = members_.find(member);
  return it == members_.end() ? 0.0 : it->second.estimate();
}

const history::RawHistory* CentralServer::historyOf(
    const NodeId& member) const {
  const auto it = members_.find(member);
  return it == members_.end() ? nullptr : &it->second;
}

std::optional<SimTime> CentralServer::registeredAt(const NodeId& member) const {
  const auto it = registeredAt_.find(member);
  if (it == registeredAt_.end()) return std::nullopt;
  return it->second;
}

void CentralServer::onMessage(const NodeId& /*from*/,
                              const sim::Message& message) {
  std::visit(sim::Overloaded{
                 [this](const RegisterMessage& reg) {
                   if (members_.try_emplace(reg.origin).second) {
                     memberOrder_.push_back(reg.origin);
                   }
                   registeredAt_.try_emplace(reg.origin, sim_.now());
                 },
                 [](const auto&) {},  // not this scheme's traffic
             },
             message);
}

CentralMember::CentralMember(NodeId id, NodeId server, sim::Network& net)
    : id_(id), server_(server), net_(net) {
  net_.attach(id_, *this);
}

void CentralMember::join() {
  if (alive_) return;
  alive_ = true;
  net_.setUp(id_, true);
  net_.send(id_, server_, RegisterMessage{id_});
}

void CentralMember::leave() {
  if (!alive_) return;
  alive_ = false;
  net_.setUp(id_, false);
}

void CentralMember::onMessage(const NodeId&, const sim::Message&) {
  // Members receive no one-way traffic; they answer the server's pings
  // through Endpoint's default onRpc liveness acknowledgement.
}

}  // namespace avmon::baselines
