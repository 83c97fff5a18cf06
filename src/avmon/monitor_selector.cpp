#include "avmon/monitor_selector.hpp"

#include <stdexcept>

namespace avmon {
namespace {

// A 64-bit digest scaled to [0, 1), as HashFunction::normalized does.
double unitPoint(std::uint64_t digest) noexcept {
  return static_cast<double>(digest) * 0x1.0p-64;
}

// splitmix-style combine of the two 48-bit identities; the memo table size
// is a power of two, so only well-mixed bits may index it. Lookup and
// rehash must agree on this function bit-for-bit.
std::uint64_t mixPair(std::uint64_t observer, std::uint64_t target) noexcept {
  std::uint64_t h = observer * 0x9E3779B97F4A7C15ULL ^ target;
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
  return h ^ (h >> 31);
}

}  // namespace

HashMonitorSelector::HashMonitorSelector(const hash::HashFunction& hash,
                                         unsigned k, std::size_t systemSize)
    : hash_(hash), k_(k), systemSize_(systemSize) {
  if (k_ < 1) throw std::invalid_argument("HashMonitorSelector: K must be >= 1");
  if (systemSize_ < 2)
    throw std::invalid_argument("HashMonitorSelector: N must be >= 2");
  threshold_ =
      static_cast<double>(k_) / static_cast<double>(systemSize_);
  // Binary search for the last digest inside the threshold; digest 0 always
  // is (threshold_ > 0).
  std::uint64_t lo = 0, hi = ~std::uint64_t{0};
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2 + 1;
    if (unitPoint(mid) <= threshold_) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  maxDigest_ = lo;
}

double HashMonitorSelector::hashPoint(const NodeId& observer,
                                      const NodeId& target) const {
  // The 12-byte message observer id then target id, matching the paper's
  // H(y, x) with y the (candidate) monitor.
  return unitPoint(hash_.digestPair64(observer.packed(), target.packed()));
}

bool HashMonitorSelector::isMonitor(const NodeId& observer,
                                    const NodeId& target) const {
  if (observer == target) return false;
  // Same verdict as hashPoint(observer, target) <= threshold_.
  return hash_.digestPair64(observer.packed(), target.packed()) <= maxDigest_;
}

std::string HashMonitorSelector::describe() const {
  return "hash(" + hash_.name() + "), K=" + std::to_string(k_) +
         ", N=" + std::to_string(systemSize_);
}

bool MemoizedMonitorSelector::isMonitor(const NodeId& observer,
                                        const NodeId& target) const {
  if (slots_.empty()) return inner_.isMonitor(observer, target);
  const std::uint64_t obs = observer.packed();
  const std::uint64_t tgt = target.packed();
  const std::uint64_t h = mixPair(obs, tgt);

  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(h) & mask;
  while (slots_[i].targetBits != 0) {
    if (slots_[i].observer == obs &&
        (slots_[i].targetBits & kIdMask) == tgt) {
      return (slots_[i].targetBits & kVerdictBit) != 0;
    }
    i = (i + 1) & mask;
  }

  const bool verdict = inner_.isMonitor(observer, target);
  if (count_ * 2 >= slots_.size()) {
    if (slots_.size() >= kMaxSlots) return verdict;  // cache full: passthrough
    grow();
    i = static_cast<std::size_t>(h) & (slots_.size() - 1);
    while (slots_[i].targetBits != 0) i = (i + 1) & (slots_.size() - 1);
  }
  slots_[i] = Slot{obs, kOccupiedBit | (verdict ? kVerdictBit : 0) | tgt};
  ++count_;
  return verdict;
}

void MemoizedMonitorSelector::grow() const {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.targetBits == 0) continue;
    const std::uint64_t h = mixPair(slot.observer, slot.targetBits & kIdMask);
    std::size_t i = static_cast<std::size_t>(h) & mask;
    while (slots_[i].targetBits != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

}  // namespace avmon
