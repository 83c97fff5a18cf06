// Monitor-selection scheme tests: the paper's six properties that concern
// selection — consistency, verifiability, randomness (uniformity and
// non-correlation) — plus expected pinging-set size.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <unordered_map>
#include <vector>

#include "avmon/monitor_selector.hpp"
#include "common/rng.hpp"
#include "hash/hash_function.hpp"

namespace avmon {
namespace {

class SelectorTest : public ::testing::Test {
 protected:
  hash::Md5HashFunction md5_;
};

TEST_F(SelectorTest, RejectsBadParameters) {
  EXPECT_THROW(HashMonitorSelector(md5_, 0, 100), std::invalid_argument);
  EXPECT_THROW(HashMonitorSelector(md5_, 5, 1), std::invalid_argument);
}

TEST_F(SelectorTest, NeverSelfMonitor) {
  HashMonitorSelector sel(md5_, 50, 100);  // huge K/N to stress it
  for (std::uint32_t i = 0; i < 500; ++i) {
    const NodeId id = NodeId::fromIndex(i);
    EXPECT_FALSE(sel.isMonitor(id, id));
  }
}

TEST_F(SelectorTest, ConsistencyVerdictNeverChanges) {
  // The core Consistency property: the verdict is a pure function of the
  // two ids — repeated queries, in any order, agree.
  HashMonitorSelector sel(md5_, 10, 1000);
  const NodeId a = NodeId::fromIndex(3), b = NodeId::fromIndex(8);
  const bool first = sel.isMonitor(a, b);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sel.isMonitor(a, b), first);
}

TEST_F(SelectorTest, VerifiabilityThirdPartyAgrees) {
  // Any third party computing the same scheme reaches the same verdict.
  hash::Md5HashFunction otherInstance;
  HashMonitorSelector sel1(md5_, 10, 1000);
  HashMonitorSelector sel2(otherInstance, 10, 1000);
  for (std::uint32_t i = 0; i < 50; ++i) {
    for (std::uint32_t j = 0; j < 50; ++j) {
      const NodeId a = NodeId::fromIndex(i), b = NodeId::fromIndex(j);
      EXPECT_EQ(sel1.isMonitor(a, b), sel2.isMonitor(a, b));
    }
  }
}

TEST_F(SelectorTest, DirectionalityMatters) {
  // y ∈ PS(x) does not imply x ∈ PS(y): the hash covers the ordered pair.
  HashMonitorSelector sel(md5_, 300, 1000);  // high rate to find examples
  int asymmetric = 0;
  for (std::uint32_t i = 0; i < 60 && asymmetric == 0; ++i) {
    for (std::uint32_t j = i + 1; j < 60; ++j) {
      const NodeId a = NodeId::fromIndex(i), b = NodeId::fromIndex(j);
      if (sel.isMonitor(a, b) != sel.isMonitor(b, a)) {
        ++asymmetric;
        break;
      }
    }
  }
  EXPECT_GT(asymmetric, 0);
}

TEST_F(SelectorTest, ExpectedPingingSetSizeIsK) {
  // Randomness/uniformity: over a population of N nodes, |PS(x)| ≈ K.
  constexpr std::size_t kN = 1000;
  constexpr unsigned kK = 10;
  HashMonitorSelector sel(md5_, kK, kN);

  std::vector<NodeId> ids;
  ids.reserve(kN);
  for (std::uint32_t i = 0; i < kN; ++i) ids.push_back(NodeId::fromIndex(i));

  double totalPs = 0;
  for (std::size_t x = 0; x < 200; ++x) {  // sample of targets
    std::size_t ps = 0;
    for (std::size_t y = 0; y < kN; ++y) {
      if (x == y) continue;
      ps += sel.isMonitor(ids[y], ids[x]) ? 1 : 0;
    }
    totalPs += static_cast<double>(ps);
  }
  const double meanPs = totalPs / 200.0;
  EXPECT_NEAR(meanPs, static_cast<double>(kK), 1.0);
}

TEST_F(SelectorTest, ThresholdIsExactlyKOverN) {
  const std::pair<unsigned, std::size_t> cases[] = {
      {1, 2}, {10, 1000}, {17, 131072}, {50, 100}, {1000, 1000}};
  for (const auto& [k, n] : cases) {
    HashMonitorSelector sel(md5_, k, n);
    EXPECT_DOUBLE_EQ(sel.threshold(),
                     static_cast<double>(k) / static_cast<double>(n))
        << "K=" << k << " N=" << n;
    EXPECT_EQ(sel.k(), k);
    EXPECT_EQ(sel.systemSize(), n);
  }
}

TEST_F(SelectorTest, HashPointStaysInUnitInterval) {
  HashMonitorSelector sel(md5_, 10, 1000);
  for (std::uint32_t i = 0; i < 60; ++i) {
    for (std::uint32_t j = 0; j < 60; ++j) {
      const double h = sel.hashPoint(NodeId::fromIndex(i), NodeId::fromIndex(j));
      EXPECT_GE(h, 0.0);
      EXPECT_LT(h, 1.0);
    }
  }
}

TEST_F(SelectorTest, NeverSelfMonitorEvenWithSaturatedThreshold) {
  // K >= N drives the threshold to >= 1, so the hash condition holds for
  // every pair — the explicit self-exclusion must still win.
  HashMonitorSelector sel(md5_, 2000, 1000);
  ASSERT_GE(sel.threshold(), 1.0);
  for (std::uint32_t i = 0; i < 200; ++i) {
    const NodeId id = NodeId::fromIndex(i);
    EXPECT_FALSE(sel.isMonitor(id, id));
    EXPECT_TRUE(sel.isMonitor(id, NodeId::fromIndex(i + 1)));
  }
}

TEST_F(SelectorTest, HashPointMatchesThresholdDecision) {
  HashMonitorSelector sel(md5_, 10, 1000);
  for (std::uint32_t i = 0; i < 40; ++i) {
    for (std::uint32_t j = 0; j < 40; ++j) {
      if (i == j) continue;
      const NodeId a = NodeId::fromIndex(i), b = NodeId::fromIndex(j);
      EXPECT_EQ(sel.isMonitor(a, b), sel.hashPoint(a, b) <= sel.threshold());
    }
  }
}

TEST_F(SelectorTest, NonCorrelationAcrossTargets) {
  // Randomness condition 3(b): membership of y in PS(x) says nothing about
  // membership in PS(w). Estimate P(y∈PS(w) | y∈PS(x)) and compare with
  // the unconditional rate K/N.
  constexpr std::size_t kN = 2000;
  constexpr unsigned kK = 40;  // higher rate for statistical power
  HashMonitorSelector sel(md5_, kK, kN);

  std::vector<NodeId> ids;
  for (std::uint32_t i = 0; i < kN; ++i) ids.push_back(NodeId::fromIndex(i));
  const NodeId x = ids[0], w = ids[1];

  std::size_t inX = 0, inBoth = 0;
  for (std::size_t y = 2; y < kN; ++y) {
    const bool mx = sel.isMonitor(ids[y], x);
    const bool mw = sel.isMonitor(ids[y], w);
    inX += mx ? 1 : 0;
    inBoth += (mx && mw) ? 1 : 0;
  }
  ASSERT_GT(inX, 0u);
  const double conditional =
      static_cast<double>(inBoth) / static_cast<double>(inX);
  const double unconditional = static_cast<double>(kK) / kN;
  // Conditional rate should be close to unconditional (no correlation).
  EXPECT_LT(conditional, unconditional * 5 + 0.05);
}

TEST_F(SelectorTest, UniformAcrossCandidates) {
  // Randomness condition 3(a): every node is picked as monitor with the
  // same likelihood. Count how often each of a fixed candidate set lands
  // in pinging sets across many targets; counts should concentrate.
  constexpr std::size_t kN = 500;
  constexpr unsigned kK = 25;
  HashMonitorSelector sel(md5_, kK, kN);

  std::vector<NodeId> ids;
  for (std::uint32_t i = 0; i < kN; ++i) ids.push_back(NodeId::fromIndex(i));

  std::vector<int> monitorCount(kN, 0);
  for (std::size_t x = 0; x < kN; ++x) {
    for (std::size_t y = 0; y < kN; ++y) {
      if (x == y) continue;
      if (sel.isMonitor(ids[y], ids[x])) ++monitorCount[y];
    }
  }
  // Each candidate expects K·(N-1)/N ≈ 25 appearances, binomial stddev ≈ 5.
  for (std::size_t y = 0; y < kN; ++y) {
    EXPECT_GT(monitorCount[y], 2) << "node " << y << " starved";
    EXPECT_LT(monitorCount[y], 60) << "node " << y << " overloaded";
  }
}

TEST_F(SelectorTest, MemoizedMatchesInner) {
  HashMonitorSelector inner(md5_, 10, 500);
  MemoizedMonitorSelector memo(inner);
  for (std::uint32_t i = 0; i < 30; ++i) {
    for (std::uint32_t j = 0; j < 30; ++j) {
      const NodeId a = NodeId::fromIndex(i), b = NodeId::fromIndex(j);
      EXPECT_EQ(memo.isMonitor(a, b), inner.isMonitor(a, b));
      EXPECT_EQ(memo.isMonitor(a, b), inner.isMonitor(a, b));  // cached path
    }
  }
  EXPECT_GT(memo.cacheSize(), 0u);
}

// A hash whose every digest is one chosen value, to drive isMonitor's
// integer threshold across the K/N boundary.
class FixedDigestHash final : public hash::HashFunction {
 public:
  std::uint64_t value = 0;
  std::uint64_t digest64(ByteSpan) const override { return value; }
  std::string name() const override { return "fixed"; }
  bool costlyDigest() const noexcept override { return false; }
};

TEST(SelectorThresholdTest, IntegerThresholdMatchesHashPointRule) {
  FixedDigestHash fixed;
  const NodeId a = NodeId::fromIndex(1), b = NodeId::fromIndex(2);
  const std::pair<unsigned, std::size_t> kn[] = {
      {1, 2}, {1, 3}, {3, 7}, {7, 10}, {11, 2000}, {1, 1000000}, {5, 5}, {9, 4}};
  for (const auto& [k, n] : kn) {
    HashMonitorSelector sel(fixed, k, n);
    const double scaled = std::ldexp(sel.threshold(), 64);
    const std::uint64_t near = scaled >= 0x1.0p64
                                   ? ~std::uint64_t{0}
                                   : static_cast<std::uint64_t>(scaled);
    std::vector<std::uint64_t> digests = {0, 1, ~std::uint64_t{0}};
    // Wide enough to cross the double rounding step at the boundary.
    for (std::uint64_t d = near > 4096 ? near - 4096 : 0;; ++d) {
      digests.push_back(d);
      if (d == ~std::uint64_t{0} || d == near + 4096) break;
    }
    for (const std::uint64_t d : digests) {
      fixed.value = d;
      ASSERT_EQ(sel.isMonitor(a, b), sel.hashPoint(a, b) <= sel.threshold())
          << "K=" << k << " N=" << n << " digest=" << d;
    }
  }
}

// Same selection properties must hold for every hash backend.
class SelectorHashParamTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SelectorHashParamTest, ExpectedSetSizeHoldsForAllHashes) {
  const auto fn = hash::makeHashFunction(GetParam());
  constexpr std::size_t kN = 800;
  constexpr unsigned kK = 12;
  HashMonitorSelector sel(*fn, kK, kN);

  std::vector<NodeId> ids;
  for (std::uint32_t i = 0; i < kN; ++i) ids.push_back(NodeId::fromIndex(i));
  double total = 0;
  for (std::size_t x = 0; x < 100; ++x) {
    std::size_t ps = 0;
    for (std::size_t y = 0; y < kN; ++y) {
      if (x != y && sel.isMonitor(ids[y], ids[x])) ++ps;
    }
    total += static_cast<double>(ps);
  }
  EXPECT_NEAR(total / 100.0, static_cast<double>(kK), 2.0) << GetParam();
}

// digestPair64 is the entry point the consistency check uses; it must agree
// with digest64 over the paper's 12-byte message on every pair.
TEST_P(SelectorHashParamTest, DigestPairMatchesTwelveByteDigest) {
  const auto fn = hash::makeHashFunction(GetParam());
  const auto check = [&](const NodeId& a, const NodeId& b) {
    std::array<std::uint8_t, 2 * NodeId::kWireSize> buf;
    const auto ab = a.toBytes();
    const auto bb = b.toBytes();
    std::copy(ab.begin(), ab.end(), buf.begin());
    std::copy(bb.begin(), bb.end(), buf.begin() + NodeId::kWireSize);
    ASSERT_EQ(fn->digestPair64(a.packed(), b.packed()), fn->digest64(buf))
        << GetParam() << " " << a.toString() << " " << b.toString();
  };

  const std::vector<NodeId> edges = {
      NodeId(),                        NodeId(0xFFFFFFFFu, 0),
      NodeId(0xFFFFFFFFu, 65535),      NodeId(0, 65535),
      NodeId(0x0A000001u, 0),          NodeId(0x0A000001u, 65535),
      NodeId(0x80000000u, 1),          NodeId::fromIndex(0)};
  for (const NodeId& a : edges) {
    for (const NodeId& b : edges) check(a, b);
  }

  Rng rng(20070625);
  const auto randomId = [&rng] {
    const std::uint64_t bits = rng();
    return NodeId(static_cast<std::uint32_t>(bits >> 32),
                  static_cast<std::uint16_t>(bits));
  };
  for (int i = 0; i < 100'000; ++i) check(randomId(), randomId());
}

// The memo caches only in front of hashes that cost more than a probe
// (md5, sha1); over splitmix64 it forwards. Verdicts agree either way.
TEST_P(SelectorHashParamTest, MemoCachesOnlyCostlyHashes) {
  const auto fn = hash::makeHashFunction(GetParam());
  HashMonitorSelector inner(*fn, 10, 500);
  MemoizedMonitorSelector memo(inner);
  EXPECT_EQ(inner.worthMemoizing(), fn->costlyDigest());
  EXPECT_FALSE(memo.worthMemoizing());
  for (int pass = 0; pass < 2; ++pass) {  // second pass: the cached path
    for (std::uint32_t i = 0; i < 40; ++i) {
      for (std::uint32_t j = 0; j < 40; ++j) {
        const NodeId a = NodeId::fromIndex(i), b = NodeId::fromIndex(j);
        ASSERT_EQ(memo.isMonitor(a, b), inner.isMonitor(a, b)) << GetParam();
      }
    }
  }
  if (std::string(GetParam()) == "splitmix64") {
    EXPECT_FALSE(inner.worthMemoizing());
    EXPECT_EQ(memo.cacheSize(), 0u);
  } else {
    EXPECT_TRUE(inner.worthMemoizing());
    EXPECT_GT(memo.cacheSize(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllHashes, SelectorHashParamTest,
                         ::testing::Values("md5", "sha1", "splitmix64"));

}  // namespace
}  // namespace avmon
