// Pluggable hash functions for the consistency condition.
//
// The monitor selection scheme (paper Section 3.1) needs a deterministic
// function H : bytes -> [0,1) that every node computes identically. The
// paper uses the first 64 bits of MD5; SHA-1 is named as an alternative.
// We expose both plus a fast non-cryptographic mixer (splitmix64) as an
// ablation (bench_abl_hash): verifiability only requires agreement on H,
// so a faster mixer trades collusion-grinding resistance for CPU.
#pragma once

#include <cstdint>
#include <memory>
#include "common/byte_span.hpp"
#include <string>

namespace avmon::hash {

/// Uniform 64-bit hash of a byte string; the basis of the consistency
/// condition. Implementations must be deterministic and stateless.
class HashFunction {
 public:
  virtual ~HashFunction() = default;

  /// First 64 bits of the digest, interpreted big-endian.
  virtual std::uint64_t digest64(ByteSpan data) const = 0;

  /// digest64 of the 12-byte pair message observer ‖ target, each id given
  /// as its 48-bit packing (NodeId::packed()). The default builds the
  /// big-endian buffer; an override must return the same value for every
  /// pair — the monitor relation hashes pairs through this entry point.
  virtual std::uint64_t digestPair64(std::uint64_t observer48,
                                     std::uint64_t target48) const;

  /// True when one digest costs more than a probe of a verdict cache, so
  /// callers that ask about the same pair repeatedly should memoize.
  virtual bool costlyDigest() const noexcept = 0;

  /// Human-readable name for reports ("md5", "sha1", "splitmix64").
  virtual std::string name() const = 0;

  /// digest64 normalized to the real interval [0, 1).
  double normalized(ByteSpan data) const {
    // 2^-64 scaling; the result is < 1 since digest64 < 2^64.
    return static_cast<double>(digest64(data)) * 0x1.0p-64;
  }
};

/// MD5-backed hash (the paper's default).
class Md5HashFunction final : public HashFunction {
 public:
  std::uint64_t digest64(ByteSpan data) const override;
  std::string name() const override { return "md5"; }
  bool costlyDigest() const noexcept override { return true; }
};

/// SHA-1-backed hash (the paper's named alternative).
class Sha1HashFunction final : public HashFunction {
 public:
  std::uint64_t digest64(ByteSpan data) const override;
  std::string name() const override { return "sha1"; }
  bool costlyDigest() const noexcept override { return true; }
};

/// splitmix64 over a 64-bit fold of the input: ~100x faster than MD5, good
/// avalanche, but not preimage-resistant. Ablation only. Its pair digest
/// folds the two packed ids directly, cheaper than any cache probe.
class SplitMix64HashFunction final : public HashFunction {
 public:
  std::uint64_t digest64(ByteSpan data) const override;
  std::uint64_t digestPair64(std::uint64_t observer48,
                             std::uint64_t target48) const override;
  std::string name() const override { return "splitmix64"; }
  bool costlyDigest() const noexcept override { return false; }
};

/// Factory by name; throws std::invalid_argument on unknown names.
std::unique_ptr<HashFunction> makeHashFunction(const std::string& name);

/// True if makeHashFunction(name) would succeed — validation without the
/// construction cost (or the exception).
bool isKnownHashName(const std::string& name);

}  // namespace avmon::hash
