#include "hash/hash_function.hpp"

#include <array>
#include <stdexcept>

#include "common/rng.hpp"
#include "hash/md5.hpp"
#include "hash/sha1.hpp"

namespace avmon::hash {
namespace {

std::uint64_t first64BigEndian(const std::uint8_t* d) noexcept {
  std::uint64_t x = 0;
  for (int i = 0; i < 8; ++i) x = (x << 8) | d[i];
  return x;
}

constexpr std::uint64_t kFoldSeed = 0x243F6A8885A308D3ULL;  // pi fractional bits
constexpr std::uint64_t kFoldPrime = 0x100000001B3ULL;

// Folds the six wire bytes of a 48-bit id, most significant first (the
// NodeId::toBytes order), into the accumulator. Spelled out: the fold is a
// serial xor-multiply chain, and the loop form stays rolled at -O2.
constexpr std::uint64_t foldId48(std::uint64_t acc, std::uint64_t id48) noexcept {
  acc = (acc ^ ((id48 >> 40) & 0xFF)) * kFoldPrime;
  acc = (acc ^ ((id48 >> 32) & 0xFF)) * kFoldPrime;
  acc = (acc ^ ((id48 >> 24) & 0xFF)) * kFoldPrime;
  acc = (acc ^ ((id48 >> 16) & 0xFF)) * kFoldPrime;
  acc = (acc ^ ((id48 >> 8) & 0xFF)) * kFoldPrime;
  return (acc ^ (id48 & 0xFF)) * kFoldPrime;
}

}  // namespace

std::uint64_t HashFunction::digestPair64(std::uint64_t observer48,
                                         std::uint64_t target48) const {
  std::array<std::uint8_t, 12> buf;
  for (int i = 0; i < 6; ++i) {
    buf[i] = static_cast<std::uint8_t>(observer48 >> (40 - 8 * i));
    buf[6 + i] = static_cast<std::uint8_t>(target48 >> (40 - 8 * i));
  }
  return digest64(buf);
}

std::uint64_t Md5HashFunction::digest64(
    ByteSpan data) const {
  const Md5::Digest d = Md5::digest(data);
  return first64BigEndian(d.data());
}

std::uint64_t Sha1HashFunction::digest64(
    ByteSpan data) const {
  const Sha1::Digest d = Sha1::digest(data);
  return first64BigEndian(d.data());
}

std::uint64_t SplitMix64HashFunction::digest64(
    ByteSpan data) const {
  // Fold bytes into the state with a multiply between words, then finish
  // with the splitmix64 finalizer. Equivalent structure to FNV-then-mix.
  std::uint64_t acc = kFoldSeed;
  for (std::uint8_t b : data) {
    acc = (acc ^ b) * kFoldPrime;
  }
  return splitmix64Mix(acc);
}

std::uint64_t SplitMix64HashFunction::digestPair64(
    std::uint64_t observer48, std::uint64_t target48) const {
  // digest64's fold over the same twelve bytes, taken from the two words.
  return splitmix64Mix(foldId48(foldId48(kFoldSeed, observer48), target48));
}

std::unique_ptr<HashFunction> makeHashFunction(const std::string& name) {
  if (name == "md5") return std::make_unique<Md5HashFunction>();
  if (name == "sha1") return std::make_unique<Sha1HashFunction>();
  if (name == "splitmix64") return std::make_unique<SplitMix64HashFunction>();
  throw std::invalid_argument("unknown hash function: " + name);
}

bool isKnownHashName(const std::string& name) {
  return name == "md5" || name == "sha1" || name == "splitmix64";
}

}  // namespace avmon::hash
