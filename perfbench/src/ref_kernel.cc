#include "ref_kernel.h"

#include <algorithm>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

namespace perfbench {
namespace {

constexpr std::uint64_t kSeed = 0x5EED0F0E7B3A11CEull;
constexpr int kKeys = 1024;
constexpr int kLookups = 4 * kKeys;
constexpr int kAllocations = 512;
constexpr int kSortLength = 8 * kKeys;

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t mix(std::uint64_t hash, std::uint64_t value) {
  return (hash ^ value) * 0x100000001B3ull;
}

}  // namespace

__attribute__((noinline)) std::uint64_t ref_kernel() {
  std::uint64_t state = kSeed;
  std::uint64_t hash = 0xCBF29CE484222325ull;

  std::map<std::uint32_t, std::uint32_t> ordered;
  std::unordered_map<std::uint32_t, std::uint32_t> hashed;
  std::vector<std::uint32_t> keys;
  keys.reserve(kKeys);
  for (int i = 0; i < kKeys; ++i) {
    const auto key = static_cast<std::uint32_t>(splitmix64(state) >> 40);
    keys.push_back(key);
    ordered[key] += static_cast<std::uint32_t>(i);
    hashed[key] ^= static_cast<std::uint32_t>(i) * 2654435761u;
  }

  for (int i = 0; i < kLookups; ++i) {
    const std::uint64_t r = splitmix64(state);
    // Half the probes hit an inserted key, half are (almost surely) misses.
    const std::uint32_t key = (r & 1) != 0
                                  ? keys[(r >> 1) % kKeys]
                                  : static_cast<std::uint32_t>(r >> 40);
    const auto it = hashed.find(key);
    hash = mix(hash, it == hashed.end() ? 0 : it->second);
  }
  for (const auto& [key, value] : ordered) hash = mix(hash, key + value);

  std::vector<std::unique_ptr<std::uint64_t[]>> blocks;
  blocks.reserve(kAllocations);
  for (int i = 0; i < kAllocations; ++i) {
    const std::size_t words = 1 + splitmix64(state) % 12;
    auto block = std::make_unique<std::uint64_t[]>(words);
    block[words - 1] = words;
    blocks.push_back(std::move(block));
    // Free a pseudo-random earlier block now and then, so the allocator
    // sees interleaved alloc/free like the simulator's event churn.
    if (i % 3 == 2) {
      auto& victim = blocks[splitmix64(state) % blocks.size()];
      if (victim) hash = mix(hash, victim[0]);
      victim.reset();
    }
  }
  for (const auto& block : blocks) hash = mix(hash, block ? 1 : 0);

  std::vector<std::uint32_t> values(kSortLength);
  for (auto& value : values) value = static_cast<std::uint32_t>(splitmix64(state));
  std::sort(values.begin(), values.end());
  for (int i = 0; i < kSortLength; i += 64) hash = mix(hash, values[i]);
  return hash;
}

}  // namespace perfbench
