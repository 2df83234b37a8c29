#include "calibrate.h"

#include <chrono>
#include <map>
#include <queue>
#include <vector>

namespace perfbench {
namespace {

// About 14 MiB at its largest. The host's drift shows mostly in memory-bound work, and a
// kernel that fits the private caches followed it no better than the raw run time did.
std::uint64_t Kernel() {
  std::uint64_t x = 88172645463325252ULL;  // xorshift64 state
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::uint64_t sum = 0;
  std::map<std::uint64_t, std::uint64_t> map;
  std::priority_queue<std::uint64_t> heap;
  for (std::uint64_t i = 0; i < 150000; ++i) {
    const std::uint64_t key = next();
    map[key % 400000] += i;
    heap.push(key);
    if (i % 3 == 0) {
      sum += heap.top();
      heap.pop();
    }
    const auto it = map.find((key >> 8) % 400000);
    if (it != map.end()) {
      sum += it->second;
      if (i % 5 == 0) {
        map.erase(it);
      }
    }
  }
  // Dependent loads over 8 MiB: one cycle through a multiplicative permutation.
  std::vector<std::uint32_t> link(std::size_t{1} << 21);
  const std::uint64_t mask = link.size() - 1;
  for (std::uint64_t i = 0; i < link.size(); ++i) {
    link[i] = static_cast<std::uint32_t>((i * 2654435761ULL + 12345) & mask);
  }
  std::uint32_t at = 0;
  for (int i = 0; i < 1000000; ++i) {
    at = link[at];
  }
  return sum + at + map.size() + heap.size();
}

}  // namespace

Calibration Calibrate() {
  const auto start = std::chrono::steady_clock::now();
  Calibration calibration;
  calibration.checksum = Kernel();
  calibration.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return calibration;
}

}  // namespace perfbench
