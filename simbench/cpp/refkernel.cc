#include "refkernel.hh"

#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <queue>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

namespace simbench
{

namespace
{

constexpr std::size_t kPageWords = 512; // 4 KiB pages
constexpr std::size_t kPoolPages = 1024;

/// Keeps the kernel's result observable so no part is optimized away.
volatile std::uint64_t sink;

} // namespace

double
refKernelSeconds()
{
    // Allocated and touched once, on the first call: no call pays page
    // faults inside the timed region, and the 4 MiB it adds to the
    // process's resident set is the same in every run. A pool freed
    // and re-allocated per call made peak_rss_mb vary by 5%.
    static std::vector<std::uint64_t> pool(kPoolPages * kPageWords, 1);
    std::mt19937_64 rng(12345);
    std::uint64_t acc = 0;

    const auto t0 = std::chrono::steady_clock::now();

    using Event = std::pair<std::uint64_t, std::uint32_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
    for (std::uint32_t i = 0; i < 16384; ++i)
        heap.push({rng() % 1000000, i});
    for (int i = 0; i < 20000; ++i) {
        const Event e = heap.top();
        heap.pop();
        acc += e.second;
        heap.push({e.first + rng() % 100000, e.second});
    }

    std::unordered_map<std::uint64_t, std::uint64_t> map;
    for (std::uint64_t i = 0; i < 60000; ++i) {
        const std::uint64_t k = rng() % 32768;
        auto it = map.find(k);
        if (it == map.end())
            map.emplace(k, i);
        else
            it->second += i;
    }
    acc += map.size();

    std::vector<std::uint64_t> page(kPageWords);
    for (int i = 0; i < 4000; ++i) {
        const std::size_t a = rng() % kPoolPages * kPageWords;
        const std::size_t b = rng() % kPoolPages * kPageWords;
        std::memcpy(page.data(), &pool[a], kPageWords * 8);
        acc += std::memcmp(page.data(), &pool[b], kPageWords * 8) != 0;
        for (std::size_t w = 0; w < kPageWords; w += 8)
            pool[b + w] ^= page[w] + static_cast<std::uint64_t>(i);
    }

    std::vector<std::function<std::uint64_t(std::uint64_t)>> calls;
    for (std::uint64_t i = 0; i < 64; ++i)
        calls.emplace_back([i](std::uint64_t x) { return x * 31 + i; });
    std::uint64_t x = acc;
    for (int i = 0; i < 300000; ++i)
        x = calls[(x >> 7) & 63](x);

    const auto t1 = std::chrono::steady_clock::now();
    sink = x;
    return std::chrono::duration<double>(t1 - t0).count();
}

} // namespace simbench
