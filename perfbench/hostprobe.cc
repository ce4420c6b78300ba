#include "hostprobe.hh"

#include <algorithm>
#include <atomic>
#include <functional>
#include <thread>

#include "common/logging.hh"

namespace perfbench {

namespace {

/** Chunks of one probe, claimed off a shared counter like sweep points. */
constexpr int kChunks = 64;
constexpr std::size_t kHeapEvents = 2 * 1024;
constexpr int kHeapSteps = 3 * 1000;
constexpr std::size_t kTableSlots = 8 * 1024; // a power of two
constexpr int kTableInserts = 2 * 1024;
constexpr std::uint64_t kHorizon = 1 << 20;

std::atomic<std::uint64_t> probeSink{0};

std::uint64_t
xorshift(std::uint64_t &state)
{
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
}

/** One chunk's fixed work; the result only keeps it from being elided. */
std::uint64_t
churn(std::vector<std::uint64_t> &heap, std::vector<std::uint64_t> &table,
      std::uint64_t seed)
{
    std::uint64_t rng = seed * 0x9E3779B97F4A7C15ull + 1;
    heap.clear();
    for (std::size_t i = 0; i < kHeapEvents; ++i) {
        heap.push_back(xorshift(rng) % kHorizon);
        std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
    std::uint64_t acc = 0;
    for (int i = 0; i < kHeapSteps; ++i) {
        std::pop_heap(heap.begin(), heap.end(), std::greater<>());
        const std::uint64_t now = heap.back();
        acc += now;
        heap.back() = now + xorshift(rng) % kHorizon;
        std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }

    std::fill(table.begin(), table.end(), 0);
    const std::size_t mask = table.size() - 1;
    for (int i = 0; i < kTableInserts; ++i) {
        const std::uint64_t key = xorshift(rng) | 1;
        std::size_t slot = (key * 0xFF51AFD7ED558CCDull) >> 40 & mask;
        while (table[slot] != 0 && table[slot] != key)
            slot = (slot + 1) & mask;
        table[slot] = key;
        acc += slot;
    }
    return acc;
}

} // namespace

HostProbe::HostProbe(int threads) : arenas_(static_cast<std::size_t>(threads))
{
    LERGAN_ASSERT(threads > 0, "a probe needs a thread");
    for (Arena &arena : arenas_) {
        arena.heap.reserve(kHeapEvents);
        arena.table.assign(kTableSlots, 0);
    }
}

void
HostProbe::run()
{
    std::atomic<int> next{0};
    const auto claim = [this, &next](std::size_t lane) {
        Arena &arena = arenas_[lane];
        for (int chunk = next++; chunk < kChunks; chunk = next++)
            probeSink += churn(arena.heap, arena.table,
                               static_cast<std::uint64_t>(chunk) + 1);
    };
    std::vector<std::thread> threads;
    for (std::size_t lane = 1; lane < arenas_.size(); ++lane)
        threads.emplace_back(claim, lane);
    claim(0);
    for (std::thread &thread : threads)
        thread.join();
}

} // namespace perfbench
