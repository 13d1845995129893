#include "calibration.hh"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace perfbench {

namespace {

constexpr std::size_t kSlots = (4u << 20) / sizeof(std::uint64_t);
constexpr unsigned kSteps = 600'000;

// Independent random loads over a 4 MiB table: of the kernels tried
// (dependent and independent loads over 1-64 MiB, a register-only
// loop, a two-thread queue ping-pong), this one's time tracked the
// simulator's window times most closely on the reference host, whose
// slow phases come from the shared memory system, not the core clock.
// Run on as many threads as the measured work, it also tracked the
// pipelined and sweep workloads better than on one thread.
const std::vector<std::uint64_t> &
table()
{
    static const std::vector<std::uint64_t> t = [] {
        std::vector<std::uint64_t> v(kSlots);
        for (std::size_t i = 0; i < kSlots; ++i)
            v[i] = i * 0x9e3779b97f4a7c15ull;
        return v;
    }();
    return t;
}

// Keeps the loads observable.
std::atomic<std::uint64_t> g_sink{0};

double
kernelNs()
{
    const std::vector<std::uint64_t> &t = table();
    std::uint64_t x = 0x9e3779b97f4a7c15ull, acc = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (unsigned i = 0; i < kSteps; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += t[x & (kSlots - 1)];
    }
    const auto t1 = std::chrono::steady_clock::now();
    g_sink.fetch_add(acc, std::memory_order_relaxed);
    return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

} // namespace

double
calibrateNs(unsigned threads)
{
    table();  // build it once, outside any timed kernel
    if (threads <= 1)
        return kernelNs();
    std::vector<double> ns(threads);
    std::vector<std::thread> pool;
    for (unsigned i = 0; i < threads; ++i)
        pool.emplace_back([&ns, i] { ns[i] = kernelNs(); });
    for (std::thread &t : pool)
        t.join();
    double sum = 0;
    for (double v : ns)
        sum += v;
    return sum / threads;
}

} // namespace perfbench
