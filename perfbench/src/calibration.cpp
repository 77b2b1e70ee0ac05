/**
 * @file
 * Host-speed calibration: a fixed table walk timed next to every pass.
 */
#include "calibration.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <new>
#include <thread>

#include "stats.hpp"

namespace perfbench
{

namespace
{

constexpr std::size_t kStreamLength = std::size_t(1) << 20;
constexpr std::size_t kCounters = std::size_t(1) << 20;
constexpr std::size_t kSites = std::size_t(1) << 16;
/** Walks of the stream per round: about 70 ms on the tuning host. */
constexpr int kWalksPerRound = 6;

/** One lane's arrays, each starting on a page. */
constexpr std::size_t kLaneBytes = kStreamLength * sizeof(std::uint32_t) +
                                   kStreamLength + kCounters +
                                   kSites * sizeof(std::uint32_t);

} // namespace

void
Calibration::Lane::fill()
{
    // The same stream in every lane and every run.
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::size_t i = 0; i < kStreamLength; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        sites[i] = std::uint32_t(x >> 40) & (kSites - 1);
        // Each site leans taken by its own amount.
        outcomes[i] = ((x >> 20) & 7) < ((sites[i] & 7) + 1);
    }
}

void
Calibration::Lane::walk()
{
    std::uint64_t history = 0;
    for (int rep = 0; rep < kWalksPerRound; ++rep) {
        for (std::size_t i = 0; i < kStreamLength; ++i) {
            const std::uint32_t site = sites[i];
            const std::size_t index =
                (site * 2654435761u ^ history) & (kCounters - 1);
            const bool taken = outcomes[i] != 0;
            if ((counters[index] >= 0) != taken) {
                ++misses;
                ++site_misses[site];
            }
            counters[index] = std::int8_t(
                std::clamp(counters[index] + (taken ? 1 : -1), -4, 3));
            history = ((history << 1) | std::uint64_t(taken)) & 0xfffff;
        }
    }
}

Calibration::Calibration(unsigned lanes)
    : bytes_(kLaneBytes * std::max(lanes, 1u)), lanes_(std::max(lanes, 1u))
{
    memory_ = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (memory_ == MAP_FAILED)
        throw std::bad_alloc();
    auto *next = static_cast<std::uint8_t *>(memory_);
    for (Lane &lane : lanes_) {
        lane.sites = reinterpret_cast<std::uint32_t *>(next);
        next += kStreamLength * sizeof(std::uint32_t);
        lane.outcomes = next;
        next += kStreamLength;
        lane.counters = reinterpret_cast<std::int8_t *>(next);
        next += kCounters;
        lane.site_misses = reinterpret_cast<std::uint32_t *>(next);
        next += kSites * sizeof(std::uint32_t);
        lane.fill();
    }
}

Calibration::~Calibration()
{
    ::munmap(memory_, bytes_);
}

Calibration::Round
Calibration::run()
{
    const double cpu_start = processCpuSeconds();
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t i = 1; i < lanes_.size(); ++i)
        threads.emplace_back([this, i] { lanes_[i].walk(); });
    lanes_[0].walk();
    for (std::thread &t : threads)
        t.join();
    Round round;
    round.wall_s = secondsSince(start);
    round.cpu_s =
        (processCpuSeconds() - cpu_start) / double(lanes_.size());
    return round;
}

double
Calibration::wallScale(const Round &before, const Round &after)
{
    return (before.wall_s + after.wall_s) / 2.0 / kNominalSeconds;
}

double
Calibration::cpuScale(const Round &before, const Round &after)
{
    return (before.cpu_s + after.cpu_s) / 2.0 / kNominalSeconds;
}

} // namespace perfbench
