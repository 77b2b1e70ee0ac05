/**
 * @file
 * Host and build identity of a bench artifact — the same fields
 * perfbench records (nproc, CPU model, compiler, build type, sanitizers).
 * scripts/check_bench_regression.py compares speed only between
 * artifacts whose fingerprints match.
 */
#ifndef MBP_BENCH_HOST_FINGERPRINT_HPP
#define MBP_BENCH_HOST_FINGERPRINT_HPP

#include <cstdint>
#include <cstring>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "mbp/json/json.hpp"

#ifndef MBP_BENCH_BUILD_TYPE
#define MBP_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef MBP_BENCH_SANITIZE
#define MBP_BENCH_SANITIZE "OFF"
#endif

namespace bench
{

/** @return The CPU brand string, or "unknown" where it cannot be read. */
inline std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004)
        return "unknown";
    for (unsigned leaf = 0; leaf < 3; ++leaf)
        __get_cpuid(0x80000002 + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                    &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model = brand;
    model.erase(0, model.find_first_not_of(' '));
    return model;
#else
    return "unknown";
#endif
}

/** Host and build identity; speeds are comparable only when equal. */
inline mbp::json_t
hostFingerprint()
{
    std::string sanitizers = MBP_BENCH_SANITIZE;
    if (sanitizers == "OFF")
        sanitizers.clear();
#if defined(__clang__)
    const std::string compiler = "clang " __clang_version__;
#else
    const std::string compiler = "gcc " __VERSION__;
#endif
    return mbp::json_t::object({
        {"nproc", std::uint64_t(std::thread::hardware_concurrency())},
        {"cpu_model", cpuModel()},
        {"compiler", compiler},
        {"build_type", MBP_BENCH_BUILD_TYPE},
        {"sanitizers", sanitizers},
    });
}

} // namespace bench

#endif // MBP_BENCH_HOST_FINGERPRINT_HPP
