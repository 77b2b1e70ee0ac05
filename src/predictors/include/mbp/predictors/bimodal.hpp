/**
 * @file
 * The bimodal predictor (Lee & Smith 1983): a table of saturating counters
 * indexed by the branch address. The simplest dynamic predictor, and the
 * base component of many meta-predictors (paper §III).
 */
#ifndef MBP_PREDICTORS_BIMODAL_HPP
#define MBP_PREDICTORS_BIMODAL_HPP

#include <array>
#include <cstddef>
#include <cstdint>

#include "mbp/sim/predictor.hpp"
#include "mbp/utils/hash.hpp"
#include "mbp/utils/sat_counter.hpp"

namespace mbp::pred
{

/**
 * Bimodal predictor.
 *
 * @tparam T Log2 of the table size.
 * @tparam B Counter width in bits.
 */
template <int T = 16, int B = 2>
struct Bimodal : Predictor
{
    std::array<SatCounter<B>, std::size_t(1) << T> table{};

    static std::uint64_t
    hash(std::uint64_t ip)
    {
        // Drop the low bits that rarely vary between branch instructions.
        return XorFold(ip >> 2, T);
    }

    bool
    predict(std::uint64_t ip) override
    {
        return table[hash(ip)] >= 0;
    }

    void
    train(const Branch &b) override
    {
        table[hash(b.ip())].sumOrSub(b.isTaken());
    }

    void track(const Branch &) override {}

    /**
     * Per-site memoized index for the fused kernels
     * (mbp::KernelSiteFold): the bimodal slot is a pure function of the
     * address, so the kernel hashes each static site once and the hot
     * loop indexes the table directly.
     */
    std::uint64_t
    siteFold(std::uint64_t ip) const
    {
        return hash(ip);
    }

    /**
     * Exactly predict(), train(), track() for a conditional branch
     * whose slot siteFold() computed, with the counter read once (track
     * is a no-op here).
     */
    bool
    fusedStepFolded(std::uint64_t slot, bool taken)
    {
        SatCounter<B> &counter = table[slot];
        const bool guess = counter >= 0;
        counter.sumOrSub(taken);
        return guess;
    }

    std::optional<ComponentInfo>
    storage_components() const override
    {
        return ComponentInfo::composite(
            "bimodal",
            {ComponentInfo::table("counters", std::uint64_t(1) << T, B)});
    }

    json_t
    metadata_stats() const override
    {
        return json_t::object({
            {"name", "MBPlib Bimodal"},
            {"log_table_size", T},
            {"counter_bits", B},
        });
    }
};

} // namespace mbp::pred

#endif // MBP_PREDICTORS_BIMODAL_HPP
