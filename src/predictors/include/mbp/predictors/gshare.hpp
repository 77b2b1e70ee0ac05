/**
 * @file
 * The GShare predictor (McFarling 1993), written exactly in the style of
 * the paper's Listing 2: a std::bitset global history, an i2 counter table
 * and the XorFold hash — the whole predictor in ~20 lines.
 */
#ifndef MBP_PREDICTORS_GSHARE_HPP
#define MBP_PREDICTORS_GSHARE_HPP

#include <array>
#include <bitset>
#include <cstddef>
#include <cstdint>

#include "mbp/sim/predictor.hpp"
#include "mbp/utils/hash.hpp"
#include "mbp/utils/sat_counter.hpp"

namespace mbp::pred
{

/**
 * GShare: a counter table indexed by the XOR of the branch address and the
 * global branch history.
 *
 * @tparam H Global history length in bits.
 * @tparam T Log2 of the counter table size.
 */
template <int H = 15, int T = 17>
struct Gshare : Predictor
{
    static_assert(H >= 1 && H <= 64, "history must fit one machine word");

    std::array<i2, std::size_t(1) << T> table{};
    std::bitset<H> ghist;

    std::uint64_t
    hash(std::uint64_t ip) const
    {
        return XorFold(ip ^ ghist.to_ullong(), T);
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

    void
    track(const Branch &b) override
    {
        ghist <<= 1;
        ghist[0] = b.isTaken();
    }

    /**
     * Fused per-conditional-branch step for the simulation kernels
     * (mbp::KernelFusedStep): exactly predict(), train(), track().
     * Predict and train both hash with the pre-track history, so
     * computing the counter slot once is identical; the history shift
     * then matches track().
     */
    bool
    fusedStep(std::uint64_t ip, bool taken)
    {
        i2 &counter = table[hash(ip)];
        const bool guess = counter >= 0;
        counter.sumOrSub(taken);
        ghist <<= 1;
        ghist[0] = taken;
        return guess;
    }

    /**
     * Per-site address fold for the fused kernels (mbp::KernelSiteFold).
     * XorFold distributes over XOR — every chunk of a^b is
     * chunk(a)^chunk(b) — so XorFold(ip ^ ghist, T) ==
     * XorFold(ip, T) ^ XorFold(ghist, T); and with H <= T the history
     * fits one fold chunk, so XorFold(ghist, T) is just ghist. The
     * address fold is therefore a pure per-site value, and the hot loop
     * XORs it with the live history (fusedStepFolded) — bit-identical to
     * hash(ip), with no per-branch folding.
     */
    std::uint64_t
    siteFold(std::uint64_t ip) const
        requires(H <= T)
    {
        return XorFold(ip, T);
    }

    /** fusedStep() with the address already folded by siteFold(). */
    bool
    fusedStepFolded(std::uint64_t folded, bool taken)
        requires(H <= T)
    {
        i2 &counter = table[folded ^ ghist.to_ullong()];
        const bool guess = counter >= 0;
        counter.sumOrSub(taken);
        ghist <<= 1;
        ghist[0] = taken;
        return guess;
    }

    std::uint64_t
    storageBits() const override
    {
        return (std::uint64_t(1) << T) * 2 + H;
    }

    std::optional<ComponentInfo>
    storage_components() const override
    {
        return ComponentInfo::composite(
            "gshare",
            {ComponentInfo::table("counters", std::uint64_t(1) << T, 2),
             ComponentInfo::reg("global_history", H)});
    }

    json_t
    metadata_stats() const override
    {
        return json_t::object({
            {"name", "MBPlib GShare"},
            {"history_length", H},
            {"log_table_size", T},
        });
    }
};

} // namespace mbp::pred

#endif // MBP_PREDICTORS_GSHARE_HPP
