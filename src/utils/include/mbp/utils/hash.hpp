/**
 * @file
 * Hash helpers used to index predictor tables (paper §V).
 */
#ifndef MBP_UTILS_HASH_HPP
#define MBP_UTILS_HASH_HPP

#include <cstdint>

#include "mbp/utils/bits.hpp"

namespace mbp
{

/**
 * Folds a 64-bit value into @p width bits by XOR-ing consecutive
 * @p width -bit chunks, the classic index-hash from the championship
 * predictors (Listing 2: `mbp::XorFold(ip ^ ghist, T)`).
 *
 * @param value The value to fold.
 * @param width Result width in bits (1 to 63).
 * @return The folded value, in [0, 2^width).
 */
constexpr std::uint64_t
XorFold(std::uint64_t value, int width)
{
    // Folds by doubling: after the step with shift s, bits [k*width,
    // (k+1)*width) hold the XOR of s/width consecutive chunks starting at
    // chunk k, so once s reaches 64 the low chunk holds them all (chunks
    // past bit 63 are zeros). ceil(log2(64 / width)) shift-xor steps
    // instead of one mask-shift-xor per chunk; the loop unrolls when
    // width is a compile-time constant, and its trip count depends on
    // width alone, so a runtime width's loop branch predicts.
    for (int shift = width; shift < 64; shift <<= 1)
        value ^= value >> shift;
    return value & util::maskBits(width);
}

/**
 * A strong 64-bit mixer (splitmix64 finalizer); used where de-aliasing
 * matters more than hardware fidelity, e.g. skewed bank functions.
 */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

/**
 * The skewing functions from the 2bc-gskew/e-gskew family of predictors.
 *
 * Each bank b applies a different invertible transform before folding, so a
 * pair of branches aliasing in one bank rarely aliases in the others.
 */
constexpr std::uint64_t
skewHash(std::uint64_t value, int bank, int width)
{
    // H(x) and its variants from Seznec-Michaud, approximated with a rotate
    // plus multiply per bank over the folded input.
    std::uint64_t v = value + static_cast<std::uint64_t>(bank) *
                                  0x9e3779b97f4a7c15ull;
    v = (v << (bank + 1)) | (v >> (64 - (bank + 1)));
    return XorFold(v * 0xff51afd7ed558ccdull, width);
}

} // namespace mbp

#endif // MBP_UTILS_HASH_HPP
