/**
 * @file
 * Branch-history bookkeeping utilities (paper §V): a dynamic-length global
 * history register, the incrementally folded history used by geometric
 * predictors (TAGE/BATAGE), and a path-history register.
 */
#ifndef MBP_UTILS_HISTORY_HPP
#define MBP_UTILS_HISTORY_HPP

#include <cassert>
#include <cstdint>
#include <vector>

#include "mbp/utils/bits.hpp"
#include "mbp/utils/hash.hpp"

namespace mbp
{

/**
 * A shift register of branch outcomes with a runtime-chosen capacity.
 *
 * Bit 0 is the most recent outcome. Backed by 64-bit words so predictors
 * with histories of hundreds of bits (TAGE) stay cheap: push is O(words).
 */
class GlobalHistory
{
  public:
    /** @param capacity Maximum history length in bits (>= 1). */
    explicit GlobalHistory(int capacity)
        : capacity_(capacity),
          words_((static_cast<std::size_t>(capacity) + 63) / 64, 0)
    {
        assert(capacity >= 1);
    }

    /** Shifts in @p taken as the newest bit. */
    void
    push(bool taken)
    {
        std::uint64_t carry = taken ? 1 : 0;
        for (auto &w : words_) {
            std::uint64_t out = w >> 63;
            w = (w << 1) | carry;
            carry = out;
        }
        // Trim bits beyond capacity in the last word.
        int last_bits = capacity_ % 64;
        if (last_bits != 0)
            words_.back() &= util::maskBits(last_bits);
    }

    /** @return Outcome of the @p i -th most recent branch (0 = newest). */
    bool
    operator[](int i) const
    {
        assert(i >= 0 && i < capacity_);
        return (words_[static_cast<std::size_t>(i) / 64] >> (i % 64)) & 1;
    }

    /** @return The newest @p n bits (n <= 64) as an integer. */
    std::uint64_t
    low(int n) const
    {
        assert(n >= 0 && n <= 64);
        return n == 0 ? 0 : words_[0] & util::maskBits(n);
    }

    /**
     * XOR-folds the newest @p length bits into @p width bits: bit of age a
     * lands at position a % width. For length <= 64 this equals
     * XorFold(low(length), width), and it always equals the value an
     * up-to-date FoldedHistory(length, width) holds. O(length) — prefer
     * FoldedHistory for per-prediction folding of long histories.
     */
    std::uint64_t
    fold(int length, int width) const
    {
        assert(length <= capacity_ && width >= 1 && width < 64);
        std::uint64_t folded = 0;
        for (int a = 0; a < length; ++a) {
            if ((*this)[a])
                folded ^= std::uint64_t(1) << (a % width);
        }
        return folded;
    }

    /** @return The configured capacity in bits. */
    int capacity() const { return capacity_; }

    /**
     * @return The backing words (bit i of the history is
     * `words()[i / 64] >> (i % 64) & 1`). Lets tight loops that read many
     * bit ages per branch (TAGE's per-table evicted bits) hoist the base
     * pointer instead of paying operator[]'s division per access.
     */
    const std::uint64_t *words() const { return words_.data(); }

    /** Clears all history. */
    void
    reset()
    {
        for (auto &w : words_)
            w = 0;
    }

  private:
    int capacity_;
    std::vector<std::uint64_t> words_;
};

/**
 * Incrementally maintained XOR-fold of the newest @p length bits of a
 * GlobalHistory into @p width bits — the circular shift register from the
 * TAGE family. update() is O(1) regardless of history length.
 *
 * The folding scheme rotates the fold left by one and XORs the inserted bit
 * at position 0 and the evicted bit at position (length % width).
 */
class FoldedHistory
{
  public:
    FoldedHistory() = default;

    /**
     * @param length History length folded (>= 1).
     * @param width  Fold width in bits (1 to 63).
     */
    FoldedHistory(int length, int width)
        : length_(length), width_(width), out_pos_(length % width)
    {
        assert(length >= 1 && width >= 1 && width < 64);
    }

    /**
     * Advances the fold after a history push.
     *
     * @param inserted The bit just pushed (newest outcome).
     * @param evicted  The bit that fell off the @p length -bit window, i.e.
     *                 history[length - 1] *before* the push.
     */
    void
    update(bool inserted, bool evicted)
    {
        folded_ = ((folded_ << 1) | (folded_ >> (width_ - 1))) &
                  util::maskBits(width_);
        folded_ ^= inserted ? 1 : 0;
        folded_ ^= (evicted ? std::uint64_t(1) : 0) << out_pos_;
        folded_ &= util::maskBits(width_);
    }

    /** @return The current folded value. */
    std::uint64_t value() const { return folded_; }

    /** @return The folded history length. */
    int length() const { return length_; }
    /** @return The fold width. */
    int width() const { return width_; }

    /** Clears the fold. */
    void reset() { folded_ = 0; }

  private:
    int length_ = 1;
    int width_ = 1;
    int out_pos_ = 0;
    std::uint64_t folded_ = 0;
};

/**
 * Path history: a shift register of low IP bits, as used by path-based
 * indices (hashed perceptron, TAGE variants).
 */
class PathHistory
{
  public:
    /**
     * @param bits_per_branch Low bits of each IP recorded (1 to 8).
     * @param depth           Number of branches remembered.
     */
    PathHistory(int bits_per_branch, int depth)
        : bits_(bits_per_branch), depth_(depth)
    {
        assert(bits_per_branch >= 1 && bits_per_branch <= 8);
        assert(bits_per_branch * depth <= 64);
    }

    /** Records the IP of a just-executed branch. */
    void
    push(std::uint64_t ip)
    {
        value_ = ((value_ << bits_) | ((ip >> 2) & util::maskBits(bits_))) &
                 util::maskBits(bits_ * depth_);
    }

    /** @return The packed path register. */
    std::uint64_t value() const { return value_; }

    /** Clears the path. */
    void reset() { value_ = 0; }

  private:
    int bits_;
    int depth_;
    std::uint64_t value_ = 0;
};

} // namespace mbp

#endif // MBP_UTILS_HISTORY_HPP
