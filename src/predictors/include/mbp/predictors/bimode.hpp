/**
 * @file
 * The Bi-Mode predictor (Lee, Chen & Mudge 1997): a de-aliasing design
 * that splits the pattern table into a taken-biased and a not-taken-biased
 * bank, with a per-address choice table selecting the bank. Branches of
 * opposite bias that alias onto the same pattern entry land in different
 * banks, removing most destructive interference.
 */
#ifndef MBP_PREDICTORS_BIMODE_HPP
#define MBP_PREDICTORS_BIMODE_HPP

#include <vector>

#include "mbp/sim/predictor.hpp"
#include "mbp/utils/bits.hpp"
#include "mbp/utils/hash.hpp"
#include "mbp/utils/sat_counter.hpp"

namespace mbp::pred
{

/**
 * Bi-Mode.
 *
 * @tparam H Global history length.
 * @tparam T Log2 of each direction bank's size.
 * @tparam C Log2 of the choice table's size.
 */
template <int H = 15, int T = 15, int C = 14>
class BiMode : public Predictor
{
    static_assert(H >= 1 && H <= 63);

  public:
    BiMode()
        : taken_bank_(std::size_t(1) << T),
          not_taken_bank_(std::size_t(1) << T),
          choice_(std::size_t(1) << C)
    {
        // Bias the banks towards their direction so fresh entries behave.
        for (auto &c : taken_bank_)
            c.set(0); // weakly taken
        for (auto &c : not_taken_bank_)
            c.set(-1); // weakly not-taken
    }

    bool
    predict(std::uint64_t ip) override
    {
        Lookup l = lookup(ip);
        return l.prediction;
    }

    void
    train(const Branch &b) override
    {
        Lookup l = lookup(b.ip());
        const bool outcome = b.isTaken();
        // Only the selected bank trains — the core Bi-Mode rule that keeps
        // each bank biased — except the choice table also trains, unless
        // it pointed away from the outcome but the selected bank still
        // predicted correctly (the "partial update" exception).
        auto &bank = l.choice_taken ? taken_bank_ : not_taken_bank_;
        bank[l.direction_idx].sumOrSub(outcome);
        if (!(l.prediction == outcome && l.choice_taken != outcome))
            choice_[l.choice_idx].sumOrSub(outcome);
    }

    void
    track(const Branch &b) override
    {
        ghist_ = ((ghist_ << 1) | (b.isTaken() ? 1 : 0)) & util::maskBits(H);
    }

    std::optional<ComponentInfo>
    storage_components() const override
    {
        return ComponentInfo::composite(
            "bimode",
            {ComponentInfo::table("taken_bank", std::uint64_t(1) << T, 2),
             ComponentInfo::table("not_taken_bank", std::uint64_t(1) << T,
                                  2),
             ComponentInfo::table("choice", std::uint64_t(1) << C, 2),
             ComponentInfo::reg("global_history", H)});
    }

    json_t
    metadata_stats() const override
    {
        return json_t::object({
            {"name", "MBPlib Bi-Mode"},
            {"history_length", H},
            {"log_bank_size", T},
            {"log_choice_size", C},
        });
    }

  private:
    struct Lookup
    {
        std::size_t direction_idx;
        std::size_t choice_idx;
        bool choice_taken;
        bool prediction;
    };

    Lookup
    lookup(std::uint64_t ip) const
    {
        Lookup l;
        l.direction_idx =
            static_cast<std::size_t>(XorFold((ip >> 2) ^ ghist_, T));
        l.choice_idx = static_cast<std::size_t>(XorFold(ip >> 2, C));
        l.choice_taken = choice_[l.choice_idx] >= 0;
        const auto &bank = l.choice_taken ? taken_bank_ : not_taken_bank_;
        l.prediction = bank[l.direction_idx] >= 0;
        return l;
    }

    std::vector<i2> taken_bank_;
    std::vector<i2> not_taken_bank_;
    std::vector<i2> choice_;
    std::uint64_t ghist_ = 0;
};

} // namespace mbp::pred

#endif // MBP_PREDICTORS_BIMODE_HPP
