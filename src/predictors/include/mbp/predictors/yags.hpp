/**
 * @file
 * The YAGS predictor (Eden & Mudge 1998, "Yet Another Global Scheme"):
 * a bimodal choice table gives the default per-branch direction, and two
 * small *tagged* exception caches store only the history-dependent cases
 * where the outcome disagrees with the bias. Storing exceptions instead
 * of everything makes the history tables far smaller for the same
 * accuracy.
 */
#ifndef MBP_PREDICTORS_YAGS_HPP
#define MBP_PREDICTORS_YAGS_HPP

#include <vector>

#include "mbp/sim/predictor.hpp"
#include "mbp/utils/bits.hpp"
#include "mbp/utils/hash.hpp"
#include "mbp/utils/sat_counter.hpp"

namespace mbp::pred
{

/**
 * YAGS.
 *
 * @tparam H       Global history length.
 * @tparam T       Log2 of each exception cache's size.
 * @tparam C       Log2 of the choice (bimodal) table's size.
 * @tparam TagBits Partial tag width in the exception caches.
 */
template <int H = 13, int T = 13, int C = 14, int TagBits = 8>
class Yags : public Predictor
{
    static_assert(H >= 1 && H <= 63);

  public:
    Yags()
        : taken_cache_(std::size_t(1) << T),
          not_taken_cache_(std::size_t(1) << T),
          choice_(std::size_t(1) << C)
    {}

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
        // The exception cache opposite to the bias trains on a hit, and
        // allocates when the bias mispredicted (a new exception).
        auto &cache = l.choice_taken ? not_taken_cache_ : taken_cache_;
        if (l.cache_hit) {
            cache[l.cache_idx].ctr.sumOrSub(outcome);
        } else if (outcome != l.choice_taken) {
            cache[l.cache_idx].tag = l.tag;
            cache[l.cache_idx].ctr.set(outcome ? 0 : -1);
        }
        // The bimodal choice table always trains (it tracks the bias).
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
            "yags",
            {ComponentInfo::table("taken_cache", std::uint64_t(1) << T,
                                  2 + TagBits),
             ComponentInfo::table("not_taken_cache",
                                  std::uint64_t(1) << T, 2 + TagBits),
             ComponentInfo::table("choice", std::uint64_t(1) << C, 2),
             ComponentInfo::reg("global_history", H)});
    }

    json_t
    metadata_stats() const override
    {
        return json_t::object({
            {"name", "MBPlib YAGS"},
            {"history_length", H},
            {"log_cache_size", T},
            {"log_choice_size", C},
            {"tag_bits", TagBits},
        });
    }

  private:
    struct Entry
    {
        std::uint16_t tag = 0;
        i2 ctr;
    };

    struct Lookup
    {
        std::size_t cache_idx;
        std::size_t choice_idx;
        std::uint16_t tag;
        bool choice_taken;
        bool cache_hit;
        bool prediction;
    };

    Lookup
    lookup(std::uint64_t ip) const
    {
        Lookup l;
        l.cache_idx =
            static_cast<std::size_t>(XorFold((ip >> 2) ^ ghist_, T));
        l.choice_idx = static_cast<std::size_t>(XorFold(ip >> 2, C));
        l.tag = static_cast<std::uint16_t>(
            XorFold(mix64(ip >> 2), TagBits));
        l.choice_taken = choice_[l.choice_idx] >= 0;
        const auto &cache =
            l.choice_taken ? not_taken_cache_ : taken_cache_;
        l.cache_hit = cache[l.cache_idx].tag == l.tag;
        l.prediction = l.cache_hit ? cache[l.cache_idx].ctr >= 0
                                   : l.choice_taken;
        return l;
    }

    std::vector<Entry> taken_cache_;
    std::vector<Entry> not_taken_cache_;
    std::vector<i2> choice_;
    std::uint64_t ghist_ = 0;
};

} // namespace mbp::pred

#endif // MBP_PREDICTORS_YAGS_HPP
