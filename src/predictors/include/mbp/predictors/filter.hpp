/**
 * @file
 * A branch filter in front of an expensive predictor — the "filter" role
 * from paper §IV-B: "a filter may decide that it is not necessary to
 * track some branches."
 *
 * Following the branch-filtering literature (Chang et al.), only branches
 * that have *never deviated* — always taken or never taken since
 * allocation — are filtered: they are predicted directly and kept out of
 * the main predictor's tables. A single deviation disqualifies the branch
 * for good (its entry turns into a pass-through), so patterned branches
 * with a strong bias still reach the history predictor that can learn
 * them. Expressible only because MBPlib separates train from track: the
 * owner component decides which calls reach the subcomponent.
 */
#ifndef MBP_PREDICTORS_FILTER_HPP
#define MBP_PREDICTORS_FILTER_HPP

#include <memory>
#include <vector>

#include "mbp/sim/predictor.hpp"
#include "mbp/utils/hash.hpp"

namespace mbp::pred
{

/**
 * Never-deviated branch filter.
 *
 * @tparam T            Log2 of the filter table size.
 * @tparam MinRun       Consecutive same-direction outcomes required
 *                      before a branch is filtered.
 * @tparam SkipTracking Also keep filtered branches out of the main
 *                      predictor's scenario (history). Default off: most
 *                      history predictors want to see every outcome;
 *                      turning it on demonstrates the full §IV-B filter
 *                      semantics and saves the track work.
 */
template <int T = 14, int MinRun = 64, bool SkipTracking = false>
class BiasFilter : public Predictor
{
  public:
    explicit BiasFilter(std::unique_ptr<Predictor> main)
        : main_(std::move(main)), table_(std::size_t(1) << T)
    {}

    bool
    predict(std::uint64_t ip) override
    {
        const Entry &e = table_[index(ip)];
        if (isFiltered(e)) {
            ++stat_filtered_;
            return e.direction;
        }
        return main_->predict(ip);
    }

    void
    train(const Branch &b) override
    {
        Entry &e = table_[index(b.ip())];
        const bool was_filtered = isFiltered(e);
        if (e.run == 0 && !e.disqualified) {
            e.direction = b.isTaken();
            e.run = 1;
        } else if (!e.disqualified) {
            if (b.isTaken() == e.direction) {
                if (e.run < kMaxRun)
                    ++e.run;
            } else {
                // One deviation and the branch belongs to the main
                // predictor forever.
                e.disqualified = true;
            }
        }
        if (!was_filtered)
            main_->train(b);
    }

    void
    track(const Branch &b) override
    {
        if constexpr (SkipTracking) {
            if (b.isConditional() && isFiltered(table_[index(b.ip())]))
                return;
        }
        main_->track(b);
    }

    std::optional<ComponentInfo>
    storage_components() const override
    {
        // An unreported main predictor leaves the composite unreported.
        std::optional<ComponentInfo> main = main_->storage_components();
        if (!main.has_value())
            return std::nullopt;
        // run counter (8 b saturating in hardware) + direction + flag.
        return ComponentInfo::composite(
            "bias_filter",
            {ComponentInfo::table("filter_entries", std::uint64_t(1) << T,
                                  8 + 1 + 1),
             ComponentInfo::composite("main", {*std::move(main)})});
    }

    json_t
    metadata_stats() const override
    {
        return json_t::object({
            {"name", "MBPlib BiasFilter"},
            {"log_table_size", T},
            {"min_run", MinRun},
            {"skip_tracking", SkipTracking},
            {"main", main_->metadata_stats()},
        });
    }

    json_t
    execution_stats() const override
    {
        std::uint64_t filtered_sites = 0;
        for (const Entry &e : table_) {
            if (isFiltered(e))
                ++filtered_sites;
        }
        return json_t::object({
            {"filtered_predictions", stat_filtered_},
            {"filtered_sites", filtered_sites},
            {"main", main_->execution_stats()},
        });
    }

  private:
    static constexpr std::uint32_t kMaxRun = ~std::uint32_t(0);

    struct Entry
    {
        std::uint32_t run = 0;
        bool direction = false;
        bool disqualified = false;
    };

    static bool
    isFiltered(const Entry &e)
    {
        return !e.disqualified && e.run >= std::uint32_t(MinRun);
    }

    static std::size_t
    index(std::uint64_t ip)
    {
        return static_cast<std::size_t>(XorFold(ip >> 2, T));
    }

    std::unique_ptr<Predictor> main_;
    std::vector<Entry> table_;
    std::uint64_t stat_filtered_ = 0;
};

} // namespace mbp::pred

#endif // MBP_PREDICTORS_FILTER_HPP
