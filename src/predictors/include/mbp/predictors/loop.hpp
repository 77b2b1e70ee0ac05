/**
 * @file
 * A loop predictor: learns the trip count of regular loops and predicts
 * the exit iteration exactly — something no counter/history predictor can
 * do once the trip count exceeds the history length.
 *
 * Used standalone it only helps loop tails; its intended role is as a
 * *component* (paper §VI-C uses "adding a loop predictor to our design"
 * as the canonical comparison-simulator scenario). See
 * mbp::pred::LoopOverride for the composed form.
 */
#ifndef MBP_PREDICTORS_LOOP_HPP
#define MBP_PREDICTORS_LOOP_HPP

#include <memory>
#include <vector>

#include "mbp/sim/predictor.hpp"
#include "mbp/utils/bits.hpp"
#include "mbp/utils/hash.hpp"
#include "mbp/utils/sat_counter.hpp"

namespace mbp::pred
{

/**
 * Loop termination predictor.
 *
 * Each entry tracks one branch: the trip count observed at the last two
 * exits (a loop is "locked" when they agree), and the iteration count of
 * the current execution. While locked, the branch is predicted taken
 * until the known exit iteration.
 *
 * @tparam T       Log2 of the entry count.
 * @tparam TagBits Partial tag width.
 */
template <int T = 8, int TagBits = 10>
class LoopPredictor : public Predictor
{
  public:
    LoopPredictor() : entries_(std::size_t(1) << T) {}

    /**
     * @return Whether the entry for @p ip is locked onto a trip count and
     *         confident; only then is predict() meaningful.
     */
    bool
    isConfident(std::uint64_t ip) const
    {
        const Entry &e = entries_[index(ip)];
        return e.tag == tagOf(ip) && e.confidence >= 2;
    }

    bool
    predict(std::uint64_t ip) override
    {
        const Entry &e = entries_[index(ip)];
        if (e.tag != tagOf(ip) || e.confidence < 2)
            return true; // no opinion: loop tails default to taken
        return e.current_iter + 1 < e.trip_count;
    }

    void
    train(const Branch &b) override
    {
        Entry &e = entries_[index(b.ip())];
        std::uint16_t tag = tagOf(b.ip());
        if (e.tag != tag) {
            // Allocate when the resident entry has shown no regularity.
            if (e.confidence == 0) {
                e = Entry{};
                e.tag = tag;
            } else {
                --e.confidence;
                return;
            }
        }
        if (b.isTaken()) {
            if (e.current_iter < kMaxIter)
                ++e.current_iter;
            else
                e.confidence = 0; // irregular / very long: give up
            return;
        }
        // Exit: compare against the learned trip count.
        std::uint32_t trips = e.current_iter + 1;
        if (trips == e.trip_count) {
            if (e.confidence < 3)
                ++e.confidence;
        } else {
            e.trip_count = trips;
            e.confidence = e.confidence > 0 ? 1 : 0;
            if (e.trip_count > 1 && e.confidence == 0)
                e.confidence = 1;
        }
        e.current_iter = 0;
    }

    void track(const Branch &) override {}

    std::optional<ComponentInfo>
    storage_components() const override
    {
        // tag + trip count + current iteration (14 b each) + confidence.
        return ComponentInfo::composite(
            "loop", {ComponentInfo::table("entries",
                                          std::uint64_t(1) << T,
                                          TagBits + 14 + 14 + 2)});
    }

    json_t
    metadata_stats() const override
    {
        return json_t::object({
            {"name", "MBPlib Loop"},
            {"log_table_size", T},
            {"tag_bits", TagBits},
        });
    }

  private:
    static constexpr std::uint32_t kMaxIter = (1u << 14) - 1;

    struct Entry
    {
        std::uint16_t tag = 0;
        std::uint32_t trip_count = 0;
        std::uint32_t current_iter = 0;
        std::uint8_t confidence = 0; //!< 0..3; >=2 = trust the trip count
    };

    static std::size_t
    index(std::uint64_t ip)
    {
        return static_cast<std::size_t>(XorFold(ip >> 2, T));
    }

    static std::uint16_t
    tagOf(std::uint64_t ip)
    {
        return static_cast<std::uint16_t>(
            XorFold(mix64(ip >> 2), TagBits));
    }

    std::vector<Entry> entries_;
};

/**
 * Composition: a loop predictor that *overrides* a main predictor only on
 * branches whose trip count it has confidently locked — the design the
 * paper's comparison-simulator walkthrough (§VI-C) evaluates. Built purely
 * from the public Predictor interface plus the train/track split.
 */
class LoopOverride : public Predictor
{
  public:
    explicit LoopOverride(std::unique_ptr<Predictor> main)
        : main_(std::move(main))
    {}

    bool
    predict(std::uint64_t ip) override
    {
        if (loop_.isConfident(ip)) {
            ++stat_loop_predictions_;
            return loop_.predict(ip);
        }
        return main_->predict(ip);
    }

    void
    train(const Branch &b) override
    {
        loop_.train(b);
        main_->train(b);
    }

    void
    track(const Branch &b) override
    {
        // The loop predictor keeps no scenario state, but the main
        // predictor tracks every branch as usual.
        main_->track(b);
    }

    std::optional<ComponentInfo>
    storage_components() const override
    {
        std::optional<ComponentInfo> main = main_->storage_components();
        if (!main.has_value())
            return std::nullopt; // cannot derive an undeclared component
        // A main that *declares* zero cost still pays for the loop table.
        return ComponentInfo::composite(
            "loop_override",
            {*loop_.storage_components(),
             ComponentInfo::composite("main", {*std::move(main)})});
    }

    json_t
    metadata_stats() const override
    {
        return json_t::object({
            {"name", "MBPlib Loop+Main"},
            {"loop", loop_.metadata_stats()},
            {"main", main_->metadata_stats()},
        });
    }

    json_t
    execution_stats() const override
    {
        return json_t::object({
            {"loop_predictions", stat_loop_predictions_},
            {"main", main_->execution_stats()},
        });
    }

  private:
    LoopPredictor<> loop_;
    std::unique_ptr<Predictor> main_;
    std::uint64_t stat_loop_predictions_ = 0;
};

} // namespace mbp::pred

#endif // MBP_PREDICTORS_LOOP_HPP
