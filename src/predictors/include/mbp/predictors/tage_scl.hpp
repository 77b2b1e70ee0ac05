/**
 * @file
 * TAGE-SC-L-lite: TAGE augmented with a Loop predictor and a Statistical
 * Corrector, in the spirit of Seznec's championship-winning TAGE-SC-L.
 * This is the examples library's demonstration of building a
 * state-of-the-art *composite* out of existing components through the
 * public Predictor interface (paper §V / §VI-D):
 *
 *  - the Loop component overrides on confidently locked trip counts;
 *  - the Statistical Corrector is a small perceptron over the TAGE
 *    prediction and several history folds; it flips statistically
 *    mispredicted TAGE outputs when its own confidence is high.
 */
#ifndef MBP_PREDICTORS_TAGE_SCL_HPP
#define MBP_PREDICTORS_TAGE_SCL_HPP

#include <array>
#include <vector>

#include "mbp/predictors/loop.hpp"
#include "mbp/predictors/tage.hpp"
#include "mbp/sbbt/mem_trace.hpp"
#include "mbp/sim/predictor.hpp"
#include "mbp/utils/history.hpp"

namespace mbp::pred
{

/** TAGE + Statistical Corrector + Loop predictor. */
class TageScl : public Predictor
{
  public:
    explicit TageScl(Tage::Config config = Tage::Config::geometric())
        : tage_(std::move(config)), ghist_(64)
    {
        for (auto &table : sc_tables_)
            table.assign(kScSize, SatCounter<6>());
        sc_lengths_ = {0, 4, 10, 21, 42};
        for (std::size_t i = 1; i < sc_lengths_.size(); ++i)
            sc_folds_[i] = FoldedHistory(sc_lengths_[i], kScLogSize);
    }

    bool
    predict(std::uint64_t ip) override
    {
        return tally(decide(ip, tage_.predict(ip)));
    }

    void
    train(const Branch &b) override
    {
        // predict() already counted this branch's overrides: no tally().
        update(b.ip(), b.isTaken(), decide(b.ip(), tage_.predict(b.ip())));
        tage_.train(b);
    }

    void
    track(const Branch &b) override
    {
        const bool bit = b.isTaken();
        advanceScHistory(bit);
        tage_.track(b);
    }

    /** Rows one indexRows() call covers at most (KernelTwoPhase). */
    static constexpr std::size_t kIndexRows = Tage::kIndexRows;

    /** Phase 1 (KernelTwoPhase): the TAGE core's history work for the
     *  chunk (Tage::indexRows); the corrector's history and the loop
     *  predictor stay in phase 2. */
    void
    indexRows(const sbbt::BranchColumns &columns, std::size_t begin,
              std::size_t end, bool track_all)
    {
        tage_.indexRows(columns, begin, end, track_all);
    }

    /**
     * Phase 2 for the @p j -th conditional row of the last indexRows()
     * chunk: exactly predict(ip); train(b); track(b) for a conditional
     * branch with outcome @p taken. The TAGE core steps its tables
     * first; loop and corrector state is disjoint from it, so their
     * updates commute with the hoisted TAGE step, and one decide() serves
     * both the prediction and the update.
     */
    bool
    stepIndexed(std::size_t j, std::uint64_t ip, bool taken)
    {
        const Decision d = decide(ip, tage_.stepIndexed(j, ip, taken));
        update(ip, taken, d);
        advanceScHistory(taken);
        return tally(d);
    }

    /** Phase 2 of track() for a row that is not conditional: the
     *  corrector's history (the TAGE core's push was phase 1's). */
    void trackIndexed(const Branch &b) { advanceScHistory(b.isTaken()); }

    json_t
    metadata_stats() const override
    {
        return json_t::object({
            {"name", "MBPlib TAGE-SC-L (lite)"},
            {"tage", tage_.metadata_stats()},
            {"loop", loop_.metadata_stats()},
            {"sc_tables", std::uint64_t(sc_tables_.size())},
            {"sc_log_size", kScLogSize},
        });
    }

    std::optional<ComponentInfo>
    storage_components() const override
    {
        return ComponentInfo::composite(
            "tage_scl",
            {*tage_.storage_components(), *loop_.storage_components(),
             ComponentInfo::table("sc_counters",
                                  sc_tables_.size() * kScSize, 6),
             ComponentInfo::reg("sc_history", 64),
             ComponentInfo::reg("with_loop", 7)});
    }

    json_t
    execution_stats() const override
    {
        return json_t::object({
            {"sc_corrections", stat_corrections_},
            {"loop_used", stat_loop_used_},
            {"with_loop", loop_use_.value()},
            {"tage", tage_.execution_stats()},
        });
    }

  private:
    static constexpr int kScLogSize = 11;

    /** What the loop predictor and the corrector make of a branch, given
     *  TAGE's prediction: predict()'s answer, and all update() needs. */
    struct Decision
    {
        bool tage_pred = false;
        bool loop_confident = false;
        bool loop_pred = false; //!< the loop's guess, if confident
        bool loop_used = false; //!< the loop overrode TAGE (WITHLOOP)
        bool corrected = false; //!< the corrector flipped TAGE
        int sum = 0;            //!< the corrector's sum, if !loop_used
        bool prediction = false;
    };

    Decision
    decide(std::uint64_t ip, bool tage_pred)
    {
        Decision d;
        d.tage_pred = tage_pred;
        d.loop_confident = loop_.isConfident(ip);
        d.loop_pred = d.loop_confident && loop_.predict(ip);
        // The loop predictor overrides only while it has globally proven
        // more accurate than TAGE on the branches where they disagree
        // (TAGE-SC-L's WITHLOOP counter).
        if (d.loop_confident && loop_use_ >= 0) {
            d.loop_used = true;
            d.prediction = d.loop_pred;
            return d;
        }
        d.sum = scSum(ip, tage_pred);
        // Correct only when the corrector is confident.
        d.corrected = tage_pred ? d.sum < -kScThreshold : d.sum > kScThreshold;
        d.prediction = d.corrected ? !tage_pred : tage_pred;
        return d;
    }

    /** Counts what @p d overrode. @return Its prediction. */
    bool
    tally(const Decision &d)
    {
        stat_loop_used_ += d.loop_used ? 1 : 0;
        stat_corrections_ += d.corrected ? 1 : 0;
        return d.prediction;
    }

    /** train() minus the TAGE core: the WITHLOOP chooser, the loop
     *  predictor, and the corrector's tables. */
    void
    update(std::uint64_t ip, bool outcome, const Decision &d)
    {
        if (d.loop_confident && d.loop_pred != d.tage_pred)
            loop_use_.sumOrSub(d.loop_pred == outcome);
        // The loop component reads only the address and the outcome.
        loop_.train(Branch{ip, 0, OpCode::condJump(), outcome});
        const int sum = d.loop_used ? scSum(ip, d.tage_pred) : d.sum;
        // Perceptron-style update: on disagreement with the outcome or
        // low confidence.
        const bool sc_pred = sum >= 0;
        const int magnitude = sum >= 0 ? sum : -sum;
        if (sc_pred != outcome || magnitude <= kScTheta) {
            for (std::size_t t = 0; t < sc_tables_.size(); ++t)
                sc_tables_[t][scIndex(ip, t, d.tage_pred)].sumOrSub(outcome);
        }
    }

    /** Advances the corrector folds + history (the SC part of track()).
     *  Every SC history length fits in the first ghist word, so the
     *  evicted bits come from one hoisted word read. */
    void
    advanceScHistory(bool bit)
    {
        const std::uint64_t word = ghist_.words()[0];
        for (std::size_t i = 1; i < sc_lengths_.size(); ++i) {
            const bool evicted = ((word >> (sc_lengths_[i] - 1)) & 1) != 0;
            sc_folds_[i].update(bit, evicted);
        }
        ghist_.push(bit);
    }

    static constexpr std::size_t kScSize = std::size_t(1) << kScLogSize;
    static constexpr int kScThreshold = 12; //!< confidence to override
    static constexpr int kScTheta = 10;     //!< training threshold

    std::size_t
    scIndex(std::uint64_t ip, std::size_t t, bool tage_pred) const
    {
        std::uint64_t base = XorFold(ip >> 2, kScLogSize);
        std::uint64_t fold = t == 0 ? 0 : sc_folds_[t].value();
        return static_cast<std::size_t>(
            (base ^ fold ^ (tage_pred ? 0x2a5u : 0)) &
            util::maskBits(kScLogSize));
    }

    int
    scSum(std::uint64_t ip, bool tage_pred) const
    {
        // The TAGE prediction contributes as a strong prior so the
        // corrector only overrides with real statistical evidence.
        int sum = tage_pred ? kScTheta : -kScTheta;
        for (std::size_t t = 0; t < sc_tables_.size(); ++t)
            sum += sc_tables_[t][scIndex(ip, t, tage_pred)].value();
        return sum;
    }

    Tage tage_;
    LoopPredictor<> loop_;
    SatCounter<7> loop_use_{-1}; //!< WITHLOOP: trust the loop when >= 0
    std::array<std::vector<SatCounter<6>>, 5> sc_tables_;
    std::array<FoldedHistory, 5> sc_folds_;
    std::vector<int> sc_lengths_;
    GlobalHistory ghist_;
    std::uint64_t stat_corrections_ = 0;
    std::uint64_t stat_loop_used_ = 0;
};

} // namespace mbp::pred

#endif // MBP_PREDICTORS_TAGE_SCL_HPP
