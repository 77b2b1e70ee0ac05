/**
 * @file
 * The generalized tournament meta-predictor (Evers et al. 1996), exactly as
 * developed in paper §VI-D / Listing 4.
 *
 * A tournament predictor runs two base predictors and a meta-predictor
 * whose "outcome" is not the branch direction but *which base predictor to
 * believe*. The train/track split is what makes this expressible without
 * reimplementing the bases: the meta-predictor is trained only when the two
 * bases disagree — and with a synthesized Branch whose outcome encodes the
 * correct chooser — yet it still tracks every program branch.
 */
#ifndef MBP_PREDICTORS_TOURNAMENT_HPP
#define MBP_PREDICTORS_TOURNAMENT_HPP

#include <array>
#include <memory>
#include <utility>

#include "mbp/predictors/bimodal.hpp"
#include "mbp/predictors/gshare.hpp"
#include "mbp/sim/predictor.hpp"

namespace mbp::pred
{

/** Tournament of two arbitrary predictors selected by a third. */
class TournamentPred : public Predictor
{
  public:
    /**
     * @param meta Chooser; its prediction selects bp1 (taken) or bp0.
     * @param bp0  First base predictor.
     * @param bp1  Second base predictor.
     */
    TournamentPred(std::unique_ptr<Predictor> meta,
                   std::unique_ptr<Predictor> bp0,
                   std::unique_ptr<Predictor> bp1)
        : meta_(std::move(meta)), bp0_(std::move(bp0)), bp1_(std::move(bp1))
    {}

    bool
    predict(std::uint64_t ip) override
    {
        // Cache the component predictions: predict() must be repeatable and
        // train() needs the same values the prediction used.
        if (predicted_ip_ == ip && !tracked_)
            return prediction_[provider_];
        predicted_ip_ = ip;
        tracked_ = false;
        provider_ = meta_->predict(ip);
        prediction_[0] = bp0_->predict(ip);
        prediction_[1] = bp1_->predict(ip);
        return prediction_[provider_];
    }

    void
    train(const Branch &b) override
    {
        this->predict(b.ip()); // ensure the cached component state is fresh
        bp0_->train(b);
        bp1_->train(b);
        if (prediction_[0] != prediction_[1]) {
            // Train the chooser with a synthesized branch whose outcome
            // names the base predictor that was right.
            Branch meta_branch{b.ip(), b.target(), b.opcode(),
                               prediction_[1] == b.isTaken()};
            meta_->train(meta_branch);
        }
    }

    void
    track(const Branch &b) override
    {
        meta_->track(b);
        bp0_->track(b);
        bp1_->track(b);
        tracked_ = true;
    }

    std::optional<ComponentInfo>
    storage_components() const override
    {
        // Reported only when every component reports; a component that
        // declares zero cost (e.g. a static predictor) still reports.
        std::optional<ComponentInfo> meta = meta_->storage_components();
        std::optional<ComponentInfo> bp0 = bp0_->storage_components();
        std::optional<ComponentInfo> bp1 = bp1_->storage_components();
        if (!meta.has_value() || !bp0.has_value() || !bp1.has_value())
            return std::nullopt;
        return ComponentInfo::composite(
            "tournament",
            {ComponentInfo::composite("metapredictor",
                                      {*std::move(meta)}),
             ComponentInfo::composite("predictor_0", {*std::move(bp0)}),
             ComponentInfo::composite("predictor_1", {*std::move(bp1)})});
    }

    json_t
    metadata_stats() const override
    {
        return json_t::object({
            {"name", "MBPlib Tournament"},
            {"metapredictor", meta_->metadata_stats()},
            {"predictor_0", bp0_->metadata_stats()},
            {"predictor_1", bp1_->metadata_stats()},
        });
    }

    json_t
    execution_stats() const override
    {
        return json_t::object({
            {"metapredictor", meta_->execution_stats()},
            {"predictor_0", bp0_->execution_stats()},
            {"predictor_1", bp1_->execution_stats()},
        });
    }

  private:
    std::unique_ptr<Predictor> meta_;
    std::unique_ptr<Predictor> bp0_;
    std::unique_ptr<Predictor> bp1_;
    // Cached data for the current prediction.
    std::uint64_t predicted_ip_ = ~std::uint64_t(0);
    bool tracked_ = true;
    bool provider_ = false;
    std::array<bool, 2> prediction_{};
};

/**
 * The original McFarling-style tournament: bimodal vs GShare with a bimodal
 * chooser. Sized to roughly 64 kB total.
 */
inline TournamentPred
makeClassicTournament()
{
    return TournamentPred(std::make_unique<Bimodal<15>>(),
                          std::make_unique<Bimodal<16>>(),
                          std::make_unique<Gshare<15, 16>>());
}

} // namespace mbp::pred

#endif // MBP_PREDICTORS_TOURNAMENT_HPP
