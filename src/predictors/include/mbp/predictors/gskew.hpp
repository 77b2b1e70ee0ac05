/**
 * @file
 * The 2bc-gskew predictor (Seznec & Michaud 1999, "De-aliased hybrid branch
 * predictors"), used in the Alpha EV8 design.
 *
 * Four banks of 2-bit counters:
 *   BIM  — a bimodal bank indexed by address only;
 *   G0,G1 — two gshare-like banks indexed with *skewed* hashes of
 *           (address, global history), each with a different hash so that
 *           branches aliasing in one bank are unlikely to alias in another;
 *   META — a chooser indexed like a gshare bank.
 * The e-gskew prediction is the majority of (BIM, G0, G1); META selects
 * between the BIM prediction and the majority.
 *
 * Partial update policy (what de-aliases the banks):
 *  - On a correct prediction, only the banks that voted with the final
 *    prediction are strengthened (no counter moves against its state).
 *  - On a misprediction, all three banks are trained with the outcome.
 *  - META trains only when the BIM and majority predictions disagree.
 */
#ifndef MBP_PREDICTORS_GSKEW_HPP
#define MBP_PREDICTORS_GSKEW_HPP

#include <vector>

#include "mbp/sim/predictor.hpp"
#include "mbp/utils/bits.hpp"
#include "mbp/utils/hash.hpp"
#include "mbp/utils/sat_counter.hpp"

namespace mbp::pred
{

/**
 * 2bc-gskew.
 *
 * @tparam H Global history length used by the skewed banks.
 * @tparam T Log2 of each bank's size (total cost = 4 * 2^T counters).
 */
template <int H = 17, int T = 16>
class Gskew2bc : public Predictor
{
    static_assert(H >= 1 && H <= 63, "history must fit one machine word");

  public:
    Gskew2bc()
        : bim_(std::size_t(1) << T), g0_(std::size_t(1) << T),
          g1_(std::size_t(1) << T), meta_(std::size_t(1) << T)
    {}

    bool
    predict(std::uint64_t ip) override
    {
        Lookup l = lookup(ip);
        return l.final_prediction;
    }

    void
    train(const Branch &b) override
    {
        Lookup l = lookup(b.ip());
        const bool outcome = b.isTaken();
        const bool correct = l.final_prediction == outcome;

        if (correct) {
            // Strengthen only the agreeing banks of the used prediction.
            if (l.meta_choice) {
                if (l.bim == outcome)
                    bim_[l.bim_idx].sumOrSub(outcome);
                if (l.g0 == outcome)
                    g0_[l.g0_idx].sumOrSub(outcome);
                if (l.g1 == outcome)
                    g1_[l.g1_idx].sumOrSub(outcome);
            } else {
                bim_[l.bim_idx].sumOrSub(outcome);
            }
        } else {
            // Retrain everything towards the outcome.
            bim_[l.bim_idx].sumOrSub(outcome);
            g0_[l.g0_idx].sumOrSub(outcome);
            g1_[l.g1_idx].sumOrSub(outcome);
        }
        if (l.majority != l.bim) {
            // Chooser learns which side was right.
            meta_[l.meta_idx].sumOrSub(l.majority == outcome);
        }
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
            "2bc_gskew",
            {ComponentInfo::table("bim_bank", std::uint64_t(1) << T, 2),
             ComponentInfo::table("g0_bank", std::uint64_t(1) << T, 2),
             ComponentInfo::table("g1_bank", std::uint64_t(1) << T, 2),
             ComponentInfo::table("meta_bank", std::uint64_t(1) << T, 2),
             ComponentInfo::reg("global_history", H)});
    }

    json_t
    metadata_stats() const override
    {
        return json_t::object({
            {"name", "MBPlib 2bc-gskew"},
            {"history_length", H},
            {"log_bank_size", T},
            {"num_banks", 4},
        });
    }

  private:
    struct Lookup
    {
        std::size_t bim_idx, g0_idx, g1_idx, meta_idx;
        bool bim, g0, g1;
        bool majority;
        bool meta_choice; //!< true = use majority, false = use bimodal
        bool final_prediction;
    };

    Lookup
    lookup(std::uint64_t ip) const
    {
        std::uint64_t key = (ip >> 2) ^ (ghist_ << 1);
        Lookup l;
        l.bim_idx = XorFold(ip >> 2, T);
        l.g0_idx = skewHash(key, 1, T);
        l.g1_idx = skewHash(key, 2, T);
        l.meta_idx = skewHash(key, 3, T);
        l.bim = bim_[l.bim_idx] >= 0;
        l.g0 = g0_[l.g0_idx] >= 0;
        l.g1 = g1_[l.g1_idx] >= 0;
        l.majority = (int(l.bim) + int(l.g0) + int(l.g1)) >= 2;
        l.meta_choice = meta_[l.meta_idx] >= 0;
        l.final_prediction = l.meta_choice ? l.majority : l.bim;
        return l;
    }

    std::vector<i2> bim_, g0_, g1_, meta_;
    std::uint64_t ghist_ = 0;
};

} // namespace mbp::pred

#endif // MBP_PREDICTORS_GSKEW_HPP
