/**
 * @file
 * The hashed perceptron predictor (Tarjan & Skadron 2005, "Merging path and
 * gshare indexing in perceptron branch prediction").
 *
 * Instead of one weight per history bit (the original perceptron), several
 * weight tables are each indexed by a hash of the branch address and a
 * *segment* of the global history (geometrically growing lengths). The
 * prediction is the sign of the sum of the selected weights; training is
 * perceptron-style: only on a misprediction or when the confidence |sum|
 * falls below an adaptively trained threshold.
 */
#ifndef MBP_PREDICTORS_PERCEPTRON_HPP
#define MBP_PREDICTORS_PERCEPTRON_HPP

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "mbp/sim/predictor.hpp"
#include "mbp/utils/bits.hpp"
#include "mbp/utils/hash.hpp"
#include "mbp/utils/history.hpp"
#include "mbp/utils/sat_counter.hpp"

namespace mbp::pred
{

/**
 * Hashed perceptron.
 *
 * @tparam NumTables Number of weight tables (history segments).
 * @tparam T         Log2 of each table's entry count.
 * @tparam MaxHist   Longest history segment; segment lengths grow
 *                   geometrically from 2 to MaxHist.
 */
template <int NumTables = 8, int T = 12, int MaxHist = 128>
class HashedPerceptron : public Predictor
{
  public:
    HashedPerceptron() : ghist_(MaxHist), path_(4, 8)
    {
        for (int t = 0; t < NumTables; ++t) {
            weights_[t].assign(std::size_t(1) << T, SatCounter<8>());
            // Geometric history lengths: h_t = 2 * r^t, h_last = MaxHist.
            double ratio =
                NumTables > 1
                    ? std::pow(double(MaxHist) / 2.0,
                               1.0 / double(NumTables - 1))
                    : 1.0;
            lengths_[t] = t == 0 ? 0 // table 0 is address-indexed (bias)
                                 : std::max(
                                       1, int(2.0 * std::pow(ratio, t - 1)));
            folds_[t] = FoldedHistory(std::max(lengths_[t], 1), T);
        }
        theta_ = static_cast<int>(1.93 * NumTables + 14); // Jimenez's rule
    }

    bool
    predict(std::uint64_t ip) override
    {
        last_sum_ = 0;
        for (int t = 0; t < NumTables; ++t) {
            idx_[t] = indexFor(ip, t);
            last_sum_ += weights_[t][idx_[t]].value();
        }
        last_ip_ = ip;
        return last_sum_ >= 0;
    }

    void
    train(const Branch &b) override
    {
        if (last_ip_ != b.ip())
            predict(b.ip());
        const bool outcome = b.isTaken();
        const bool prediction = last_sum_ >= 0;
        const bool mispredicted = prediction != outcome;
        const int magnitude = last_sum_ >= 0 ? last_sum_ : -last_sum_;
        if (mispredicted || magnitude <= theta_) {
            for (int t = 0; t < NumTables; ++t)
                weights_[t][idx_[t]].sumOrSub(outcome);
            // Adaptive threshold training (Seznec/Jimenez O-GEHL style):
            // grow theta when mispredicting, shrink when updating on
            // low-confidence correct predictions.
            if (mispredicted) {
                if (++theta_counter_ >= kThetaSpeed) {
                    theta_counter_ = 0;
                    ++theta_;
                }
            } else {
                if (--theta_counter_ <= -kThetaSpeed) {
                    theta_counter_ = 0;
                    if (theta_ > 1)
                        --theta_;
                }
            }
        }
    }

    void
    track(const Branch &b) override
    {
        bool evicted[NumTables];
        for (int t = 0; t < NumTables; ++t) {
            evicted[t] =
                lengths_[t] > 0 && ghist_[std::max(lengths_[t], 1) - 1];
        }
        ghist_.push(b.isTaken());
        for (int t = 0; t < NumTables; ++t) {
            if (lengths_[t] > 0)
                folds_[t].update(b.isTaken(), evicted[t]);
        }
        path_.push(b.ip());
        last_ip_ = ~std::uint64_t(0); // cached sum is stale now
    }

    std::optional<ComponentInfo>
    storage_components() const override
    {
        return ComponentInfo::composite(
            "hashed_perceptron",
            {ComponentInfo::table("weights",
                                  std::uint64_t(NumTables) *
                                      (std::uint64_t(1) << T),
                                  8),
             ComponentInfo::reg("global_history", MaxHist),
             ComponentInfo::reg("path_history", 32),
             ComponentInfo::reg("theta_state", 16)});
    }

    json_t
    metadata_stats() const override
    {
        json_t lens = json_t::array();
        for (int t = 0; t < NumTables; ++t)
            lens.push_back(lengths_[t]);
        return json_t::object({
            {"name", "MBPlib Hashed Perceptron"},
            {"num_tables", NumTables},
            {"log_table_size", T},
            {"history_lengths", lens},
            {"theta", theta_},
        });
    }

    json_t
    execution_stats() const override
    {
        return json_t::object({{"final_theta", theta_}});
    }

  private:
    static constexpr int kThetaSpeed = 32;

    std::size_t
    indexFor(std::uint64_t ip, int t) const
    {
        std::uint64_t base = XorFold(ip >> 2, T);
        if (lengths_[t] == 0)
            return base;
        // Merge path and gshare indexing: address, folded history segment
        // and a dash of path history.
        return (base ^ folds_[t].value() ^
                XorFold(path_.value() * (2 * t + 1), T)) &
               util::maskBits(T);
    }

    std::array<std::vector<SatCounter<8>>, NumTables> weights_;
    std::array<FoldedHistory, NumTables> folds_;
    std::array<int, NumTables> lengths_{};
    GlobalHistory ghist_;
    PathHistory path_;
    std::array<std::size_t, NumTables> idx_{};
    std::uint64_t last_ip_ = ~std::uint64_t(0);
    int last_sum_ = 0;
    int theta_ = 30;
    int theta_counter_ = 0;
};

} // namespace mbp::pred

#endif // MBP_PREDICTORS_PERCEPTRON_HPP
