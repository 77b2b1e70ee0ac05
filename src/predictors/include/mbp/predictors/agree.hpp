/**
 * @file
 * The Agree predictor (Sprangle et al. 1997): instead of predicting the
 * branch direction, the history-indexed table predicts whether the branch
 * will *agree with its bias bit*. Since most dynamic branches agree with
 * their bias most of the time, two aliasing branches usually want the
 * same "agree" value, turning destructive interference into neutral or
 * constructive interference.
 */
#ifndef MBP_PREDICTORS_AGREE_HPP
#define MBP_PREDICTORS_AGREE_HPP

#include <vector>

#include "mbp/sim/predictor.hpp"
#include "mbp/utils/bits.hpp"
#include "mbp/utils/hash.hpp"
#include "mbp/utils/sat_counter.hpp"

namespace mbp::pred
{

/**
 * Agree predictor.
 *
 * @tparam H Global history length.
 * @tparam T Log2 of the agree table's size.
 * @tparam C Log2 of the bias table's size.
 */
template <int H = 15, int T = 16, int C = 14>
class Agree : public Predictor
{
    static_assert(H >= 1 && H <= 63);

  public:
    Agree()
        : agree_(std::size_t(1) << T), bias_(std::size_t(1) << C)
    {}

    bool
    predict(std::uint64_t ip) override
    {
        bool bias = bias_[biasIndex(ip)].bit;
        bool agrees = agree_[agreeIndex(ip)] >= 0;
        return agrees == bias;
    }

    void
    train(const Branch &b) override
    {
        const bool outcome = b.isTaken();
        BiasEntry &bias = bias_[biasIndex(b.ip())];
        if (!bias.set) {
            // First-use policy: the first observed outcome becomes the
            // bias bit (the hardware proposal latches it at allocation).
            bias.set = true;
            bias.bit = outcome;
        }
        agree_[agreeIndex(b.ip())].sumOrSub(outcome == bias.bit);
    }

    void
    track(const Branch &b) override
    {
        ghist_ = ((ghist_ << 1) | (b.isTaken() ? 1 : 0)) & util::maskBits(H);
    }

    std::optional<ComponentInfo>
    storage_components() const override
    {
        // Bias entries cost 2 bits each: the latched bias bit plus its
        // allocated flag.
        return ComponentInfo::composite(
            "agree",
            {ComponentInfo::table("agree_counters", std::uint64_t(1) << T,
                                  2),
             ComponentInfo::table("bias_bits", std::uint64_t(1) << C, 2),
             ComponentInfo::reg("global_history", H)});
    }

    json_t
    metadata_stats() const override
    {
        return json_t::object({
            {"name", "MBPlib Agree"},
            {"history_length", H},
            {"log_agree_size", T},
            {"log_bias_size", C},
        });
    }

  private:
    struct BiasEntry
    {
        bool set = false;
        bool bit = false;
    };

    std::size_t
    agreeIndex(std::uint64_t ip) const
    {
        return static_cast<std::size_t>(XorFold((ip >> 2) ^ ghist_, T));
    }

    static std::size_t
    biasIndex(std::uint64_t ip)
    {
        return static_cast<std::size_t>(XorFold(ip >> 2, C));
    }

    std::vector<i2> agree_;
    std::vector<BiasEntry> bias_;
    std::uint64_t ghist_ = 0;
};

} // namespace mbp::pred

#endif // MBP_PREDICTORS_AGREE_HPP
