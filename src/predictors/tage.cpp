/**
 * @file
 * TAGE implementation.
 */
#include "mbp/predictors/tage.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace mbp::pred
{

Tage::Config
Tage::Config::geometric(int num_tables, int min_hist, int max_hist,
                        int log_size, int tag_bits)
{
    assert(num_tables >= 1);
    Config config;
    config.tables.resize(static_cast<std::size_t>(num_tables));
    double ratio = num_tables > 1
                       ? std::pow(double(max_hist) / double(min_hist),
                                  1.0 / double(num_tables - 1))
                       : 1.0;
    for (int t = 0; t < num_tables; ++t) {
        TageTableSpec &spec = config.tables[static_cast<std::size_t>(t)];
        spec.history_len = std::max(
            1, int(std::round(min_hist * std::pow(ratio, t))));
        // Keep the series strictly increasing even after rounding.
        if (t > 0) {
            int prev =
                config.tables[static_cast<std::size_t>(t - 1)].history_len;
            if (spec.history_len <= prev)
                spec.history_len = prev + 1;
        }
        spec.log_size = log_size;
        // Longer-history tables earn wider tags (fewer false hits).
        spec.tag_bits = tag_bits + (t >= num_tables / 2 ? 1 : 0);
    }
    return config;
}

Tage::Tage(Config config)
    : TageFrame("tage", config.tables, config.log_bimodal_size),
      config_(std::move(config))
{
    if (config_.counter_bits < 2 ||
        config_.counter_bits > PackedTageEntry::kCounterBits)
        throw std::invalid_argument(
            "tage: counter_bits out of [2, 8] (packed counter field)");
    if (config_.useful_bits < 1 ||
        config_.useful_bits > PackedTageEntry::kCounterBits)
        throw std::invalid_argument(
            "tage: useful_bits out of [1, 8] (packed counter field)");
}

TageResolved
Tage::resolve(const std::uint32_t *flat, std::uint64_t hits,
              std::uint32_t bimodal) const
{
    const PackedTageEntry *entries = arena_.data();
    // Provider = longest (highest) hit, alternate = the next one below —
    // top two set bits of the mask, no table scan.
    TageResolved r;
    r.bimodal = bimodal;
    r.provider = static_cast<int>(std::bit_width(hits)) - 1;
    const std::uint64_t below =
        r.provider >= 0 ? hits ^ (std::uint64_t(1) << r.provider) : 0;
    r.alt = static_cast<int>(std::bit_width(below)) - 1;

    const bool base_pred = bimodal_[bimodal] >= 0;
    if (r.provider >= 0) {
        const PackedTageEntry prov =
            entries[flat[static_cast<std::size_t>(r.provider)]];
        r.provider_pred = prov.ctr() >= 0;
        r.alt_pred =
            r.alt >= 0
                ? entries[flat[static_cast<std::size_t>(r.alt)]].ctr() >= 0
                : base_pred;
        // "Newly allocated" heuristic: weak counter and no proven utility.
        r.provider_is_weak =
            prov.useful() == 0 && (prov.ctr() == 0 || prov.ctr() == -1);
        r.prediction = (r.provider_is_weak && use_alt_on_na_ >= 0)
                           ? r.alt_pred
                           : r.provider_pred;
    } else {
        r.provider_pred = base_pred;
        r.alt_pred = base_pred;
        r.prediction = base_pred;
    }
    return r;
}

void
Tage::applyTrain(const std::uint32_t *flat, const std::uint16_t *tags,
                 const TageResolved &lv, bool outcome)
{
    const bool mispredicted = lv.prediction != outcome;
    const int num_tables = static_cast<int>(history_.numBanks());
    PackedTageEntry *entries = arena_.data();

    if (lv.provider >= 0)
        ++stat_provider_hits_;
    else
        ++stat_base_predictions_;

    if (lv.provider >= 0) {
        PackedTageEntry &prov =
            entries[flat[static_cast<std::size_t>(lv.provider)]];

        // use_alt_on_na chooser: when the provider looked newly allocated
        // and the two predictions differed, learn which one to trust.
        if (lv.provider_is_weak && lv.provider_pred != lv.alt_pred)
            use_alt_on_na_.sumOrSub(lv.alt_pred == outcome);

        // Prediction counter, clamped to the configured width.
        int v = prov.ctr() + (outcome ? 1 : -1);
        prov.setCtr(std::max(ctrMin(), std::min(ctrMax(), v)));

        // Useful counter: the provider proved (un)helpful vs the alternate.
        if (lv.provider_pred != lv.alt_pred) {
            const int useful = prov.useful();
            if (lv.provider_pred == outcome) {
                if (useful < uMax())
                    prov.setUseful(useful + 1);
            } else if (useful > 0) {
                prov.setUseful(useful - 1);
            }
        }
        // Keep the base predictor trained when it served as alternate.
        if (lv.alt < 0)
            bimodal_[lv.bimodal].sumOrSub(outcome);
    } else {
        bimodal_[lv.bimodal].sumOrSub(outcome);
    }

    // Allocation: on a misprediction, try to allocate one entry in a table
    // with a longer history than the provider.
    if (mispredicted && lv.provider + 1 < num_tables) {
        int first = lv.provider + 1;
        // Skew the start table randomly (as TAGE does) so allocations
        // spread over the longer tables instead of piling on `first`.
        int start = first;
        std::uint64_t r = rng_.bits(2);
        while (r > 0 && start + 1 < num_tables) {
            ++start;
            r >>= 1;
        }
        int victim = -1;
        for (int t = start; t < num_tables; ++t) {
            if (entries[flat[static_cast<std::size_t>(t)]].useful() == 0) {
                victim = t;
                break;
            }
        }
        if (victim >= 0) {
            const std::size_t uv = static_cast<std::size_t>(victim);
            PackedTageEntry &e = entries[flat[uv]];
            e.setTag(tags[uv]);
            e.setCtr(outcome ? 0 : -1); // weak, observed
            e.setUseful(0);
            ++stat_allocations_;
        } else {
            // Everything useful: age the candidates so future allocations
            // can succeed.
            for (int t = first; t < num_tables; ++t) {
                PackedTageEntry &e =
                    entries[flat[static_cast<std::size_t>(t)]];
                if (e.useful() > 0)
                    e.setUseful(e.useful() - 1);
            }
            ++stat_alloc_failures_;
        }
    }

    // Graceful useful reset: periodically clear alternating bits (high,
    // then low) of every useful counter, so stale entries do not block
    // allocation forever. One pass over the arena per period.
    if (++branch_counter_ >= config_.u_reset_period) {
        branch_counter_ = 0;
        const int bit = reset_msb_next_ ? config_.useful_bits - 1 : 0;
        reset_msb_next_ = !reset_msb_next_;
        const int keep = ~(1 << bit);
        for (std::uint32_t f = 0; f < arena_.size(); ++f)
            entries[f].setUseful(entries[f].useful() & keep);
    }
}

json_t
Tage::metadata_stats() const
{
    json_t tables = json_t::array();
    for (const TageTableSpec &spec : config_.tables) {
        tables.push_back(json_t::object({
            {"log_size", spec.log_size},
            {"history_length", spec.history_len},
            {"tag_bits", spec.tag_bits},
        }));
    }
    return json_t::object({
        {"name", "MBPlib TAGE"},
        {"log_bimodal_size", config_.log_bimodal_size},
        {"counter_bits", config_.counter_bits},
        {"useful_bits", config_.useful_bits},
        {"num_tagged_tables", std::uint64_t(config_.tables.size())},
        {"tables", tables},
    });
}

std::optional<ComponentInfo>
Tage::storage_components() const
{
    std::vector<ComponentInfo> parts;
    parts.push_back(ComponentInfo::table(
        "bimodal", std::uint64_t(1) << config_.log_bimodal_size, 2));
    for (std::size_t t = 0; t < config_.tables.size(); ++t) {
        const TageTableSpec &spec = config_.tables[t];
        parts.push_back(ComponentInfo::table(
            "tagged_table_" + std::to_string(t),
            std::uint64_t(1) << spec.log_size,
            std::uint64_t(config_.counter_bits + config_.useful_bits +
                          spec.tag_bits)));
    }
    parts.push_back(ComponentInfo::reg(
        "global_history", std::uint64_t(history_.historyBits())));
    parts.push_back(ComponentInfo::reg("path_history", 32));
    parts.push_back(ComponentInfo::reg("use_alt_on_na", 4));
    parts.push_back(ComponentInfo::reg("u_reset_counter", 32));
    return ComponentInfo::composite("tage", std::move(parts));
}

json_t
Tage::execution_stats() const
{
    return json_t::object({
        {"allocations", stat_allocations_},
        {"allocation_failures", stat_alloc_failures_},
        {"provider_hits", stat_provider_hits_},
        {"base_predictions", stat_base_predictions_},
        {"use_alt_on_na", use_alt_on_na_.value()},
    });
}

} // namespace mbp::pred
