/**
 * @file
 * BATAGE implementation.
 */
#include "mbp/predictors/batage.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "mbp/utils/bits.hpp"

namespace mbp::pred
{

Batage::Config
Batage::Config::geometric(int num_tables, int min_hist, int max_hist,
                          int log_size, int tag_bits)
{
    // Reuse TAGE's geometry; only the per-entry payload differs.
    Tage::Config base = Tage::Config::geometric(num_tables, min_hist,
                                                max_hist, log_size, tag_bits);
    Config config;
    config.tables = std::move(base.tables);
    return config;
}

Batage::Batage(Config config)
    : BatageFrame("batage", config.tables, config.log_bimodal_size),
      config_(std::move(config))
{
    if (config_.counter_max < 1 || config_.counter_max > 255)
        throw std::invalid_argument(
            "batage: counter_max out of [1, 255] (packed 8-bit dual "
            "counter halves)");
}

bool
Batage::confidenceBetter(PackedDualEntry a, PackedDualEntry b)
{
    // Estimated misprediction probability: (min + 1) / (sum + 2).
    // Compare (min_a+1)/(sum_a+2) < (min_b+1)/(sum_b+2) by cross product.
    unsigned min_a = std::min(a.numTaken(), a.numNotTaken());
    unsigned sum_a = a.numTaken() + a.numNotTaken();
    unsigned min_b = std::min(b.numTaken(), b.numNotTaken());
    unsigned sum_b = b.numTaken() + b.numNotTaken();
    return (min_a + 1) * (sum_b + 2) < (min_b + 1) * (sum_a + 2);
}

bool
Batage::isHighConfidence(PackedDualEntry e) const
{
    unsigned lo = std::min(e.numTaken(), e.numNotTaken());
    unsigned hi = std::max(e.numTaken(), e.numNotTaken());
    // High confidence: estimated misprediction probability below 1/6 and a
    // mature counter. With 3-bit counters this means e.g. 7/0, 6/0, 5/0.
    return 6 * (lo + 1) <= hi + lo + 2 &&
           hi >= unsigned(config_.counter_max) / 2 + 1;
}

void
Batage::bump(PackedDualEntry &e, bool outcome) const
{
    // Michaud's dual-counter update: count the observed outcome; once
    // saturated, decay the opposite count instead, so the pair keeps a
    // bounded, slowly adapting estimate of the outcome distribution.
    unsigned same = outcome ? e.numTaken() : e.numNotTaken();
    unsigned other = outcome ? e.numNotTaken() : e.numTaken();
    if (same < unsigned(config_.counter_max))
        ++same;
    else if (other > 0)
        --other;
    e.setNumTaken(outcome ? same : other);
    e.setNumNotTaken(outcome ? other : same);
}

BatageResolved
Batage::resolve(const std::uint32_t *flat, std::uint64_t hits,
                std::uint32_t bimodal) const
{
    const PackedDualEntry *entries = arena_.data();
    BatageResolved r;
    r.bimodal = bimodal;
    r.hits = hits;

    // Pick the most confident entry among the base and all hits; on equal
    // confidence the longer history wins (scan shortest to longest and
    // replace unless strictly worse).
    PackedDualEntry best = bimodal_[bimodal];
    for (std::uint64_t m = r.hits; m != 0; m &= m - 1) {
        const int t = std::countr_zero(m);
        const PackedDualEntry e = entries[flat[static_cast<std::size_t>(t)]];
        if (!confidenceBetter(best, e)) {
            best = e;
            r.provider = t;
        }
    }
    r.prediction = best.numTaken() >= best.numNotTaken();
    return r;
}

void
Batage::applyTrain(const std::uint32_t *flat, const std::uint16_t *tags,
                   const BatageResolved &lv, bool outcome)
{
    const bool mispredicted = lv.prediction != outcome;
    const int num_tables = static_cast<int>(history_.numBanks());
    PackedDualEntry *entries = arena_.data();

    // Cascade update (the dual counters double as both prediction and
    // usefulness state): the longest hit is always updated — this is what
    // matures freshly allocated entries — and shorter hits (ending at the
    // bimodal base) keep training while every longer entry above them is
    // still low-confidence, so a warm backup always exists.
    bool cascade = true;
    for (std::uint64_t m = lv.hits; m != 0 && cascade;) {
        // Longest history first: peel the highest set bit.
        const int t = static_cast<int>(std::bit_width(m)) - 1;
        m ^= std::uint64_t(1) << t;
        PackedDualEntry &e = entries[flat[static_cast<std::size_t>(t)]];
        bump(e, outcome);
        cascade = !isHighConfidence(e);
    }
    if (cascade)
        bump(bimodal_[lv.bimodal], outcome);

    // Controlled Allocation Throttling: allocate on mispredictions in a
    // longer-history table, with probability shrinking as cat_ grows.
    if (mispredicted && lv.provider + 1 < num_tables) {
        bool throttle =
            cat_ > 0 &&
            static_cast<int>(rng_.next() % std::uint64_t(config_.cat_max)) <
                cat_;
        if (throttle) {
            ++stat_throttled_;
        } else {
            int first = lv.provider + 1;
            int start = first;
            std::uint64_t r = rng_.bits(2);
            while (r > 0 && start + 1 < num_tables) {
                ++start;
                r >>= 1;
            }
            int victim = -1;
            for (int t = start; t < num_tables; ++t) {
                PackedDualEntry &e =
                    entries[flat[static_cast<std::size_t>(t)]];
                if (!isHighConfidence(e)) {
                    victim = t;
                    break;
                }
                // Probabilistic decay of the high-confidence blocker, so
                // dead entries eventually open up.
                if (rng_.oneIn2Pow(2)) {
                    if (e.numTaken() > 0)
                        e.setNumTaken(e.numTaken() - 1);
                    if (e.numNotTaken() > 0)
                        e.setNumNotTaken(e.numNotTaken() - 1);
                    ++stat_decays_;
                }
            }
            // CAT follows capacity pressure: failed allocations (all
            // candidates high-confidence) raise the throttle, successful
            // ones relax it. Under pressure — the allocation-storm regime
            // CAT exists for — most attempts fail, so cat_ climbs and
            // allocation slows until decay frees room.
            if (victim >= 0) {
                const std::size_t uv = static_cast<std::size_t>(victim);
                PackedDualEntry &e = entries[flat[uv]];
                e.setTag(tags[uv]);
                e.setNumTaken(outcome ? 1 : 0);
                e.setNumNotTaken(outcome ? 0 : 1);
                ++stat_allocations_;
                cat_ = std::max(0, cat_ - config_.cat_dec);
            } else {
                cat_ = std::min(config_.cat_max, cat_ + config_.cat_inc);
            }
        }
    }
}

json_t
Batage::metadata_stats() const
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
        {"name", "MBPlib BATAGE"},
        {"log_bimodal_size", config_.log_bimodal_size},
        {"counter_max", config_.counter_max},
        {"num_tagged_tables", std::uint64_t(config_.tables.size())},
        {"tables", tables},
    });
}

std::uint64_t
Batage::storageBits() const
{
    int dual_bits = 2 * mbp::util::ceilLog2(
                            std::uint64_t(config_.counter_max) + 1);
    std::uint64_t bits =
        (std::uint64_t(1) << config_.log_bimodal_size) *
        std::uint64_t(dual_bits);
    for (const TageTableSpec &spec : config_.tables) {
        bits += (std::uint64_t(1) << spec.log_size) *
                std::uint64_t(dual_bits + spec.tag_bits);
    }
    bits += std::uint64_t(history_.historyBits()) + 32 + 16 /* cat */;
    return bits;
}

std::optional<ComponentInfo>
Batage::storage_components() const
{
    const std::uint64_t dual_bits =
        2 * std::uint64_t(mbp::util::ceilLog2(
                std::uint64_t(config_.counter_max) + 1));
    std::vector<ComponentInfo> parts;
    parts.push_back(ComponentInfo::table(
        "bimodal", std::uint64_t(1) << config_.log_bimodal_size,
        dual_bits));
    for (std::size_t t = 0; t < config_.tables.size(); ++t) {
        const TageTableSpec &spec = config_.tables[t];
        parts.push_back(ComponentInfo::table(
            "tagged_table_" + std::to_string(t),
            std::uint64_t(1) << spec.log_size,
            dual_bits + std::uint64_t(spec.tag_bits)));
    }
    parts.push_back(ComponentInfo::reg(
        "global_history", std::uint64_t(history_.historyBits())));
    parts.push_back(ComponentInfo::reg("path_history", 32));
    parts.push_back(ComponentInfo::reg("cat_counter", 16));
    return ComponentInfo::composite("batage", std::move(parts));
}

json_t
Batage::execution_stats() const
{
    return json_t::object({
        {"allocations", stat_allocations_},
        {"throttled_allocations", stat_throttled_},
        {"controlled_decays", stat_decays_},
        {"final_cat", cat_},
    });
}

} // namespace mbp::pred
