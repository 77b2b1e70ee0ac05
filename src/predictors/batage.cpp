/**
 * @file
 * BATAGE implementation.
 */
#include "mbp/predictors/batage.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "mbp/utils/bits.hpp"
#include "mbp/utils/hash.hpp"

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

namespace
{

int
maxHistoryLength(const Batage::Config &config)
{
    int longest = 1;
    for (const TageTableSpec &spec : config.tables)
        longest = std::max(longest, spec.history_len);
    return longest;
}

} // namespace

Batage::Batage(Config config)
    : config_(std::move(config)),
      bimodal_(std::size_t(1) << config_.log_bimodal_size),
      ghist_(maxHistoryLength(config_)), path_(4, 8)
{
    if (config_.counter_max < 1 || config_.counter_max > 255)
        throw std::invalid_argument(
            "batage: counter_max out of [1, 255] (packed 8-bit dual "
            "counter halves)");
    validateTaggedGeometry("batage", config_.tables);
    arena_ = TaggedTableArena<PackedDualEntry>(config_.tables);
    banks_.reserve(config_.tables.size());
    auto widthSlot = [this](int width) {
        for (std::size_t i = 0; i < fold_widths_.size(); ++i) {
            if (fold_widths_[i] == width)
                return static_cast<std::uint8_t>(i);
        }
        fold_widths_.push_back(width);
        return static_cast<std::uint8_t>(fold_widths_.size() - 1);
    };
    for (std::size_t t = 0; t < config_.tables.size(); ++t) {
        const TageTableSpec &spec = config_.tables[t];
        Bank bank;
        bank.spec = spec;
        bank.offset = arena_.table(t).offset;
        bank.index_mask = arena_.table(t).index_mask;
        bank.tag_mask =
            static_cast<std::uint16_t>(util::maskBits(spec.tag_bits));
        bank.idx_width_slot = widthSlot(spec.log_size);
        bank.tag_width_slot = widthSlot(spec.tag_bits);
        folds_.add(spec.history_len, spec.log_size);
        folds_.add(spec.history_len, spec.tag_bits);
        folds_.add(spec.history_len, spec.tag_bits - 1);
        banks_.push_back(bank);
    }
    lookup_.flat.resize(banks_.size());
    lookup_.tag.resize(banks_.size());
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

void
Batage::computeLookup(std::uint64_t ip)
{
    lookup_.ip = ip;
    lookup_.valid = true;
    lookup_.hits = 0;
    const std::uint64_t base = ip >> 2;
    const std::uint64_t path = path_.value();
    const PackedDualEntry *entries = arena_.data();
    for (std::size_t t = 0; t < banks_.size(); ++t) {
        const Bank &bank = banks_[t];
        const int fs = 3 * static_cast<int>(t);
        std::uint64_t idx = XorFold(base, bank.spec.log_size) ^
                            folds_.value(fs) ^
                            XorFold(path, bank.spec.log_size);
        lookup_.flat[t] =
            bank.offset + static_cast<std::uint32_t>(idx & bank.index_mask);
        std::uint64_t tag = XorFold(base, bank.spec.tag_bits) ^
                            folds_.value(fs + 1) ^
                            (folds_.value(fs + 2) << 1);
        lookup_.tag[t] = static_cast<std::uint16_t>(tag & bank.tag_mask);
        lookup_.hits |=
            std::uint64_t(entries[lookup_.flat[t]].tag() == lookup_.tag[t])
            << t;
    }

    // Pick the most confident entry among the base and all hits; on equal
    // confidence the longer history wins (scan shortest to longest and
    // replace unless strictly worse).
    PackedDualEntry best =
        bimodal_[XorFold(ip >> 2, config_.log_bimodal_size)];
    lookup_.provider = -1;
    for (std::uint64_t m = lookup_.hits; m != 0; m &= m - 1) {
        const int t = std::countr_zero(m);
        const PackedDualEntry e =
            entries[lookup_.flat[static_cast<std::size_t>(t)]];
        if (!confidenceBetter(best, e)) {
            best = e;
            lookup_.provider = t;
        }
    }
    lookup_.prediction = best.numTaken() >= best.numNotTaken();
}

bool
Batage::predict(std::uint64_t ip)
{
    if (!lookup_.valid || lookup_.ip != ip)
        computeLookup(ip);
    return lookup_.prediction;
}

void
Batage::applyTrain(std::uint64_t ip, bool outcome, const LookupView &lv)
{
    const bool mispredicted = lv.prediction != outcome;
    const int num_tables = static_cast<int>(banks_.size());
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
        PackedDualEntry &e = entries[lv.flat[static_cast<std::size_t>(t)]];
        bump(e, outcome);
        cascade = !isHighConfidence(e);
    }
    if (cascade)
        bump(bimodal_[XorFold(ip >> 2, config_.log_bimodal_size)], outcome);

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
                    entries[lv.flat[static_cast<std::size_t>(t)]];
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
                PackedDualEntry &e = entries[lv.flat[uv]];
                e.setTag(lv.tag[uv]);
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

void
Batage::train(const Branch &b)
{
    if (!lookup_.valid || lookup_.ip != b.ip())
        computeLookup(b.ip());
    const LookupView lv{lookup_.flat.data(), lookup_.tag.data(),
                        lookup_.hits, lookup_.provider, lookup_.prediction};
    applyTrain(b.ip(), b.isTaken(), lv);
    lookup_.valid = false;
}

void
Batage::advanceHistory(std::uint64_t ip, bool taken)
{
    // One pass over the fold set's parallel arrays (see Tage).
    folds_.update(taken, ghist_.words());
    ghist_.push(taken);
    path_.push(ip);
}

void
Batage::track(const Branch &b)
{
    advanceHistory(b.ip(), b.isTaken());
    lookup_.valid = false;
}

bool
Batage::fusedStep(std::uint64_t ip, bool taken)
{
    // Lookup in registers; folds computed once per distinct width.
    std::uint64_t base_fold[2 * kMaxTaggedTables];
    std::uint64_t path_fold[2 * kMaxTaggedTables];
    const std::uint64_t base = ip >> 2;
    const std::uint64_t path = path_.value();
    const std::size_t num_widths = fold_widths_.size();
    for (std::size_t w = 0; w < num_widths; ++w) {
        base_fold[w] = XorFold(base, fold_widths_[w]);
        path_fold[w] = XorFold(path, fold_widths_[w]);
    }

    std::uint32_t flat[kMaxTaggedTables];
    std::uint16_t tags[kMaxTaggedTables];
    std::uint64_t hits = 0;
    const std::size_t num_tables = banks_.size();
    const PackedDualEntry *entries = arena_.data();
    for (std::size_t t = 0; t < num_tables; ++t) {
        const Bank &bank = banks_[t];
        const int fs = 3 * static_cast<int>(t);
        const std::uint64_t idx =
            (base_fold[bank.idx_width_slot] ^ folds_.value(fs) ^
             path_fold[bank.idx_width_slot]) &
            bank.index_mask;
        const std::uint32_t f =
            bank.offset + static_cast<std::uint32_t>(idx);
        const std::uint16_t tag = static_cast<std::uint16_t>(
            (base_fold[bank.tag_width_slot] ^ folds_.value(fs + 1) ^
             (folds_.value(fs + 2) << 1)) &
            bank.tag_mask);
        flat[t] = f;
        tags[t] = tag;
        hits |= std::uint64_t(entries[f].tag() == tag) << t;
    }

    PackedDualEntry best =
        bimodal_[XorFold(ip >> 2, config_.log_bimodal_size)];
    int provider = -1;
    for (std::uint64_t m = hits; m != 0; m &= m - 1) {
        const int t = std::countr_zero(m);
        const PackedDualEntry e = entries[flat[static_cast<std::size_t>(t)]];
        if (!confidenceBetter(best, e)) {
            best = e;
            provider = t;
        }
    }
    const bool prediction = best.numTaken() >= best.numNotTaken();

    const LookupView lv{flat, tags, hits, provider, prediction};
    applyTrain(ip, taken, lv);
    advanceHistory(ip, taken);
    lookup_.valid = false;
    return prediction;
}

json_t
Batage::metadata_stats() const
{
    json_t tables = json_t::array();
    for (const Bank &bank : banks_) {
        tables.push_back(json_t::object({
            {"log_size", bank.spec.log_size},
            {"history_length", bank.spec.history_len},
            {"tag_bits", bank.spec.tag_bits},
        }));
    }
    return json_t::object({
        {"name", "MBPlib BATAGE"},
        {"log_bimodal_size", config_.log_bimodal_size},
        {"counter_max", config_.counter_max},
        {"num_tagged_tables", std::uint64_t(banks_.size())},
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
    for (const Bank &bank : banks_) {
        bits += (std::uint64_t(1) << bank.spec.log_size) *
                std::uint64_t(dual_bits + bank.spec.tag_bits);
    }
    bits += std::uint64_t(ghist_.capacity()) + 32 + 16 /* cat */;
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
    for (std::size_t t = 0; t < banks_.size(); ++t) {
        const TageTableSpec &spec = banks_[t].spec;
        parts.push_back(ComponentInfo::table(
            "tagged_table_" + std::to_string(t),
            std::uint64_t(1) << spec.log_size,
            dual_bits + std::uint64_t(spec.tag_bits)));
    }
    parts.push_back(ComponentInfo::reg(
        "global_history", std::uint64_t(ghist_.capacity())));
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
