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
    : config_(std::move(config)),
      history_("tage", config_.tables, config_.log_bimodal_size),
      bimodal_(std::size_t(1) << config_.log_bimodal_size),
      arena_(history_.numEntries())
{
    if (config_.counter_bits < 2 ||
        config_.counter_bits > PackedTageEntry::kCounterBits)
        throw std::invalid_argument(
            "tage: counter_bits out of [2, 8] (packed counter field)");
    if (config_.useful_bits < 1 ||
        config_.useful_bits > PackedTageEntry::kCounterBits)
        throw std::invalid_argument(
            "tage: useful_bits out of [1, 8] (packed counter field)");
    lookup_.flat.resize(history_.numBanks());
    lookup_.tag.resize(history_.numBanks());
    u_swept_.assign((arena_.size() + 63) / 64, 0);
    // Size the background sweep so one full pass always completes within
    // one reset period: ceil(entries / period) entries per train.
    u_sweep_step_ =
        config_.u_reset_period == 0
            ? arena_.size()
            : (arena_.size() + config_.u_reset_period - 1) /
                  config_.u_reset_period;
    if (u_sweep_step_ == 0)
        u_sweep_step_ = 1;
}

int
Tage::usefulOf(std::uint32_t flat) const
{
    int useful = arena_[flat].useful();
    // An entry the background sweep has not reached yet still carries the
    // pre-reset value; apply the pending clear on the fly so every read
    // sees exactly what the eager boundary sweep would have stored.
    if (u_sweep_active_ && !usefulSwept(flat))
        useful &= u_clear_mask_;
    return useful;
}

void
Tage::setUseful(std::uint32_t flat, int value)
{
    arena_[flat].setUseful(value);
    if (u_sweep_active_)
        markUsefulSwept(flat);
}

void
Tage::sweepUsefulStep()
{
    if (!u_sweep_active_)
        return;
    const std::uint32_t total = arena_.size();
    const std::uint32_t end =
        std::min(total, u_sweep_pos_ + u_sweep_step_);
    for (std::uint32_t pos = u_sweep_pos_; pos < end; ++pos) {
        if (!usefulSwept(pos)) {
            arena_[pos].setUseful(arena_[pos].useful() & u_clear_mask_);
            markUsefulSwept(pos);
        }
    }
    u_sweep_pos_ = end;
    if (end >= total)
        u_sweep_active_ = false;
}

void
Tage::finishUsefulSweep()
{
    if (!u_sweep_active_)
        return;
    const std::uint32_t total = arena_.size();
    for (std::uint32_t pos = u_sweep_pos_; pos < total; ++pos) {
        if (!usefulSwept(pos))
            arena_[pos].setUseful(arena_[pos].useful() & u_clear_mask_);
    }
    u_sweep_active_ = false;
}

void
Tage::startUsefulReset(std::uint8_t clear_mask)
{
    // A sweep still in flight is only possible when the period is shorter
    // than the sweep needs (u_sweep_step_ prevents it otherwise); retire
    // it before arming the new one so pending masks never stack.
    finishUsefulSweep();
    u_clear_mask_ = clear_mask;
    u_sweep_active_ = true;
    u_sweep_pos_ = 0;
    std::fill(u_swept_.begin(), u_swept_.end(), 0);
}

Tage::Resolved
Tage::resolve(const std::uint32_t *flat, std::uint64_t hits,
              std::uint32_t bimodal) const
{
    const PackedTageEntry *entries = arena_.data();
    // Provider = longest (highest) hit, alternate = the next one below —
    // top two set bits of the mask, no table scan.
    Resolved r;
    r.bimodal = bimodal;
    r.provider = static_cast<int>(std::bit_width(hits)) - 1;
    const std::uint64_t below =
        r.provider >= 0 ? hits ^ (std::uint64_t(1) << r.provider) : 0;
    r.alt = static_cast<int>(std::bit_width(below)) - 1;

    const bool base_pred = bimodal_[bimodal] >= 0;
    if (r.provider >= 0) {
        const std::uint32_t pf = flat[static_cast<std::size_t>(r.provider)];
        const PackedTageEntry prov = entries[pf];
        r.provider_pred = prov.ctr() >= 0;
        r.alt_pred =
            r.alt >= 0
                ? entries[flat[static_cast<std::size_t>(r.alt)]].ctr() >= 0
                : base_pred;
        // "Newly allocated" heuristic: weak counter and no proven utility.
        r.provider_is_weak =
            usefulOf(pf) == 0 && (prov.ctr() == 0 || prov.ctr() == -1);
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
Tage::computeLookup(std::uint64_t ip)
{
    lookup_.ip = ip;
    lookup_.valid = true;
    history_.lookup(ip, lookup_.flat.data(), lookup_.tag.data());
    lookup_.resolved = resolve(
        lookup_.flat.data(),
        history_.hits(arena_.data(), lookup_.flat.data(), lookup_.tag.data()),
        history_.bimodalIndex(ip));
}

bool
Tage::predict(std::uint64_t ip)
{
    if (!lookup_.valid || lookup_.ip != ip)
        computeLookup(ip);
    return lookup_.resolved.prediction;
}

void
Tage::applyTrain(const std::uint32_t *flat, const std::uint16_t *tags,
                 const Resolved &lv, bool outcome)
{
    sweepUsefulStep();
    const bool mispredicted = lv.prediction != outcome;
    const int num_tables = static_cast<int>(history_.numBanks());
    PackedTageEntry *entries = arena_.data();

    if (lv.provider >= 0)
        ++stat_provider_hits_;
    else
        ++stat_base_predictions_;

    if (lv.provider >= 0) {
        const std::uint32_t pf =
            flat[static_cast<std::size_t>(lv.provider)];

        // use_alt_on_na chooser: when the provider looked newly allocated
        // and the two predictions differed, learn which one to trust.
        if (lv.provider_is_weak && lv.provider_pred != lv.alt_pred)
            use_alt_on_na_.sumOrSub(lv.alt_pred == outcome);

        // Prediction counter, clamped to the configured width.
        int v = entries[pf].ctr() + (outcome ? 1 : -1);
        entries[pf].setCtr(std::max(ctrMin(), std::min(ctrMax(), v)));

        // Useful counter: the provider proved (un)helpful vs the alternate.
        if (lv.provider_pred != lv.alt_pred) {
            const int useful = usefulOf(pf);
            if (lv.provider_pred == outcome) {
                if (useful < uMax())
                    setUseful(pf, useful + 1);
            } else if (useful > 0) {
                setUseful(pf, useful - 1);
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
            if (usefulOf(flat[static_cast<std::size_t>(t)]) == 0) {
                victim = t;
                break;
            }
        }
        if (victim >= 0) {
            const std::size_t uv = static_cast<std::size_t>(victim);
            entries[flat[uv]].setTag(tags[uv]);
            entries[flat[uv]].setCtr(outcome ? 0 : -1); // weak, observed
            setUseful(flat[uv], 0);
            ++stat_allocations_;
        } else {
            // Everything useful: age the candidates so future allocations
            // can succeed.
            for (int t = first; t < num_tables; ++t) {
                const std::uint32_t f =
                    flat[static_cast<std::size_t>(t)];
                const int useful = usefulOf(f);
                if (useful > 0)
                    setUseful(f, useful - 1);
            }
            ++stat_alloc_failures_;
        }
    }

    // Graceful useful reset: periodically clear alternating halves of the
    // useful counters so stale entries do not block allocation forever.
    // Amortized: the boundary arms a pending clear mask that the per-train
    // background sweep (sweepUsefulStep) retires — no full-table spike.
    if (++branch_counter_ >= config_.u_reset_period) {
        branch_counter_ = 0;
        int bit = reset_msb_next_ ? config_.useful_bits - 1 : 0;
        reset_msb_next_ = !reset_msb_next_;
        startUsefulReset(static_cast<std::uint8_t>(~(1u << bit)));
    }
}

void
Tage::train(const Branch &b)
{
    if (!lookup_.valid || lookup_.ip != b.ip())
        computeLookup(b.ip());
    applyTrain(lookup_.flat.data(), lookup_.tag.data(), lookup_.resolved,
               b.isTaken());
    lookup_.valid = false;
}

void
Tage::track(const Branch &b)
{
    history_.push(b.ip(), b.isTaken());
    lookup_.valid = false;
}

void
Tage::indexRows(const sbbt::BranchColumns &columns, std::size_t begin,
                std::size_t end, bool track_all)
{
    lookup_.valid = false;
    history_.indexRows(columns, begin, end, track_all);
}

bool
Tage::stepIndexed(std::size_t j, std::uint64_t, bool taken)
{
    const std::uint32_t *flat = history_.flat(j);
    const std::uint16_t *tags = history_.tags(j);
    const Resolved r =
        resolve(flat, history_.hits(arena_.data(), j), history_.bimodal(j));
    applyTrain(flat, tags, r, taken);
    return r.prediction;
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

std::uint64_t
Tage::storageBits() const
{
    std::uint64_t bits =
        (std::uint64_t(1) << config_.log_bimodal_size) * 2;
    for (const TageTableSpec &spec : config_.tables) {
        bits += (std::uint64_t(1) << spec.log_size) *
                std::uint64_t(config_.counter_bits + config_.useful_bits +
                              spec.tag_bits);
    }
    // Global machinery: history register, path, use_alt chooser, reset
    // period counter.
    bits += std::uint64_t(history_.historyBits()) + 32 + 4 + 32;
    return bits;
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
