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

#include "mbp/utils/bits.hpp"
#include "mbp/utils/hash.hpp"

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

namespace
{

// History capacity must cover the longest table even when the user supplies
// a non-monotonic series.
int
maxHistoryLength(const Tage::Config &config)
{
    int longest = 1;
    for (const TageTableSpec &spec : config.tables)
        longest = std::max(longest, spec.history_len);
    return longest;
}

} // namespace

Tage::Tage(Config config)
    : config_(std::move(config)),
      bimodal_(std::size_t(1) << config_.log_bimodal_size),
      ghist_(maxHistoryLength(config_)),
      path_(4, 8)
{
    if (config_.counter_bits < 2 ||
        config_.counter_bits > PackedTageEntry::kCounterBits)
        throw std::invalid_argument(
            "tage: counter_bits out of [2, 8] (packed counter field)");
    if (config_.useful_bits < 1 ||
        config_.useful_bits > PackedTageEntry::kCounterBits)
        throw std::invalid_argument(
            "tage: useful_bits out of [1, 8] (packed counter field)");
    validateTaggedGeometry("tage", config_.tables);
    arena_ = TaggedTableArena<PackedTageEntry>(config_.tables);
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
        bank.tag_mask = static_cast<std::uint16_t>(
            util::maskBits(spec.tag_bits));
        bank.idx_width_slot = widthSlot(spec.log_size);
        bank.tag_width_slot = widthSlot(spec.tag_bits);
        folds_.add(spec.history_len, spec.log_size);
        folds_.add(spec.history_len, spec.tag_bits);
        folds_.add(spec.history_len, spec.tag_bits - 1);
        banks_.push_back(bank);
    }
    lookup_.flat.resize(banks_.size());
    lookup_.tag.resize(banks_.size());
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

std::size_t
Tage::bimodalIndex(std::uint64_t ip) const
{
    return XorFold(ip >> 2, config_.log_bimodal_size);
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

void
Tage::computeLookup(std::uint64_t ip)
{
    lookup_.ip = ip;
    lookup_.valid = true;
    lookup_.provider = -1;
    lookup_.alt = -1;
    const std::uint64_t base = ip >> 2;
    const std::uint64_t path = path_.value();
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
    }
    // Longest hit provides; next hit (or the base) is the alternate.
    const PackedTageEntry *entries = arena_.data();
    for (int t = static_cast<int>(banks_.size()) - 1; t >= 0; --t) {
        const std::size_t ut = static_cast<std::size_t>(t);
        if (entries[lookup_.flat[ut]].tag() == lookup_.tag[ut]) {
            if (lookup_.provider < 0) {
                lookup_.provider = t;
            } else {
                lookup_.alt = t;
                break;
            }
        }
    }

    bool base_pred = bimodal_[bimodalIndex(ip)] >= 0;
    if (lookup_.provider >= 0) {
        const std::uint32_t pf =
            lookup_.flat[static_cast<std::size_t>(lookup_.provider)];
        const PackedTageEntry prov = entries[pf];
        lookup_.provider_pred = prov.ctr() >= 0;
        lookup_.alt_pred =
            lookup_.alt >= 0
                ? entries[lookup_.flat[static_cast<std::size_t>(
                              lookup_.alt)]]
                          .ctr() >= 0
                : base_pred;
        // "Newly allocated" heuristic: weak counter and no proven utility.
        lookup_.provider_is_weak =
            usefulOf(pf) == 0 && (prov.ctr() == 0 || prov.ctr() == -1);
        lookup_.prediction =
            (lookup_.provider_is_weak && use_alt_on_na_ >= 0)
                ? lookup_.alt_pred
                : lookup_.provider_pred;
    } else {
        lookup_.provider_pred = base_pred;
        lookup_.alt_pred = base_pred;
        lookup_.provider_is_weak = false;
        lookup_.prediction = base_pred;
    }
}

bool
Tage::predict(std::uint64_t ip)
{
    if (!lookup_.valid || lookup_.ip != ip)
        computeLookup(ip);
    return lookup_.prediction;
}

void
Tage::applyTrain(std::uint64_t ip, bool outcome, const LookupView &lv)
{
    sweepUsefulStep();
    const bool mispredicted = lv.prediction != outcome;
    const int num_tables = static_cast<int>(banks_.size());
    PackedTageEntry *entries = arena_.data();

    if (lv.provider >= 0)
        ++stat_provider_hits_;
    else
        ++stat_base_predictions_;

    if (lv.provider >= 0) {
        const std::uint32_t pf =
            lv.flat[static_cast<std::size_t>(lv.provider)];

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
            bimodal_[bimodalIndex(ip)].sumOrSub(outcome);
    } else {
        bimodal_[bimodalIndex(ip)].sumOrSub(outcome);
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
            if (usefulOf(lv.flat[static_cast<std::size_t>(t)]) == 0) {
                victim = t;
                break;
            }
        }
        if (victim >= 0) {
            const std::size_t uv = static_cast<std::size_t>(victim);
            entries[lv.flat[uv]].setTag(lv.tag[uv]);
            entries[lv.flat[uv]].setCtr(outcome ? 0 : -1); // weak, observed
            setUseful(lv.flat[uv], 0);
            ++stat_allocations_;
        } else {
            // Everything useful: age the candidates so future allocations
            // can succeed.
            for (int t = first; t < num_tables; ++t) {
                const std::uint32_t f =
                    lv.flat[static_cast<std::size_t>(t)];
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
    const LookupView lv{lookup_.flat.data(), lookup_.tag.data(),
                        lookup_.provider,    lookup_.alt,
                        lookup_.provider_pred, lookup_.alt_pred,
                        lookup_.prediction,  lookup_.provider_is_weak};
    applyTrain(b.ip(), b.isTaken(), lv);
    lookup_.valid = false;
}

void
Tage::advanceHistory(std::uint64_t ip, bool taken)
{
    // All 3 * num_tables folds advance in one pass over the fold set's
    // parallel arrays; each reads its evicted bit straight from the
    // history's backing words (no per-fold bounds-checked bit access).
    folds_.update(taken, ghist_.words());
    ghist_.push(taken);
    path_.push(ip);
}

void
Tage::track(const Branch &b)
{
    advanceHistory(b.ip(), b.isTaken());
    lookup_.valid = false;
}

bool
Tage::fusedStep(std::uint64_t ip, bool taken)
{
    // --- Lookup, carried in registers ---------------------------------
    // Fold the address and the path once per *distinct* width instead of
    // once per table: the default geometry shares one index width and two
    // tag widths across its eight tables, so 24 XorFolds become 6.
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
    const PackedTageEntry *entries = arena_.data();
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

    // Provider = longest (highest) hit, alternate = the next one below —
    // top two set bits of the mask, no table scan.
    const int provider = static_cast<int>(std::bit_width(hits)) - 1;
    const std::uint64_t below =
        provider >= 0 ? hits ^ (std::uint64_t(1) << provider) : 0;
    const int alt = static_cast<int>(std::bit_width(below)) - 1;

    LookupView lv{flat, tags, provider, alt, false, false, false, false};
    if (provider >= 0) {
        const PackedTageEntry prov =
            entries[flat[static_cast<std::size_t>(provider)]];
        lv.provider_pred = prov.ctr() >= 0;
        lv.alt_pred =
            alt >= 0
                ? entries[flat[static_cast<std::size_t>(alt)]].ctr() >= 0
                : bimodal_[bimodalIndex(ip)] >= 0;
        lv.provider_is_weak =
            usefulOf(flat[static_cast<std::size_t>(provider)]) == 0 &&
            (prov.ctr() == 0 || prov.ctr() == -1);
        lv.prediction = (lv.provider_is_weak && use_alt_on_na_ >= 0)
                            ? lv.alt_pred
                            : lv.provider_pred;
    } else {
        const bool base_pred = bimodal_[bimodalIndex(ip)] >= 0;
        lv.provider_pred = base_pred;
        lv.alt_pred = base_pred;
        lv.prediction = base_pred;
    }

    // --- Update + history, shared with the virtual path ---------------
    applyTrain(ip, taken, lv);
    advanceHistory(ip, taken);
    lookup_.valid = false;
    return lv.prediction;
}

json_t
Tage::metadata_stats() const
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
        {"name", "MBPlib TAGE"},
        {"log_bimodal_size", config_.log_bimodal_size},
        {"counter_bits", config_.counter_bits},
        {"useful_bits", config_.useful_bits},
        {"num_tagged_tables", std::uint64_t(banks_.size())},
        {"tables", tables},
    });
}

std::uint64_t
Tage::storageBits() const
{
    std::uint64_t bits =
        (std::uint64_t(1) << config_.log_bimodal_size) * 2;
    for (const Bank &bank : banks_) {
        bits += (std::uint64_t(1) << bank.spec.log_size) *
                std::uint64_t(config_.counter_bits + config_.useful_bits +
                              bank.spec.tag_bits);
    }
    // Global machinery: history register, path, use_alt chooser, reset
    // period counter.
    bits += std::uint64_t(ghist_.capacity()) + 32 + 4 + 32;
    return bits;
}

std::optional<ComponentInfo>
Tage::storage_components() const
{
    std::vector<ComponentInfo> parts;
    parts.push_back(ComponentInfo::table(
        "bimodal", std::uint64_t(1) << config_.log_bimodal_size, 2));
    for (std::size_t t = 0; t < banks_.size(); ++t) {
        const TageTableSpec &spec = banks_[t].spec;
        parts.push_back(ComponentInfo::table(
            "tagged_table_" + std::to_string(t),
            std::uint64_t(1) << spec.log_size,
            std::uint64_t(config_.counter_bits + config_.useful_bits +
                          spec.tag_bits)));
    }
    parts.push_back(ComponentInfo::reg(
        "global_history", std::uint64_t(ghist_.capacity())));
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
