/**
 * @file
 * Reference predictors for differential testing.
 *
 * Each Ref* class is a deliberately naive reimplementation of a roster
 * predictor: sparse std::map tables instead of arrays, a deque of booleans
 * instead of a bitset history, an explicit chunk-by-chunk fold instead of
 * mbp::XorFold, and hand-written clamping instead of SatCounter. The two
 * implementations share no code, so a prediction-for-prediction match over
 * adversarial streams is strong evidence both are right — and a mismatch
 * pinpoints a real divergence (see oracle.hpp's runLockstep).
 *
 * The references must mirror the *roster* configurations exactly:
 * `bimodal` is Bimodal<16> and `gshare` is Gshare<15, 17> (roster.cpp).
 */
#ifndef MBP_TESTKIT_REFERENCE_HPP
#define MBP_TESTKIT_REFERENCE_HPP

#include <algorithm>
#include <array>
#include <bitset>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>

#include "mbp/sim/predictor.hpp"
#include "mbp/utils/hash.hpp"
#include "mbp/utils/sat_counter.hpp"

namespace mbp::testkit
{

namespace detail
{

/**
 * Pedestrian re-spelling of mbp::XorFold: split the value into width-bit
 * chunks with division/modulo, then XOR the chunks together. Kept slow and
 * obvious on purpose — the reference must not share the subject's code.
 */
inline std::uint64_t
foldChunks(std::uint64_t value, int width)
{
    const std::uint64_t chunk_size = std::uint64_t(1) << width;
    std::uint64_t folded = 0;
    while (value != 0) {
        folded ^= value % chunk_size;
        value /= chunk_size;
    }
    return folded;
}

} // namespace detail

/**
 * Naive bimodal oracle: prediction-for-prediction equivalent to
 * pred::Bimodal<table_bits, counter_bits>.
 */
class RefBimodal : public Predictor
{
  public:
    explicit RefBimodal(int table_bits = 16, int counter_bits = 2)
        : table_bits_(table_bits),
          min_(-(1 << (counter_bits - 1))),
          max_((1 << (counter_bits - 1)) - 1)
    {}

    bool
    predict(std::uint64_t ip) override
    {
        auto it = table_.find(index(ip));
        return (it == table_.end() ? 0 : it->second) >= 0;
    }

    void
    train(const Branch &b) override
    {
        int &c = table_[index(b.ip())];
        c = std::clamp(c + (b.isTaken() ? 1 : -1), min_, max_);
    }

    void track(const Branch &) override {}

    json_t
    metadata_stats() const override
    {
        return json_t::object({{"name", "testkit RefBimodal"},
                               {"log_table_size", table_bits_}});
    }

  private:
    std::uint64_t
    index(std::uint64_t ip) const
    {
        return detail::foldChunks(ip >> 2, table_bits_);
    }

    std::map<std::uint64_t, int> table_;
    int table_bits_;
    int min_;
    int max_;
};

/**
 * Naive GShare oracle: prediction-for-prediction equivalent to
 * pred::Gshare<history_bits, table_bits>. History is a deque of booleans
 * with the most recent outcome at the front (bit 0 of the equivalent
 * bitset), updated for every tracked branch like the subject.
 */
class RefGshare : public Predictor
{
  public:
    explicit RefGshare(int history_bits = 15, int table_bits = 17)
        : history_(std::size_t(history_bits), false),
          table_bits_(table_bits)
    {}

    bool
    predict(std::uint64_t ip) override
    {
        auto it = table_.find(index(ip));
        return (it == table_.end() ? 0 : it->second) >= 0;
    }

    void
    train(const Branch &b) override
    {
        int &c = table_[index(b.ip())];
        c = std::clamp(c + (b.isTaken() ? 1 : -1), -2, 1);
    }

    void
    track(const Branch &b) override
    {
        history_.push_front(b.isTaken());
        history_.pop_back();
    }

    json_t
    metadata_stats() const override
    {
        return json_t::object(
            {{"name", "testkit RefGshare"},
             {"history_length", std::uint64_t(history_.size())},
             {"log_table_size", table_bits_}});
    }

  private:
    std::uint64_t
    historyBits() const
    {
        std::uint64_t h = 0;
        for (std::size_t i = 0; i < history_.size(); ++i)
            if (history_[i])
                h += std::uint64_t(1) << i;
        return h;
    }

    std::uint64_t
    index(std::uint64_t ip) const
    {
        return detail::foldChunks(ip ^ historyBits(), table_bits_);
    }

    std::deque<bool> history_;
    std::map<std::uint64_t, int> table_;
    int table_bits_;
};

/**
 * TAGE-lite specification, shared verbatim by TageLite (production idiom)
 * and RefTageLite (naive oracle). A two-table TAGE skeleton: a bimodal
 * base plus one tagged component.
 *
 *  - base:   2^12 signed 2-bit counters, index XorFold(ip >> 2, 12).
 *  - tagged: 2^10 entries of {8-bit tag, signed 3-bit ctr, 1-bit useful},
 *            index XorFold(ip ^ h, 10),
 *            tag   XorFold((ip >> 10) ^ (h * 3), 8),
 *            where h is the 16-bit global history (bit 0 = most recent
 *            outcome, updated in track() for every branch).
 *  - predict: tagged provides when its stored tag equals the computed tag
 *            (the zero-initialized table "hits" tag 0 — both
 *            implementations agree on this by construction); otherwise the
 *            base counter decides. Taken iff the deciding counter >= 0.
 *  - train:  on a tag hit, update the tagged ctr; set useful to 1 when the
 *            provider disagreed with the base and was right, to 0 when it
 *            disagreed and was wrong; update the base too when the
 *            provider mispredicted. On a tag miss, update the base; if the
 *            base mispredicted, allocate the entry (tag := computed tag,
 *            ctr := weak taken/not-taken) when useful == 0, else decay
 *            useful toward 0.
 */
struct TageLite : Predictor
{
    static constexpr int kBaseBits = 12;
    static constexpr int kTagTableBits = 10;
    static constexpr int kTagBits = 8;
    static constexpr int kHistoryBits = 16;

    struct Entry
    {
        std::uint8_t tag = 0;
        i3 ctr;
        u1 useful;
    };

    std::array<i2, std::size_t(1) << kBaseBits> base{};
    std::array<Entry, std::size_t(1) << kTagTableBits> tagged{};
    std::bitset<kHistoryBits> ghist;

    std::uint64_t
    baseIndex(std::uint64_t ip) const
    {
        return XorFold(ip >> 2, kBaseBits);
    }

    std::uint64_t
    taggedIndex(std::uint64_t ip) const
    {
        return XorFold(ip ^ ghist.to_ullong(), kTagTableBits);
    }

    std::uint64_t
    tagOf(std::uint64_t ip) const
    {
        return XorFold((ip >> kTagTableBits) ^ (ghist.to_ullong() * 3),
                       kTagBits);
    }

    bool
    predict(std::uint64_t ip) override
    {
        const Entry &e = tagged[taggedIndex(ip)];
        if (e.tag == tagOf(ip))
            return e.ctr >= 0;
        return base[baseIndex(ip)] >= 0;
    }

    void
    train(const Branch &b) override
    {
        const bool taken = b.isTaken();
        Entry &e = tagged[taggedIndex(b.ip())];
        i2 &bc = base[baseIndex(b.ip())];
        const bool base_pred = bc >= 0;
        if (e.tag == tagOf(b.ip())) {
            const bool provider_pred = e.ctr >= 0;
            e.ctr.sumOrSub(taken);
            if (provider_pred != base_pred)
                e.useful.set(provider_pred == taken ? 1 : 0);
            if (provider_pred != taken)
                bc.sumOrSub(taken);
        } else {
            bc.sumOrSub(taken);
            if (base_pred != taken) {
                if (e.useful == 0) {
                    e.tag = std::uint8_t(tagOf(b.ip()));
                    e.ctr.set(taken ? 0 : -1);
                } else {
                    e.useful.sumOrSub(false);
                }
            }
        }
    }

    void
    track(const Branch &b) override
    {
        ghist <<= 1;
        ghist[0] = b.isTaken();
    }

    std::optional<ComponentInfo>
    storage_components() const override
    {
        // Tagged entries: tag + 3-bit counter + 1-bit useful.
        return ComponentInfo::composite(
            "tage_lite",
            {ComponentInfo::table("base", std::uint64_t(1) << kBaseBits, 2),
             ComponentInfo::table("tagged",
                                  std::uint64_t(1) << kTagTableBits,
                                  kTagBits + 3 + 1),
             ComponentInfo::reg("global_history", kHistoryBits)});
    }

    json_t
    metadata_stats() const override
    {
        return json_t::object({{"name", "testkit TageLite"},
                               {"base_bits", kBaseBits},
                               {"tag_table_bits", kTagTableBits},
                               {"tag_bits", kTagBits},
                               {"history_bits", kHistoryBits}});
    }
};

/** Naive oracle for TageLite; see the specification above TageLite. */
class RefTageLite : public Predictor
{
  public:
    bool
    predict(std::uint64_t ip) override
    {
        const RefEntry e = entryAt(taggedIndex(ip));
        if (e.tag == long(tagOf(ip)))
            return e.ctr >= 0;
        return baseAt(baseIndex(ip)) >= 0;
    }

    void
    train(const Branch &b) override
    {
        const bool taken = b.isTaken();
        const std::uint64_t ti = taggedIndex(b.ip());
        RefEntry &e = tagged_[ti];
        int &bc = base_[baseIndex(b.ip())];
        const bool base_pred = bc >= 0;
        if (e.tag == long(tagOf(b.ip()))) {
            const bool provider_pred = e.ctr >= 0;
            e.ctr = std::clamp(e.ctr + (taken ? 1 : -1), -4L, 3L);
            if (provider_pred != base_pred)
                e.useful = (provider_pred == taken) ? 1 : 0;
            if (provider_pred != taken)
                bc = std::clamp(bc + (taken ? 1 : -1), -2, 1);
        } else {
            bc = std::clamp(bc + (taken ? 1 : -1), -2, 1);
            if (base_pred != taken) {
                if (e.useful == 0) {
                    e.tag = long(tagOf(b.ip()));
                    e.ctr = taken ? 0 : -1;
                } else {
                    e.useful = std::max(0L, e.useful - 1);
                }
            }
        }
    }

    void
    track(const Branch &b) override
    {
        history_.push_front(b.isTaken());
        history_.pop_back();
    }

    json_t
    metadata_stats() const override
    {
        return json_t::object({{"name", "testkit RefTageLite"}});
    }

  private:
    struct RefEntry
    {
        long tag = 0;
        long ctr = 0;
        long useful = 0;
    };

    std::uint64_t
    historyBits() const
    {
        std::uint64_t h = 0;
        for (std::size_t i = 0; i < history_.size(); ++i)
            if (history_[i])
                h += std::uint64_t(1) << i;
        return h;
    }

    std::uint64_t
    baseIndex(std::uint64_t ip) const
    {
        return detail::foldChunks(ip >> 2, TageLite::kBaseBits);
    }

    std::uint64_t
    taggedIndex(std::uint64_t ip) const
    {
        return detail::foldChunks(ip ^ historyBits(),
                                  TageLite::kTagTableBits);
    }

    std::uint64_t
    tagOf(std::uint64_t ip) const
    {
        return detail::foldChunks((ip >> TageLite::kTagTableBits) ^
                                      (historyBits() * 3),
                                  TageLite::kTagBits);
    }

    RefEntry
    entryAt(std::uint64_t idx) const
    {
        auto it = tagged_.find(idx);
        return it == tagged_.end() ? RefEntry{} : it->second;
    }

    int
    baseAt(std::uint64_t idx) const
    {
        auto it = base_.find(idx);
        return it == base_.end() ? 0 : it->second;
    }

    std::deque<bool> history_ =
        std::deque<bool>(std::size_t(TageLite::kHistoryBits), false);
    std::map<std::uint64_t, int> base_;
    std::map<std::uint64_t, RefEntry> tagged_;
};

/**
 * Gshare<15, 17> with a deliberately shortened effective history: the hash
 * drops the newest history bit (`>> 1`), the classic off-by-one in history
 * length. Exists as the fuzzer's self-test subject — mbp_fuzz --self-test
 * must catch it against RefGshare and shrink a witness stream (ISSUE 4
 * acceptance criterion); it is never part of the real roster.
 */
struct BrokenGshare : Predictor
{
    std::array<i2, std::size_t(1) << 17> table{};
    std::bitset<15> ghist;

    std::uint64_t
    hash(std::uint64_t ip) const
    {
        return XorFold(ip ^ (ghist.to_ullong() >> 1), 17);
    }

    bool
    predict(std::uint64_t ip) override
    {
        return table[hash(ip)] >= 0;
    }

    void
    train(const Branch &b) override
    {
        table[hash(b.ip())].sumOrSub(b.isTaken());
    }

    void
    track(const Branch &b) override
    {
        ghist <<= 1;
        ghist[0] = b.isTaken();
    }

    json_t
    metadata_stats() const override
    {
        return json_t::object({{"name", "testkit BrokenGshare"}});
    }
};

} // namespace mbp::testkit

#endif // MBP_TESTKIT_REFERENCE_HPP
