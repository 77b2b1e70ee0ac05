/**
 * @file
 * The two-level adaptive predictor family (Yeh & Patt 1992).
 *
 * A two-level predictor keeps (level 1) branch-history registers and
 * (level 2) pattern-history tables of saturating counters indexed by the
 * history. Yeh & Patt's taxonomy names the variants XAy where X says how
 * histories are kept (G = one global register, P = per-address, S = per-set)
 * and y says how pattern tables are kept (g = one global table, p =
 * per-address, s = per-set). One template implements the nine variants
 * (paper Table II lists "all versions of Two Level: GAg, GAs, PAs, SAp,
 * etc.").
 */
#ifndef MBP_PREDICTORS_TWO_LEVEL_HPP
#define MBP_PREDICTORS_TWO_LEVEL_HPP

#include <vector>

#include "mbp/sim/predictor.hpp"
#include "mbp/utils/bits.hpp"
#include "mbp/utils/hash.hpp"
#include "mbp/utils/sat_counter.hpp"

namespace mbp::pred
{

/** How the first-level branch histories are associated to branches. */
enum class HistScope { kGlobal, kPerAddress, kPerSet };
/** How the second-level pattern tables are associated to branches. */
enum class PatternScope { kGlobal, kPerAddress, kPerSet };

namespace detail
{
constexpr const char *
histScopeName(HistScope s)
{
    switch (s) {
      case HistScope::kGlobal: return "G";
      case HistScope::kPerAddress: return "P";
      case HistScope::kPerSet: return "S";
    }
    return "?";
}

constexpr const char *
patternScopeName(PatternScope s)
{
    switch (s) {
      case PatternScope::kGlobal: return "g";
      case PatternScope::kPerAddress: return "p";
      case PatternScope::kPerSet: return "s";
    }
    return "?";
}
} // namespace detail

/**
 * Two-level adaptive predictor.
 *
 * @tparam L1       First-level history scope (G/P/S).
 * @tparam L2       Second-level pattern-table scope (g/p/s).
 * @tparam H        History register length in bits.
 * @tparam LogBht   Log2 of the number of level-1 history registers
 *                  (ignored for a global history).
 * @tparam LogPht   Log2 of the number of level-2 pattern tables
 *                  (ignored for a global pattern table).
 * @tparam B        Counter width.
 */
template <HistScope L1, PatternScope L2, int H = 12, int LogBht = 10,
          int LogPht = 4, int B = 2>
class TwoLevel : public Predictor
{
  public:
    TwoLevel()
        : histories_(L1 == HistScope::kGlobal ? 1
                                              : std::size_t(1) << LogBht,
                     0),
          tables_(L2 == PatternScope::kGlobal ? 1 : std::size_t(1) << LogPht,
                  std::vector<SatCounter<B>>(std::size_t(1) << H))
    {}

    bool
    predict(std::uint64_t ip) override
    {
        return counterFor(ip) >= 0;
    }

    void
    train(const Branch &b) override
    {
        counterFor(b.ip()).sumOrSub(b.isTaken());
        // Per-address/per-set histories are part of the first level's
        // prediction structures and are updated on training.
        if (L1 != HistScope::kGlobal)
            pushHistory(historyFor(b.ip()), b.isTaken());
    }

    void
    track(const Branch &b) override
    {
        if (L1 == HistScope::kGlobal)
            pushHistory(histories_[0], b.isTaken());
    }

    std::optional<ComponentInfo>
    storage_components() const override
    {
        return ComponentInfo::composite(
            "two_level",
            {ComponentInfo::table("branch_histories", histories_.size(),
                                  H),
             ComponentInfo::table("pattern_counters",
                                  tables_.size() *
                                      (std::uint64_t(1) << H),
                                  B)});
    }

    json_t
    metadata_stats() const override
    {
        std::string name = std::string("MBPlib TwoLevel ") +
                           detail::histScopeName(L1) + "A" +
                           detail::patternScopeName(L2);
        return json_t::object({
            {"name", name},
            {"history_length", H},
            {"log_num_histories",
             L1 == HistScope::kGlobal ? 0 : LogBht},
            {"log_num_pattern_tables",
             L2 == PatternScope::kGlobal ? 0 : LogPht},
            {"counter_bits", B},
        });
    }

  private:
    static void
    pushHistory(std::uint64_t &h, bool taken)
    {
        h = ((h << 1) | (taken ? 1 : 0)) & util::maskBits(H);
    }

    std::uint64_t &
    historyFor(std::uint64_t ip)
    {
        switch (L1) {
          case HistScope::kGlobal:
            return histories_[0];
          case HistScope::kPerAddress:
            return histories_[XorFold(ip >> 2, LogBht)];
          case HistScope::kPerSet:
            // Sets are low-order address bits above the alignment bits, so
            // neighboring branches share a history register.
            return histories_[(ip >> 4) & util::maskBits(LogBht)];
        }
        return histories_[0]; // unreachable
    }

    SatCounter<B> &
    counterFor(std::uint64_t ip)
    {
        std::uint64_t h = historyFor(ip);
        std::size_t which = 0;
        switch (L2) {
          case PatternScope::kGlobal:
            which = 0;
            break;
          case PatternScope::kPerAddress:
            which = XorFold(ip >> 2, LogPht);
            break;
          case PatternScope::kPerSet:
            which = (ip >> 4) & util::maskBits(LogPht);
            break;
        }
        return tables_[which][h];
    }

    std::vector<std::uint64_t> histories_;
    std::vector<std::vector<SatCounter<B>>> tables_;
};

// The named variants from the Yeh-Patt papers.
template <int H = 16, int B = 2>
using GAg = TwoLevel<HistScope::kGlobal, PatternScope::kGlobal, H, 0, 0, B>;
template <int H = 13, int LogPht = 4, int B = 2>
using GAs =
    TwoLevel<HistScope::kGlobal, PatternScope::kPerSet, H, 0, LogPht, B>;
template <int H = 12, int LogBht = 10, int B = 2>
using PAg =
    TwoLevel<HistScope::kPerAddress, PatternScope::kGlobal, H, LogBht, 0, B>;
template <int H = 10, int LogBht = 10, int LogPht = 6, int B = 2>
using PAs = TwoLevel<HistScope::kPerAddress, PatternScope::kPerSet, H,
                     LogBht, LogPht, B>;
template <int H = 10, int LogBht = 10, int LogPht = 6, int B = 2>
using PAp = TwoLevel<HistScope::kPerAddress, PatternScope::kPerAddress, H,
                     LogBht, LogPht, B>;
template <int H = 12, int LogBht = 8, int B = 2>
using SAg =
    TwoLevel<HistScope::kPerSet, PatternScope::kGlobal, H, LogBht, 0, B>;
template <int H = 10, int LogBht = 8, int LogPht = 6, int B = 2>
using SAp = TwoLevel<HistScope::kPerSet, PatternScope::kPerAddress, H,
                     LogBht, LogPht, B>;

} // namespace mbp::pred

#endif // MBP_PREDICTORS_TWO_LEVEL_HPP
