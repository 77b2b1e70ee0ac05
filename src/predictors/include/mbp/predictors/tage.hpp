/**
 * @file
 * The TAGE predictor (Seznec & Michaud 2006, "A case for (partially)
 * TAgged GEometric history length branch prediction").
 *
 * TAGE is a bimodal base predictor plus a set of partially tagged tables
 * indexed with geometrically growing global-history lengths. The prediction
 * comes from the hitting table with the longest history (the *provider*);
 * the next hit (or the base) is the *alternate* prediction. Useful counters
 * protect entries that have proven better than their alternate, and new
 * entries are allocated on mispredictions in longer-history tables.
 *
 * As the paper highlights (§V), every parameter is user-selectable: the
 * predictor is configured at runtime with one TableSpec per tagged table,
 * and the configuration is echoed in metadata_stats().
 *
 * Storage-wise all tagged tables live in one flat, 64-byte-aligned arena
 * of packed 4-byte entries (mbp/predictors/tage_arena.hpp). Everything
 * else TAGE shares with BATAGE — the TaggedHistory with its global and
 * path histories and bank folds, the bimodal base, the lookup memo,
 * predict/train/track, and the two-phase block steps (KernelTwoPhase in
 * mbp/sim/kernels.hpp) — is their common TaggedFrame
 * (mbp/predictors/tagged_history.hpp). This file holds only what is
 * TAGE's own: how the provider and alternate resolve a prediction, and
 * how the tables, the use_alt_on_na chooser and the periodic useful
 * reset learn from the outcome. The conformance suite pins the block
 * path to the virtual one for the full roster.
 */
#ifndef MBP_PREDICTORS_TAGE_HPP
#define MBP_PREDICTORS_TAGE_HPP

#include <cstdint>
#include <vector>

#include "mbp/predictors/tage_arena.hpp"
#include "mbp/predictors/tagged_history.hpp"
#include "mbp/sim/predictor.hpp"
#include "mbp/utils/sat_counter.hpp"

namespace mbp::pred
{

/** A TAGE lookup's outcome: what the update needs beside the banks'
 *  flat indexes and tags (TaggedFrame's Resolved). */
struct TageResolved
{
    int provider = -1; //!< table index of the longest hit, -1 = base
    int alt = -1;      //!< next hit, -1 = base
    bool provider_pred = false;
    bool alt_pred = false;
    bool prediction = false;
    bool provider_is_weak = false; //!< newly-allocated heuristic
    std::uint32_t bimodal = 0;     //!< the bimodal base's index
};

class Tage;
using TageFrame =
    TaggedFrame<Tage, PackedTageEntry, SatCounter<2>, TageResolved>;

/** TAGE with runtime-chosen geometry. */
class Tage : public TageFrame
{
  public:
    /** Full predictor configuration. */
    struct Config
    {
        int log_bimodal_size = 14;
        int counter_bits = 3; //!< tagged-table prediction counter width
        int useful_bits = 2;  //!< useful counter width
        /** Branches between graceful useful-counter resets. */
        std::uint32_t u_reset_period = 1u << 18;
        std::vector<TageTableSpec> tables;

        /**
         * The default geometry: @p num_tables tables with history lengths
         * growing geometrically from @p min_hist to @p max_hist (the
         * classic TAGE series), ~64 kB total.
         */
        static Config geometric(int num_tables = 8, int min_hist = 4,
                                int max_hist = 232, int log_size = 10,
                                int tag_bits = 10);
    };

    /** @throw std::invalid_argument on geometry the packed entry layout
     *  cannot hold (tag wider than 16 bits, counters wider than 8, more
     *  than 64 tables) or out of the bounds of validateTaggedGeometry. */
    explicit Tage(Config config = Config::geometric());

    json_t metadata_stats() const override;
    json_t execution_stats() const override;
    std::optional<ComponentInfo> storage_components() const override;

  private:
    friend TageFrame;

    /** Provider, alternate and prediction from the tables, for a branch
     *  whose banks index @p flat, of which @p hits matched its tags. */
    TageResolved resolve(const std::uint32_t *flat, std::uint64_t hits,
                         std::uint32_t bimodal) const;
    void applyTrain(const std::uint32_t *flat, const std::uint16_t *tags,
                    const TageResolved &r, bool outcome);
    int ctrMax() const { return (1 << (config_.counter_bits - 1)) - 1; }
    int ctrMin() const { return -(1 << (config_.counter_bits - 1)); }
    int uMax() const { return (1 << config_.useful_bits) - 1; }

    Config config_;
    SatCounter<4> use_alt_on_na_; //!< chooser for newly allocated entries
    std::uint32_t branch_counter_ = 0;
    bool reset_msb_next_ = true;
    // Statistics for execution_stats().
    std::uint64_t stat_allocations_ = 0;
    std::uint64_t stat_alloc_failures_ = 0;
    std::uint64_t stat_provider_hits_ = 0;
    std::uint64_t stat_base_predictions_ = 0;
};

} // namespace mbp::pred

#endif // MBP_PREDICTORS_TAGE_HPP
