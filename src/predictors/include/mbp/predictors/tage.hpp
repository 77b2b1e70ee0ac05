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
 * of packed 4-byte entries (mbp/predictors/tage_arena.hpp), and the
 * history half — global and path histories, bank folds, bank geometry —
 * is the family's shared TaggedHistory (mbp/predictors/tagged_history.hpp).
 * The block kernels step the predictor in two phases
 * (KernelTwoPhase in mbp/sim/kernels.hpp): indexRows() computes every
 * bank's index and tag for a chunk of rows from the trace alone, then
 * stepIndexed() runs predict+train per conditional row on the tables.
 * Both are exactly equivalent to the virtual path — the conformance
 * suite pins the identity for the full roster.
 */
#ifndef MBP_PREDICTORS_TAGE_HPP
#define MBP_PREDICTORS_TAGE_HPP

#include <cstdint>
#include <vector>

#include "mbp/predictors/tage_arena.hpp"
#include "mbp/predictors/tagged_history.hpp"
#include "mbp/sbbt/mem_trace.hpp"
#include "mbp/sim/predictor.hpp"
#include "mbp/utils/lfsr.hpp"
#include "mbp/utils/sat_counter.hpp"

namespace mbp::pred
{

/** TAGE with runtime-chosen geometry. */
class Tage : public Predictor
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

    bool predict(std::uint64_t ip) override;
    void train(const Branch &b) override;
    void track(const Branch &b) override;

    /** Rows one indexRows() call covers at most (KernelTwoPhase). */
    static constexpr std::size_t kIndexRows = TaggedHistory::kChunkRows;

    /**
     * Phase 1 (KernelTwoPhase): every bank's index and tag for the
     * conditional rows of [@p begin, @p end), and the history pushes of
     * the rows track() would see (TaggedHistory::indexRows).
     */
    void indexRows(const sbbt::BranchColumns &columns, std::size_t begin,
                   std::size_t end, bool track_all);

    /**
     * Phase 2 for the @p j -th conditional row of the last indexRows()
     * chunk, with outcome @p taken: exactly predict(ip); train(b);
     * track(b) for that branch — its history push was phase 1's.
     * Returns the prediction.
     */
    bool stepIndexed(std::size_t j, std::uint64_t ip, bool taken);

    /** Phase 2 of track() for a row that is not conditional: nothing,
     *  since its history push was phase 1's. */
    void trackIndexed(const Branch &) {}

    json_t metadata_stats() const override;
    json_t execution_stats() const override;
    std::uint64_t storageBits() const override;
    std::optional<ComponentInfo> storage_components() const override;

  private:
    /** A lookup's outcome: what the update step needs beside the banks'
     *  flat indexes and tags. */
    struct Resolved
    {
        int provider = -1; //!< table index of the longest hit, -1 = base
        int alt = -1;      //!< next hit, -1 = base
        bool provider_pred = false;
        bool alt_pred = false;
        bool prediction = false;
        bool provider_is_weak = false; //!< newly-allocated heuristic
        std::uint32_t bimodal = 0;     //!< the bimodal base's index
    };

    /** Everything predict() computes that train() needs again. */
    struct Lookup
    {
        std::uint64_t ip = ~std::uint64_t(0);
        std::vector<std::uint32_t> flat; //!< per-table flat arena index
        std::vector<std::uint16_t> tag;  //!< per-table computed tag
        Resolved resolved;
        bool valid = false;
    };

    void computeLookup(std::uint64_t ip);
    /** Provider, alternate and prediction from the tables, for a branch
     *  whose banks index @p flat, of which @p hits matched its tags. */
    Resolved resolve(const std::uint32_t *flat, std::uint64_t hits,
                     std::uint32_t bimodal) const;
    void applyTrain(const std::uint32_t *flat, const std::uint16_t *tags,
                    const Resolved &r, bool outcome);
    int ctrMax() const { return (1 << (config_.counter_bits - 1)) - 1; }
    int ctrMin() const { return -(1 << (config_.counter_bits - 1)); }
    int uMax() const { return (1 << config_.useful_bits) - 1; }

    // The graceful useful reset, amortized: instead of sweeping every
    // entry at the period boundary (a latency spike proportional to the
    // predictor size), the boundary only records the bit to clear and a
    // background sweep retires a few entries per train. Reads of a
    // not-yet-swept entry apply the pending mask on the fly, so observable
    // useful values are identical to the eager sweep at every branch.
    int usefulOf(std::uint32_t flat) const;
    void setUseful(std::uint32_t flat, int value);
    void sweepUsefulStep();
    void startUsefulReset(std::uint8_t clear_mask);
    void finishUsefulSweep();
    bool
    usefulSwept(std::uint32_t flat) const
    {
        return ((u_swept_[flat >> 6] >> (flat & 63)) & 1) != 0;
    }
    void
    markUsefulSwept(std::uint32_t flat)
    {
        u_swept_[flat >> 6] |= std::uint64_t(1) << (flat & 63);
    }

    Config config_;
    TaggedHistory history_; //!< first: validates before the tables size
    std::vector<SatCounter<2>> bimodal_;
    TaggedTableArena<PackedTageEntry> arena_;
    Lfsr rng_;
    Lookup lookup_;
    SatCounter<4> use_alt_on_na_; //!< chooser for newly allocated entries
    std::uint32_t branch_counter_ = 0;
    bool reset_msb_next_ = true;
    // Incremental useful-reset state (see above).
    bool u_sweep_active_ = false;
    std::uint8_t u_clear_mask_ = 0xff; //!< AND-mask pending on unswept
    std::uint32_t u_sweep_pos_ = 0;
    std::uint32_t u_sweep_step_ = 0;  //!< entries retired per train
    std::vector<std::uint64_t> u_swept_; //!< 1 bit per arena entry
    // Statistics for execution_stats().
    std::uint64_t stat_allocations_ = 0;
    std::uint64_t stat_alloc_failures_ = 0;
    std::uint64_t stat_provider_hits_ = 0;
    std::uint64_t stat_base_predictions_ = 0;
};

} // namespace mbp::pred

#endif // MBP_PREDICTORS_TAGE_HPP
