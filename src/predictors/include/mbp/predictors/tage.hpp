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
 * predictor offers the fused fast path the kernels consume
 * (KernelFusedStep in mbp/sim/kernels.hpp): fusedStep() runs
 * predict+train+track as one pass that computes each table's index/tag
 * once and keeps the whole lookup in registers. It is exactly equivalent
 * to the virtual path — the conformance suite pins the identity for the
 * full roster.
 */
#ifndef MBP_PREDICTORS_TAGE_HPP
#define MBP_PREDICTORS_TAGE_HPP

#include <cstdint>
#include <vector>

#include "mbp/predictors/tage_arena.hpp"
#include "mbp/sim/predictor.hpp"
#include "mbp/utils/history.hpp"
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
     *  than 64 tables). */
    explicit Tage(Config config = Config::geometric());

    bool predict(std::uint64_t ip) override;
    void train(const Branch &b) override;
    void track(const Branch &b) override;

    /**
     * Fused conditional-branch step (KernelFusedStep): exactly
     * predict(ip); train(b); track(b) for a conditional branch with
     * outcome @p taken, returning the prediction. One pass computes every
     * table's index and tag, collects the hits into a bitmask, and
     * selects provider/alternate branchlessly from it.
     */
    bool fusedStep(std::uint64_t ip, bool taken);

    json_t metadata_stats() const override;
    json_t execution_stats() const override;
    std::uint64_t storageBits() const override;
    std::optional<ComponentInfo> storage_components() const override;

  private:
    /** Per-table metadata over the flat entry arena. The bank's three
     *  history folds live in folds_ at slots 3t / 3t+1 / 3t+2
     *  (index fold, tag fold, width-minus-one tag fold). */
    struct Bank
    {
        TageTableSpec spec;
        std::uint32_t offset = 0;     //!< flat index of the bank's entry 0
        std::uint32_t index_mask = 0; //!< (1 << log_size) - 1
        std::uint16_t tag_mask = 0;   //!< (1 << tag_bits) - 1
        std::uint8_t idx_width_slot = 0; //!< fold_widths_ slot of log_size
        std::uint8_t tag_width_slot = 0; //!< fold_widths_ slot of tag_bits
    };

    /** Everything predict() computes that train() needs again. */
    struct Lookup
    {
        std::uint64_t ip = ~std::uint64_t(0);
        int provider = -1; //!< table index of the longest hit, -1 = base
        int alt = -1;      //!< next hit, -1 = base
        std::vector<std::uint32_t> flat; //!< per-table flat arena index
        std::vector<std::uint16_t> tag;  //!< per-table computed tag
        bool provider_pred = false;
        bool alt_pred = false;
        bool prediction = false;
        bool provider_is_weak = false; //!< newly-allocated heuristic
        bool valid = false;
    };

    /** A lookup result as the update step consumes it — either borrowed
     *  from the memoized Lookup (virtual path) or carried on the stack
     *  (fused path), so train() and fusedStep() share one update body. */
    struct LookupView
    {
        const std::uint32_t *flat;
        const std::uint16_t *tag;
        int provider;
        int alt;
        bool provider_pred;
        bool alt_pred;
        bool prediction;
        bool provider_is_weak;
    };

    void computeLookup(std::uint64_t ip);
    void applyTrain(std::uint64_t ip, bool outcome, const LookupView &lv);
    void advanceHistory(std::uint64_t ip, bool taken);
    std::size_t bimodalIndex(std::uint64_t ip) const;
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
    std::vector<SatCounter<2>> bimodal_;
    TaggedTableArena<PackedTageEntry> arena_;
    std::vector<Bank> banks_;
    std::vector<int> fold_widths_; //!< distinct index/tag fold widths
    FoldedHistorySet folds_;       //!< 3 folds per bank, slots 3t + k
    GlobalHistory ghist_;
    PathHistory path_;
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
