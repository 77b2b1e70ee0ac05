/**
 * @file
 * The BATAGE predictor (Michaud 2018, "An alternative TAGE-like conditional
 * branch predictor").
 *
 * BATAGE keeps TAGE's tagged geometric-history tables but replaces the
 * prediction counter + useful bit of each entry with a *dual counter*
 * (#taken, #not-taken), from which a confidence level is derived directly:
 * the estimated misprediction probability of an entry is
 * (min + 1) / (taken + not_taken + 2). The prediction comes from the
 * hitting entry with the best (lowest) estimate, which naturally arbitrates
 * between histories — no use_alt_on_na chooser, no useful-bit reset.
 * Allocation is governed by Controlled Allocation Throttling (CAT): a
 * global counter that slows allocation down when recently allocated entries
 * keep evicting high-confidence ones, plus probabilistic decay of skipped
 * entries.
 *
 * This reproduction implements those mechanisms as described in the paper
 * cited above; it is behaviour-faithful rather than bit-exact with the
 * author's released code. Like the original, it needs random numbers
 * (drawn from a deterministic Lfsr so simulations stay reproducible).
 *
 * Storage follows the TAGE fast path (mbp/predictors/tage_arena.hpp): all
 * tagged tables share one flat 64-byte-aligned arena of packed 4-byte
 * entries. BATAGE steps in the same TaggedFrame as TAGE
 * (mbp/predictors/tagged_history.hpp), which owns the history, the
 * tables, the lookup memo and the two-phase block steps; this file holds
 * only the dual-counter lookup rule and the CAT update, with the hit set
 * carried as a 64-bit mask.
 */
#ifndef MBP_PREDICTORS_BATAGE_HPP
#define MBP_PREDICTORS_BATAGE_HPP

#include <cstdint>
#include <vector>

#include "mbp/predictors/tage.hpp" // Tage::Config::geometric
#include "mbp/predictors/tagged_history.hpp"
#include "mbp/sim/predictor.hpp"

namespace mbp::pred
{

/** A BATAGE lookup's outcome beside the banks' flat indexes and tags
 *  (TaggedFrame's Resolved). */
struct BatageResolved
{
    std::uint64_t hits = 0; //!< bit t set = table t tag-matched
    int provider = -1;      //!< chosen table, -1 = bimodal base
    bool prediction = false;
    std::uint32_t bimodal = 0; //!< the bimodal base's index
};

class Batage;
/** The bimodal base holds dual counters too (tag unused). */
using BatageFrame =
    TaggedFrame<Batage, PackedDualEntry, PackedDualEntry, BatageResolved>;

/** BATAGE with runtime-chosen geometry. */
class Batage : public BatageFrame
{
  public:
    /** Full predictor configuration. */
    struct Config
    {
        int log_bimodal_size = 14;
        int counter_max = 7; //!< dual counters saturate here (3 bits)
        /** CAT parameters: allocation is throttled as cat approaches max. */
        int cat_max = 65535;
        int cat_inc = 16; //!< added when allocation evicts useful entries
        int cat_dec = 1;  //!< subtracted on successful clean allocation
        std::vector<TageTableSpec> tables;

        /** Default geometry mirroring Tage::Config::geometric. */
        static Config geometric(int num_tables = 8, int min_hist = 4,
                                int max_hist = 232, int log_size = 10,
                                int tag_bits = 10);
    };

    /** @throw std::invalid_argument on geometry the packed entry layout
     *  cannot hold (see validateTaggedGeometry; also counter_max > 255). */
    explicit Batage(Config config = Config::geometric());

    json_t metadata_stats() const override;
    json_t execution_stats() const override;
    std::optional<ComponentInfo> storage_components() const override;

  private:
    friend BatageFrame;

    /** The most confident of the base and the hits, for a branch whose
     *  banks index @p flat, of which @p hits matched its tags. */
    BatageResolved resolve(const std::uint32_t *flat, std::uint64_t hits,
                           std::uint32_t bimodal) const;
    void applyTrain(const std::uint32_t *flat, const std::uint16_t *tags,
                    const BatageResolved &r, bool outcome);
    /** Dual-counter update rule with decay at saturation. */
    void bump(PackedDualEntry &e, bool outcome) const;
    /** Confidence rank: lower is better; cross-multiplied comparison. */
    static bool confidenceBetter(PackedDualEntry a, PackedDualEntry b);
    /** High-confidence test used by CAT: strong and unanimous counters. */
    bool isHighConfidence(PackedDualEntry e) const;

    Config config_;
    int cat_ = 0;
    // Statistics.
    std::uint64_t stat_allocations_ = 0;
    std::uint64_t stat_throttled_ = 0;
    std::uint64_t stat_decays_ = 0;
};

} // namespace mbp::pred

#endif // MBP_PREDICTORS_BATAGE_HPP
