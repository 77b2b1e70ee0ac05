/**
 * @file
 * The history half of a TAGE-family predictor (TAGE, BATAGE, and
 * TAGE-SC-L through its inner TAGE), shared by all of them: the global
 * and path histories, the three folds per tagged bank, and the bank
 * geometry that turns them into each bank's flat arena index and tag.
 *
 * In a trace-driven run the histories depend on the trace alone — they
 * are pushed with the resolved outcome and the address, never with a
 * prediction — so every bank's index and tag for every branch is known
 * before any table is read. A block kernel therefore steps the family in
 * two phases (mbp::KernelTwoPhase in mbp/sim/kernels.hpp):
 *
 *  1. indexRows() walks a chunk of up to kChunkRows rows of a block,
 *     writes each conditional row's per-bank flat index and tag and its
 *     bimodal index into scratch, and advances the histories. It has no
 *     table state, so it runs eight banks at a time in AVX2 (32-bit
 *     lanes) where the host has it, with a bit-identical scalar loop as
 *     the fallback and the reference.
 *  2. The predictor then steps only its tables, reading row j's lookup
 *     from flat(j), tags(j) and bimodal(j).
 *
 * The virtual predict/train/track path uses the same component one
 * branch at a time: lookup() under the current history, push() after
 * the branch.
 *
 * The global history is a bit ring of past outcomes (bit k = the k-th
 * push) that holds at least the longest table's history; a fold's
 * evicted bit is the ring bit its history length back.
 *
 * TaggedFrame, below, is the rest of what TAGE and BATAGE share: the
 * tables around this history and the predict/train/track and two-phase
 * plumbing, so that each predictor writes only its lookup rule and its
 * update.
 */
#ifndef MBP_PREDICTORS_TAGGED_HISTORY_HPP
#define MBP_PREDICTORS_TAGGED_HISTORY_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mbp/predictors/tage_arena.hpp"
#include "mbp/sbbt/mem_trace.hpp"
#include "mbp/sim/predictor.hpp"
#include "mbp/utils/lfsr.hpp"

namespace mbp::pred
{

/** Global/path histories, bank folds and bank geometry of a TAGE-family
 *  predictor; see the file comment. */
class TaggedHistory
{
  public:
    /** Rows one indexRows() call covers at most: its scratch capacity. */
    static constexpr std::size_t kChunkRows = 512;

    /**
     * Validates @p specs and @p log_bimodal_size (validateTaggedGeometry,
     * naming @p kind) before allocating anything.
     * @throw std::invalid_argument on a geometry out of bounds.
     */
    TaggedHistory(const char *kind, const std::vector<TageTableSpec> &specs,
                  int log_bimodal_size);

    std::size_t numBanks() const { return specs_.size(); }
    /** @return Entries across all tagged tables (the arena's size). */
    std::uint32_t numEntries() const { return num_entries_; }
    /** @return The longest table's history length, at least 1: the
     *  global history register's size in bits. */
    int historyBits() const { return history_bits_; }

    // --- One branch at a time (the virtual path) -----------------------

    /**
     * Writes every bank's flat arena index and tag for a branch at @p ip
     * under the current history into @p flat and @p tag (numBanks()
     * entries each).
     */
    void lookup(std::uint64_t ip, std::uint32_t *flat,
                std::uint16_t *tag) const;

    /** @return The bimodal base's index for a branch at @p ip. */
    std::uint32_t bimodalIndex(std::uint64_t ip) const;

    /** Pushes a branch at @p ip with outcome @p taken into the global and
     *  path histories, advancing every fold. */
    void push(std::uint64_t ip, bool taken);

    // --- A chunk of rows at a time (phase 1 of a block kernel) ----------

    /**
     * Phase 1 over rows [@p begin, @p end) of @p columns
     * (end - begin <= kChunkRows): writes the lookup of the j-th
     * conditional row of the chunk to flat(j)/tags(j)/bimodal(j), and
     * pushes every conditional row — and every other row too when
     * @p track_all — exactly as lookup() then push() per row would.
     * Runs the AVX2 loop where vectorized(), else the scalar one.
     * @return The number of conditional rows indexed.
     */
    std::size_t indexRows(const sbbt::BranchColumns &columns,
                          std::size_t begin, std::size_t end,
                          bool track_all);

    /** indexRows() through the scalar loop: lookup() and push() per row,
     *  the reference the AVX2 loop must match bit for bit. */
    std::size_t indexRowsScalar(const sbbt::BranchColumns &columns,
                                std::size_t begin, std::size_t end,
                                bool track_all);

    /**
     * @return Whether indexRows() runs the AVX2 loop: the host has AVX2
     * and its address folds fit 8 lanes — the bimodal index plus one per
     * distinct index width and one per distinct tag width.
     */
    bool vectorized() const { return vectorized_; }

    /** Row j's per-bank flat indexes (numBanks() of them). */
    const std::uint32_t *
    flat(std::size_t j) const
    {
        return flat_.data() + j * stride_;
    }
    /** Row j's per-bank tags (numBanks() of them). */
    const std::uint16_t *
    tags(std::size_t j) const
    {
        return tag_.data() + j * stride_;
    }
    /** Row j's bimodal index. */
    std::uint32_t bimodal(std::size_t j) const { return bim_[j]; }

    /**
     * The banks that hit for a lookup @p flat / @p tags (numBanks()
     * entries each) in the tagged tables @p entries: bit t is set when
     * entry flat[t] carries tag tags[t].
     */
    template <typename Entry>
    std::uint64_t
    hits(const Entry *entries, const std::uint32_t *flat,
         const std::uint16_t *tags) const
    {
        std::uint64_t mask = 0;
        for (std::size_t t = 0; t < specs_.size(); ++t)
            mask |= std::uint64_t(entries[flat[t]].tag() == tags[t]) << t;
        return mask;
    }

    /** hits() for row j of the last indexRows() chunk. */
    template <typename Entry>
    std::uint64_t
    hits(const Entry *entries, std::size_t j) const
    {
        return hits(entries, flat(j), tags(j));
    }

  private:
    /** Folds of a bank: index (log_size wide), tag (tag_bits wide) and
     *  the tag's second fold (tag_bits - 1 wide). */
    static constexpr int kFolds = 3;

    /** Per-lane constants of one fold, banks padded to whole vectors. */
    struct FoldLanes
    {
        std::vector<std::uint32_t> value; //!< the folded history
        std::vector<std::uint32_t> mask;  //!< maskBits(width)
        std::vector<std::uint32_t> shr;   //!< width - 1 (rotate amount)
        std::vector<std::uint32_t> out;   //!< history_len % width
    };

    /** Makes room for @p pushes more ring bits, dropping whole words
     *  older than the longest history when the ring is full. */
    void reserveRing(std::size_t pushes);
    /** Appends the outcomes rows [begin, end) push to the ring.
     *  @return The ring position of the first of them. */
    std::size_t appendOutcomes(const sbbt::BranchColumns &columns,
                        std::size_t begin, std::size_t end, bool track_all);
    /** Sizes the scratch on the first indexRows() call. */
    void ensureScratch();
    template <std::size_t kGroups>
    std::size_t indexAvx2(const sbbt::BranchColumns &columns,
                          std::size_t begin, std::size_t end,
                          bool track_all);

    std::vector<TageTableSpec> specs_;
    int log_bimodal_size_;
    std::uint32_t num_entries_ = 0;
    int history_bits_ = 1;
    std::size_t stride_ = 0; //!< banks rounded up to a multiple of 8

    // Per lane (bank), padded to stride_: padding lanes index entry 0
    // with tag 0 and are never read.
    std::vector<std::uint32_t> offset_;   //!< flat index of entry 0
    std::vector<std::uint32_t> length_;   //!< history_len (1 if padding)
    std::vector<std::uint32_t> idx_slot_; //!< fold job of the index
    std::vector<std::uint32_t> tag_slot_; //!< fold job of the tag
    FoldLanes folds_[kFolds];
    bool vectorized_ = false;

    // The AVX2 loop's address folds, one job per 64-bit lane of two
    // vectors: job 0 folds ip >> 2 to the bimodal width, then one job per
    // distinct index width folds (ip >> 2) ^ path, and one per distinct
    // tag width folds ip >> 2. XorFold by doubling, job_steps_ steps.
    std::vector<int> job_width_;          //!< by job
    std::vector<std::uint64_t> job_path_; //!< by lane: ~0 folds the path
    std::vector<std::uint64_t> job_mask_; //!< by lane: maskBits(width)
    std::vector<std::uint64_t> job_shift_; //!< by step x lane
    int job_steps_ = 0;

    std::uint64_t path_ = 0; //!< 4 address bits of the last 8 pushes
    std::vector<std::uint64_t> ring_;
    std::size_t ring_bits_ = 0; //!< pushes held (>= history_bits_)
    std::size_t ring_cap_ = 0;  //!< bits ring_bits_ may grow to

    // Phase-1 scratch, kChunkRows conditional rows of stride_ lanes.
    std::vector<std::uint32_t> flat_;
    std::vector<std::uint16_t> tag_;
    std::vector<std::uint32_t> bim_;
};

/**
 * The frame TAGE and BATAGE step in: a TaggedHistory, the tagged tables'
 * arena of @p Entry, a bimodal base of @p BaseEntry, an Lfsr, and the
 * memo of the last lookup, with predict/train/track and the two-phase
 * block steps written once over them. @p Derived supplies two functions,
 * which the frame reaches as a friend:
 *
 *  - `Resolved resolve(const std::uint32_t *flat, std::uint64_t hits,
 *    std::uint32_t bimodal) const`: the prediction, and whatever the
 *    update needs, for a branch whose banks index @p flat, of which
 *    @p hits matched its tags, and whose bimodal index is @p bimodal;
 *  - `void applyTrain(const std::uint32_t *flat,
 *    const std::uint16_t *tags, const Resolved &r, bool outcome)`: the
 *    update with the branch's outcome.
 *
 * @p Resolved is a parameter because a base cannot name a member type
 * of its still incomplete @p Derived; it must carry `bool prediction`.
 * @p Derived must be the most-derived type: the fused kernels bind
 * predict/train/track to it at compile time.
 */
template <typename Derived, typename Entry, typename BaseEntry,
          typename Resolved>
class TaggedFrame : public Predictor
{
  public:
    bool
    predict(std::uint64_t ip) override
    {
        return lookupOf(ip).prediction;
    }

    void
    train(const Branch &b) override
    {
        const Resolved &r = lookupOf(b.ip());
        self().applyTrain(lookup_.flat.data(), lookup_.tag.data(), r,
                          b.isTaken());
        lookup_.valid = false;
    }

    void
    track(const Branch &b) override
    {
        history_.push(b.ip(), b.isTaken());
        lookup_.valid = false;
    }

    /** Rows one indexRows() call covers at most (KernelTwoPhase). */
    static constexpr std::size_t kIndexRows = TaggedHistory::kChunkRows;

    /**
     * Phase 1 (KernelTwoPhase): every bank's index and tag for the
     * conditional rows of [@p begin, @p end), and the history pushes of
     * the rows track() would see (TaggedHistory::indexRows).
     */
    void
    indexRows(const sbbt::BranchColumns &columns, std::size_t begin,
              std::size_t end, bool track_all)
    {
        lookup_.valid = false;
        history_.indexRows(columns, begin, end, track_all);
    }

    /**
     * Phase 2 for the @p j -th conditional row of the last indexRows()
     * chunk, with outcome @p taken: exactly predict(ip); train(b);
     * track(b) for that branch — its history push was phase 1's.
     * Returns the prediction.
     */
    bool
    stepIndexed(std::size_t j, std::uint64_t, bool taken)
    {
        const std::uint32_t *flat = history_.flat(j);
        const Resolved r = self().resolve(
            flat, history_.hits(arena_.data(), j), history_.bimodal(j));
        self().applyTrain(flat, history_.tags(j), r, taken);
        return r.prediction;
    }

    /** Phase 2 of track() for a row that is not conditional: nothing,
     *  since its history push was phase 1's. */
    void trackIndexed(const Branch &) {}

  protected:
    /** Validates the geometry (TaggedHistory, naming @p kind) before
     *  sizing the bimodal base and the arena. */
    TaggedFrame(const char *kind, const std::vector<TageTableSpec> &tables,
                int log_bimodal_size)
        : history_(kind, tables, log_bimodal_size),
          bimodal_(std::size_t(1) << log_bimodal_size),
          arena_(history_.numEntries())
    {
        lookup_.flat.resize(history_.numBanks());
        lookup_.tag.resize(history_.numBanks());
    }

    TaggedHistory history_; //!< first: validates before the tables size
    std::vector<BaseEntry> bimodal_;
    TaggedTableArena<Entry> arena_;
    Lfsr rng_;

  private:
    /** Everything predict() computes that train() needs again. */
    struct Lookup
    {
        std::uint64_t ip = ~std::uint64_t(0);
        std::vector<std::uint32_t> flat; //!< per-table flat arena index
        std::vector<std::uint16_t> tag;  //!< per-table computed tag
        Resolved resolved;
        bool valid = false;
    };

    Derived &self() { return static_cast<Derived &>(*this); }

    void
    computeLookup(std::uint64_t ip)
    {
        lookup_.ip = ip;
        lookup_.valid = true;
        history_.lookup(ip, lookup_.flat.data(), lookup_.tag.data());
        lookup_.resolved = self().resolve(
            lookup_.flat.data(),
            history_.hits(arena_.data(), lookup_.flat.data(),
                          lookup_.tag.data()),
            history_.bimodalIndex(ip));
    }

    /** The memoized lookup of a branch at @p ip under the current
     *  history. */
    const Resolved &
    lookupOf(std::uint64_t ip)
    {
        if (!lookup_.valid || lookup_.ip != ip)
            computeLookup(ip);
        return lookup_.resolved;
    }

    Lookup lookup_;
};

} // namespace mbp::pred

#endif // MBP_PREDICTORS_TAGGED_HISTORY_HPP
