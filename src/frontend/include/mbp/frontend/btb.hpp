/**
 * @file
 * Set-associative banked branch target buffer.
 *
 * The BTB is the front-end structure that turns "this fetch address is a
 * taken branch" into "and it goes *there*": a small set-associative cache
 * of recent branch targets, banked so a wide fetch bundle can probe
 * several slots per cycle (the organization of bpu.cc-style trace-cache
 * front ends, see DESIGN.md "Front-end tier"). mbp::frontend::FrontEnd
 * consults it for every direct branch and as the fallback for indirect
 * ones; a miss or a stale entry on a taken branch is a target
 * misprediction — a pipeline flush just as costly as a wrong direction.
 *
 * The geometry (banks x sets x ways), the tag width and the replacement
 * policy are all configurable; every operation is deterministic, so the
 * naive mbp::testkit::RefBtb oracle can replay it entry for entry.
 */
#ifndef MBP_FRONTEND_BTB_HPP
#define MBP_FRONTEND_BTB_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "mbp/json/json.hpp"
#include "mbp/sim/predictor.hpp"
#include "mbp/utils/hash.hpp"

namespace mbp::frontend
{

/** How a BTB set picks its victim when full. */
enum class Replacement : std::uint8_t
{
    kLru,  //!< evict the least recently *updated* way
    kFifo, //!< evict the oldest *inserted* way (insertion order only)
};

/** Geometry and policy of a Btb instance. */
struct BtbConfig
{
    int log2_sets = 8;  //!< sets per bank (2^log2_sets)
    int ways = 4;       //!< associativity
    int log2_banks = 1; //!< banks (2^log2_banks), selected by low ip bits
    int tag_bits = 16;  //!< partial tag width
    Replacement replacement = Replacement::kLru;

    /** @return "" when the geometry is usable, else what is wrong. */
    std::string
    validate() const
    {
        if (log2_sets < 1 || log2_sets > 20)
            return "btb sets must be 2^1..2^20";
        if (ways < 1 || ways > 16)
            return "btb ways must be 1..16";
        if (log2_banks < 0 || log2_banks > 4)
            return "btb banks must be 2^0..2^4";
        if (tag_bits < 1 || tag_bits > 32)
            return "btb tag bits must be 1..32";
        // Each bound alone admits 2^28 entries (8 GiB); the product is
        // what allocates.
        const std::uint64_t sets = std::uint64_t(1) << log2_sets;
        const std::uint64_t banks = std::uint64_t(1) << log2_banks;
        if (sets * banks * std::uint64_t(ways) > kMaxEntries)
            return "btb entries (sets x ways x banks = " +
                   std::to_string(sets) + " x " + std::to_string(ways) +
                   " x " + std::to_string(banks) + ") must be at most " +
                   std::to_string(kMaxEntries);
        return "";
    }

    /** The most entries validate() accepts (512 MiB of entries). */
    static constexpr std::uint64_t kMaxEntries = std::uint64_t(1) << 24;
};

/**
 * The branch target buffer. Indexing is word-granular (`ip >> 2`, like
 * every table in the suite): the bank comes from the lowest word bits,
 * the set from an XorFold of the remaining bits, and the partial tag
 * from the bits above the set index — so aliasing (two sites sharing a
 * set *and* a tag) is possible by construction, exactly what the
 * adversarial generators probe.
 */
class Btb
{
  public:
    /** One observable BTB entry (for tests and the reference oracle). */
    struct Entry
    {
        bool valid = false;
        std::uint64_t tag = 0;
        std::uint64_t target = 0;
        std::uint64_t stamp = 0; //!< LRU: last update; FIFO: insertion
    };

    /** Running behavior counters, reported in execution_stats(). */
    struct Stats
    {
        std::uint64_t lookups = 0;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t insertions = 0;
        std::uint64_t replacements = 0; //!< insertions that evicted
    };

    explicit Btb(const BtbConfig &config = {})
        : config_(config),
          sets_per_bank_(std::uint64_t(1) << config.log2_sets),
          num_banks_(std::uint64_t(1) << config.log2_banks),
          entries_(sets_per_bank_ * num_banks_ *
                   std::uint64_t(config.ways))
    {
    }

    const BtbConfig &config() const { return config_; }
    const Stats &stats() const { return stats_; }

    /**
     * One scan of a set: where the tag hits, and the policy's victim for
     * an insertion on a miss. FrontEnd probes each branch's set once and
     * hands the probe to lookup() and update().
     */
    struct Probe
    {
        std::uint64_t base = 0; //!< first entry of the set
        std::uint64_t tag = 0;
        int hit = -1;   //!< way whose valid entry holds the tag, or -1
        int victim = 0; //!< first invalid way, else the oldest stamp
        /** The way the tag lives in after update(): the best @p hint
         *  for the next probe of the same tag. */
        int way() const { return hit >= 0 ? hit : victim; }
    };

    /**
     * Scans the set at entry @p base for @p tag, trying way @p hint
     * first. A set never holds a valid tag twice (update() inserts only
     * on a miss), so a hint that holds the tag is *the* hit and the scan
     * stops there; otherwise every way is scanned. Way index breaks
     * stamp ties, so the victim choice is deterministic.
     */
    Probe
    probe(std::uint64_t base, std::uint64_t tag, int hint = 0) const
    {
        Probe p{base, tag};
        const Entry *set = entries_.data() + base;
        if (set[hint].valid && set[hint].tag == tag) {
            p.hit = hint;
            return p;
        }
        bool have_invalid = false;
        for (int w = 0; w < config_.ways; ++w) {
            const Entry &e = set[w];
            if (e.valid && e.tag == tag) {
                p.hit = w;
                break;
            }
            if (!have_invalid) {
                if (!e.valid) {
                    p.victim = w;
                    have_invalid = true;
                } else if (e.stamp < set[p.victim].stamp) {
                    p.victim = w;
                }
            }
        }
        return p;
    }

    /** probe() of @p ip's set and tag. */
    Probe
    probe(std::uint64_t ip) const
    {
        return probe(setBase(ip), tagOf(ip));
    }

    /**
     * Counts a lookup of @p p's set.
     *
     * @param target_out Receives the stored target on a hit.
     * @return Whether a valid entry with a matching tag exists.
     */
    bool
    lookup(const Probe &p, std::uint64_t &target_out)
    {
        ++stats_.lookups;
        if (p.hit < 0) {
            ++stats_.misses;
            return false;
        }
        ++stats_.hits;
        target_out = entries_[p.base + std::uint64_t(p.hit)].target;
        return true;
    }

    /**
     * Records that the branch whose set @p p scanned went to @p target.
     * A tag hit refreshes the entry (and its LRU stamp); a miss inserts
     * into the probe's victim way. Nothing may change the set between
     * probe() and update().
     */
    void
    update(const Probe &p, std::uint64_t target)
    {
        ++tick_;
        if (p.hit >= 0) {
            Entry &e = entries_[p.base + std::uint64_t(p.hit)];
            e.target = target;
            if (config_.replacement == Replacement::kLru)
                e.stamp = tick_;
            return;
        }
        Entry &e = entries_[p.base + std::uint64_t(p.victim)];
        ++stats_.insertions;
        if (e.valid)
            ++stats_.replacements;
        e.valid = true;
        e.tag = p.tag;
        e.target = target;
        e.stamp = tick_; // FIFO stamps at insertion only
    }

    /** lookup() of a fresh probe of @p ip. */
    bool
    lookup(std::uint64_t ip, std::uint64_t &target_out)
    {
        return lookup(probe(ip), target_out);
    }

    /** update() of a fresh probe of @p ip. */
    void
    update(std::uint64_t ip, std::uint64_t target)
    {
        update(probe(ip), target);
    }

    /** @return The raw entry at (bank, set, way), for tests. */
    const Entry &
    entryAt(std::uint64_t bank, std::uint64_t set, int way) const
    {
        return entries_[(bank * sets_per_bank_ + set) *
                            std::uint64_t(config_.ways) +
                        std::uint64_t(way)];
    }

    /** Bank selected by @p ip (low word bits). */
    std::uint64_t
    bankOf(std::uint64_t ip) const
    {
        return (ip >> 2) & (num_banks_ - 1);
    }

    /** Set within the bank selected by @p ip. */
    std::uint64_t
    setOf(std::uint64_t ip) const
    {
        return XorFold((ip >> 2) >> config_.log2_banks, config_.log2_sets);
    }

    /** First entry of the set selected by @p ip. */
    std::uint64_t
    setBase(std::uint64_t ip) const
    {
        return (bankOf(ip) * sets_per_bank_ + setOf(ip)) *
               std::uint64_t(config_.ways);
    }

    /** Partial tag of @p ip. */
    std::uint64_t
    tagOf(std::uint64_t ip) const
    {
        return XorFold(((ip >> 2) >> config_.log2_banks) >>
                           config_.log2_sets,
                       config_.tag_bits);
    }

    /** Declared storage: valid + tag + 64-bit target per way. */
    ComponentInfo
    storageComponents() const
    {
        return ComponentInfo::table(
            "btb", entries_.size(),
            std::uint64_t(1 + config_.tag_bits + 64));
    }

    json_t
    statsJson() const
    {
        return json_t::object({
            {"lookups", stats_.lookups},
            {"hits", stats_.hits},
            {"misses", stats_.misses},
            {"insertions", stats_.insertions},
            {"replacements", stats_.replacements},
        });
    }

  private:
    BtbConfig config_;
    std::uint64_t sets_per_bank_;
    std::uint64_t num_banks_;
    std::vector<Entry> entries_;
    std::uint64_t tick_ = 0;
    Stats stats_;
};

} // namespace mbp::frontend

#endif // MBP_FRONTEND_BTB_HPP
