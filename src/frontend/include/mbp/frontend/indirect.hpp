/**
 * @file
 * Tagged gshare-style indirect-target predictor.
 *
 * Indirect branches (virtual calls, switch dispatch, computed gotos)
 * defeat the BTB whenever a site is polymorphic: one entry cannot hold
 * two targets. This predictor disambiguates by *path*: the table is
 * indexed by ip XOR the global outcome history, so the same call site
 * reached along different paths uses different entries — the classic
 * "target cache" (Chang/Hao/Patt) that ITTAGE generalizes. A partial tag
 * filters aliases; on a tag miss FrontEnd falls back to the BTB.
 *
 * Deterministic end to end, mirrored by mbp::testkit::RefIndirect.
 */
#ifndef MBP_FRONTEND_INDIRECT_HPP
#define MBP_FRONTEND_INDIRECT_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "mbp/json/json.hpp"
#include "mbp/sim/predictor.hpp"
#include "mbp/utils/hash.hpp"

namespace mbp::frontend
{

/** Geometry of an IndirectTarget instance. */
struct IndirectConfig
{
    int index_bits = 12;   //!< log2 table entries
    int tag_bits = 10;     //!< partial tag width
    int history_bits = 16; //!< global outcome history folded into the index

    /** @return "" when usable, else what is wrong. */
    std::string
    validate() const
    {
        if (index_bits < 1 || index_bits > 20)
            return "indirect index bits must be 1..20";
        if (tag_bits < 1 || tag_bits > 32)
            return "indirect tag bits must be 1..32";
        if (history_bits < 0 || history_bits > 63)
            return "indirect history bits must be 0..63";
        return "";
    }
};

/** The path-indexed, tagged indirect-target table. */
class IndirectTarget
{
  public:
    /** Running behavior counters, reported in execution_stats(). */
    struct Stats
    {
        std::uint64_t lookups = 0;
        std::uint64_t hits = 0;   //!< tag matches
        std::uint64_t misses = 0; //!< no valid entry / tag mismatch
        std::uint64_t allocations = 0;
    };

    explicit IndirectTarget(const IndirectConfig &config = {})
        : config_(config),
          entries_(std::size_t(1) << config.index_bits),
          history_mask_(config.history_bits >= 64
                            ? ~std::uint64_t(0)
                            : (std::uint64_t(1) << config.history_bits) -
                                  1)
    {
    }

    const IndirectConfig &config() const { return config_; }
    const Stats &stats() const { return stats_; }

    /**
     * Where @p ip's entry lies under the current history, and the tag it
     * must hold. XorFold is linear over XOR, so the index and the tag
     * split into a part of the address alone (siteIndex(), siteTag(),
     * which FrontEnd memoizes per static site) and a part of the history
     * alone, folded here.
     */
    struct Slot
    {
        std::size_t index = 0;
        std::uint64_t tag = 0;
    };

    /** The slot of a site whose address parts are @p site_index and
     *  @p site_tag. */
    Slot
    slot(std::uint64_t site_index, std::uint64_t site_tag) const
    {
        return {std::size_t(site_index ^
                            XorFold(history_, config_.index_bits)),
                site_tag ^ XorFold(history_ * 3, config_.tag_bits)};
    }

    /** slot() of @p ip. */
    Slot
    slot(std::uint64_t ip) const
    {
        return slot(siteIndex(ip), siteTag(ip));
    }

    /**
     * Probes @p s.
     *
     * @param target_out Receives the stored target on a tag hit.
     * @return Whether a valid entry with a matching tag exists.
     */
    bool
    lookup(const Slot &s, std::uint64_t &target_out)
    {
        ++stats_.lookups;
        const Entry &e = entries_[s.index];
        if (e.valid && e.tag == s.tag) {
            ++stats_.hits;
            target_out = e.target;
            return true;
        }
        ++stats_.misses;
        return false;
    }

    /** Records that the indirect branch whose slot is @p s went to
     *  @p target. */
    void
    update(const Slot &s, std::uint64_t target)
    {
        Entry &e = entries_[s.index];
        if (!e.valid || e.tag != s.tag)
            ++stats_.allocations;
        e.valid = true;
        e.tag = s.tag;
        e.target = target;
    }

    /** lookup() of @p ip's slot under the current history. */
    bool
    lookup(std::uint64_t ip, std::uint64_t &target_out)
    {
        return lookup(slot(ip), target_out);
    }

    /** update() of @p ip's slot under the current history. */
    void
    update(std::uint64_t ip, std::uint64_t target)
    {
        update(slot(ip), target);
    }

    /** Shifts the branch outcome @p taken into the path history. The
     *  FrontEnd feeds it every branch, like a gshare track(). */
    void
    trackOutcome(bool taken)
    {
        history_ = ((history_ << 1) | (taken ? 1u : 0u)) & history_mask_;
    }

    std::uint64_t history() const { return history_; }

    /** Table index of @p ip under the current history. */
    std::uint64_t indexOf(std::uint64_t ip) const { return slot(ip).index; }

    /** Partial tag of @p ip under the current history. */
    std::uint64_t tagOf(std::uint64_t ip) const { return slot(ip).tag; }

    /** The address part of indexOf(@p ip). */
    std::uint64_t
    siteIndex(std::uint64_t ip) const
    {
        return XorFold(ip >> 2, config_.index_bits);
    }

    /** The address part of tagOf(@p ip). */
    std::uint64_t
    siteTag(std::uint64_t ip) const
    {
        return XorFold((ip >> 2) >> config_.index_bits, config_.tag_bits);
    }

    /** Declared storage: valid + tag + 64-bit target per entry, plus the
     *  history register. */
    ComponentInfo
    storageComponents() const
    {
        std::vector<ComponentInfo> children;
        children.push_back(ComponentInfo::table(
            "indirect-table", entries_.size(),
            std::uint64_t(1 + config_.tag_bits + 64)));
        children.push_back(ComponentInfo::reg(
            "indirect-history", std::uint64_t(config_.history_bits)));
        return ComponentInfo::composite("indirect", std::move(children));
    }

    json_t
    statsJson() const
    {
        return json_t::object({
            {"lookups", stats_.lookups},
            {"hits", stats_.hits},
            {"misses", stats_.misses},
            {"allocations", stats_.allocations},
        });
    }

  private:
    struct Entry
    {
        bool valid = false;
        std::uint64_t tag = 0;
        std::uint64_t target = 0;
    };

    IndirectConfig config_;
    std::vector<Entry> entries_;
    std::uint64_t history_mask_;
    std::uint64_t history_ = 0;
    Stats stats_;
};

} // namespace mbp::frontend

#endif // MBP_FRONTEND_INDIRECT_HPP
