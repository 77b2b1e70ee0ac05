/**
 * @file
 * Return address stack with explicit overflow/underflow policy.
 *
 * A real RAS is a tiny circular buffer: calls push the fall-through
 * address, returns pop it. The interesting behavior is at the edges —
 * recursion deeper than the stack (overflow) and unmatched returns
 * (underflow) — and on the wrong path, where speculatively executed
 * calls corrupt entries the right path still needs. All three are
 * first-class here: the policies are configuration, the corruption model
 * is deterministic (FrontEnd pushes a bogus entry on every conditional
 * direction misprediction when enabled), and every operation mirrors
 * into the naive mbp::testkit::RefRas oracle.
 */
#ifndef MBP_FRONTEND_RAS_HPP
#define MBP_FRONTEND_RAS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "mbp/json/json.hpp"
#include "mbp/sim/predictor.hpp"

namespace mbp::frontend
{

/** What a push does when the stack is full. */
enum class RasOverflow : std::uint8_t
{
    kWrap,    //!< overwrite the oldest entry (circular buffer)
    kDiscard, //!< drop the new entry
};

/** What a pop predicts when the stack is empty. */
enum class RasUnderflow : std::uint8_t
{
    kZero,  //!< predict 0 (a guaranteed misfetch)
    kReuse, //!< re-predict the most recently popped address
};

/** Size and edge policies of a Ras instance. */
struct RasConfig
{
    int size = 16;
    RasOverflow overflow = RasOverflow::kWrap;
    RasUnderflow underflow = RasUnderflow::kZero;

    /** @return "" when usable, else what is wrong. */
    std::string
    validate() const
    {
        if (size < 1 || size > 4096)
            return "ras size must be 1..4096";
        return "";
    }
};

/** The return address stack. */
class Ras
{
  public:
    /** Running behavior counters, reported in execution_stats(). */
    struct Stats
    {
        std::uint64_t pushes = 0;
        std::uint64_t pops = 0;
        std::uint64_t overflows = 0;  //!< pushes that hit a full stack
        std::uint64_t underflows = 0; //!< pops that hit an empty stack
        std::uint64_t corruptions = 0; //!< wrong-path pushes injected
    };

    explicit Ras(const RasConfig &config = {})
        : config_(config), slots_(std::size_t(config.size), 0)
    {
    }

    const RasConfig &config() const { return config_; }
    const Stats &stats() const { return stats_; }
    int depth() const { return depth_; }

    /** @return What a pop would predict right now, without popping. */
    std::uint64_t
    peek() const
    {
        if (depth_ == 0)
            return config_.underflow == RasUnderflow::kReuse ? last_popped_
                                                             : 0;
        return slots_[std::size_t(top_)];
    }

    /** Pushes @p address (a call's fall-through). */
    void
    push(std::uint64_t address)
    {
        ++stats_.pushes;
        if (depth_ == config_.size) {
            ++stats_.overflows;
            if (config_.overflow == RasOverflow::kDiscard)
                return;
            // Wrap: the ring advances, silently overwriting the oldest
            // entry; depth stays at capacity.
        } else {
            ++depth_;
        }
        top_ = top_ + 1 == config_.size ? 0 : top_ + 1;
        slots_[std::size_t(top_)] = address;
    }

    /** A wrong-path push injected by the corruption model. */
    void
    corrupt(std::uint64_t address)
    {
        ++stats_.corruptions;
        push(address);
        --stats_.pushes; // corruptions are counted separately
    }

    /** Pops and @return the predicted return address. */
    std::uint64_t
    pop()
    {
        ++stats_.pops;
        if (depth_ == 0) {
            ++stats_.underflows;
            return config_.underflow == RasUnderflow::kReuse ? last_popped_
                                                             : 0;
        }
        const std::uint64_t value = slots_[std::size_t(top_)];
        top_ = (top_ == 0 ? config_.size : top_) - 1;
        --depth_;
        last_popped_ = value;
        return value;
    }

    /** Declared storage: size 64-bit slots plus the top index. */
    ComponentInfo
    storageComponents() const
    {
        std::vector<ComponentInfo> children;
        children.push_back(ComponentInfo::table(
            "ras-slots", std::uint64_t(config_.size), 64));
        children.push_back(ComponentInfo::reg("ras-top", 12));
        return ComponentInfo::composite("ras", std::move(children));
    }

    json_t
    statsJson() const
    {
        return json_t::object({
            {"pushes", stats_.pushes},
            {"pops", stats_.pops},
            {"overflows", stats_.overflows},
            {"underflows", stats_.underflows},
            {"corruptions", stats_.corruptions},
        });
    }

  private:
    RasConfig config_;
    std::vector<std::uint64_t> slots_;
    int top_ = 0;
    int depth_ = 0;
    std::uint64_t last_popped_ = 0;
    Stats stats_;
};

} // namespace mbp::frontend

#endif // MBP_FRONTEND_RAS_HPP
